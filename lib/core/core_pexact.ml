let run ?pool ?prunings g psi =
  Core_exact.run ?pool ?prunings ~family:Flow_build.Pds_grouped g psi
