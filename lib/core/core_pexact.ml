let run ?prunings g psi =
  Core_exact.run ?prunings ~family:Flow_build.Pds_grouped g psi
