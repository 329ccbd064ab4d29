(** Small statistics helpers used by the dataset-characteristics table
    (Table 2 / Figure 18: power-law exponent, degree summaries). *)

val mean : float array -> float
val median : float array -> float
val max_int_arr : int array -> int

(** [power_law_alpha degrees] estimates the exponent alpha of
    f(x) ~ x^(-alpha) from the positive entries of a degree sequence
    using the discrete maximum-likelihood estimator of Clauset et al.
    with x_min = 1: alpha = 1 + n / sum(ln x_i). *)
val power_law_alpha : int array -> float

(** [histogram xs] maps each distinct value to its multiplicity. *)
val histogram : int array -> (int * int) list
