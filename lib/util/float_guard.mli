(** Float-noise guard shared by the flow layer. *)

(** Comparison slack, also the residual-capacity threshold of the flow
    networks. *)
val eps : float
