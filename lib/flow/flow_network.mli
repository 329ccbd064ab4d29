(** Directed flow networks with float capacities in residual-arc form.

    Every [add_edge] creates a forward arc and a zero-capacity reverse
    arc stored at adjacent indices, so the reverse of arc [e] is
    [e lxor 1] — the standard residual-graph layout shared by
    {!Dinic} and the Edmonds-Karp oracle of the test library.

    Capacities are floats because the DSD binary search guesses a
    fractional density [alpha] (arc capacities [alpha * |V_Psi|],
    Algorithm 1 line 8).  [infinity] is a legal capacity (the
    clique-node-to-vertex arcs of Algorithm 1 line 11).

    {2 Capacity laws}

    Every arc carries its capacity law
    cap(alpha) = max (base + coef * alpha, 0), set when {!add_edge}
    creates it: [base] is the capacity it is created with and [coef]
    its [?coef], 0 (a constant arc) unless given.  Residual twins carry
    (0, 0).  Between the probes of a parametric search only the arcs
    with [coef <> 0] change — Goldberg's parametric-flow observation —
    so the network re-aims itself from its own laws, in one of two
    ways:
    - {!recapacitate}, cold and exact: zero the flow and write every
      law at alpha = num/den, scaled by den, so every finite capacity
      is an integer-valued double;
    - {!retarget}, warm: write the sloped arcs at a float alpha and
      repair each one whose new capacity fell below its committed flow
      as {!set_cap_warm} does, so the next solve only augments the
      difference.
    Use one of the two on a network: a warm retarget after a
    recapacitate mixes scaled and unscaled capacities.  A capacity
    write ({!set_cap}, {!set_cap_warm}) makes the arc constant at the
    written value.

    {2 Arena layout}

    A network is an arena of flat arrays indexed by arc id — head
    ([dst]), capacity, flow and law — grown by doubling as arcs are
    added, plus one CSR index that groups the arc ids by tail: the arcs
    leaving node [v] are [arcs.(start.(v)) .. arcs.(start.(v+1) - 1)].

    The index is built on the first read after a change to the
    topology ({!view}, {!iter_arcs_from}, {!arcs_from},
    {!flow_value}, the drain walks of a repair) by a counting sort
    of the arc ids by tail; {!add_node} and {!add_edge} invalidate it.
    Capacity and flow writes ({!set_cap}, {!push}, {!reset_flow}, a
    solver) leave it valid.  Within one tail the index lists arc ids in
    ascending order, which is the order [add_edge] created them in, so
    every solver visits a node's arcs in insertion order however the
    network was grown.

    The same rebuild sizes the solvers' per-node scratch (the [level],
    [cursor], [lim] and [got] arrays of the {!view}) to the node count,
    doubling it when an arena that grows by {!add_node} outruns it, so
    the scratch belongs to the network and lives as long as it does.
    Once the index exists, re-solving (a {!recapacitate} or other
    capacity and flow writes, then {!Dinic.max_flow} and
    {!Min_cut.source_side}) allocates only the source-side array the
    cut returns: nothing per arc and no other per-node memory.  Because
    the index is built on first read and the scratch is shared, a
    network must not be read from two domains before its first solve,
    nor solved from two at once. *)

type t

(** [create ?edges n] makes a network with nodes [0 .. n-1] and no
    arcs.  [edges] sizes the arc arrays for that many {!add_edge}
    calls, so a builder that knows its arc count never regrows them;
    more arcs may still be added, at amortised O(1) each. *)
val create : ?edges:int -> int -> t

(** Number of nodes. *)
val node_count : t -> int

(** Number of [add_edge] calls so far. *)
val edge_count : t -> int

(** [add_node t] appends a fresh node and returns its id ([node_count]
    before the call).  Existing arcs, flow and node ids are untouched,
    so an arena can grow in place between solver runs — the incremental
    subsystem appends one node per newly discovered pattern instance.
    The index is rebuilt on the next read. *)
val add_node : t -> int

(** [add_edge ?coef t ~src ~dst ~cap] adds a forward arc of capacity
    [cap] (must be ≥ 0; may be [infinity]) and its residual twin, with
    the law max (cap + coef * alpha, 0) ([coef] default 0).
    Returns the forward arc id.  The index is rebuilt on the next
    read. *)
val add_edge : ?coef:float -> t -> src:int -> dst:int -> cap:float -> int

(** {1 Solver view} *)

(** The arena as the solvers read it.  Every array is shared with the
    network, not copied: a solver pushes flow by writing [flow.(e)] and
    [flow.(e lxor 1)] in place, may overwrite the four scratch arrays
    freely, and must write nothing else.  The arc arrays may be longer
    than {!arc_count}; only ids below it are arcs.  Scratch contents
    are undefined on entry to a solver: each call initialises what it
    reads. *)
type view = private {
  nodes : int;         (** {!node_count} *)
  start : int array;   (** node [v]'s arcs sit at [start.(v) .. start.(v+1) - 1] of [arcs] *)
  arcs : int array;    (** arc ids grouped by tail, ascending within a tail *)
  dst : int array;     (** arc -> head node *)
  cap : float array;   (** arc -> capacity *)
  flow : float array;  (** arc -> flow (negative on residual twins) *)
  level : int array;   (** scratch, at least [nodes + 1] ints *)
  cursor : int array;  (** scratch, at least [nodes + 1] ints *)
  lim : float array;   (** scratch, at least [nodes + 1] floats *)
  got : float array;   (** scratch, at least [nodes + 1] floats *)
}

(** [view t] is the current view, building the index first if the
    topology changed since the last read.  Valid until the next
    {!add_node} or {!add_edge}; fetch it again after growth. *)
val view : t -> view

(** {1 Checked accessors}

    Each raises [Invalid_argument] for an arc id outside
    [0 .. arc_count - 1] (or a node outside [0 .. node_count - 1]). *)

val arc_count : t -> int
val arc_dst : t -> int -> int
val arc_cap : t -> int -> float

(** Current flow on an arc (negative on residual twins). *)
val arc_flow : t -> int -> float

(** [set_cap t arc cap] overwrites the capacity of [arc] and makes
    its law the constant [cap].

    @raise Invalid_argument if [arc] is out of range, [cap] is negative
    (or NaN), or [cap] lies more than [eps] below the flow already
    pushed through the arc — lowering under committed flow is rejected
    rather than saturated; call {!set_cap_warm} or {!reset_flow}
    first. *)
val set_cap : t -> int -> float -> unit

(** [set_cap_warm t ~s ~sink arc cap] is {!set_cap} under committed
    flow: the capacity and law are written, and if the arc's flow now
    exceeds [cap] by more than [eps] it is pulled back to [cap] and the
    flow repaired, so the flow stays feasible and the next solve starts
    from it.  A terminal endpoint absorbs its own imbalance.  Of a
    non-terminal head and tail, in this order: flow that circulated
    through the arc (head-to-tail paths) is cancelled first, since it
    can reach neither terminal; the head's remaining deficit is
    cancelled forward to [sink]; the tail's matching surplus is drained
    back to [s].  The last two fall back on flow-carrying cycles
    through the node when no path is left.  Conservation holds at every
    other node throughout.  Returns the number of paths and cycles
    cancelled (0 when the arc stayed feasible) and adds it to the
    [Flow_excess_drained] counter.  An incremental session lowers
    source and instance arcs this way, and {!retarget} repairs every
    sloped arc with it.

    @raise Invalid_argument if [arc] is out of range, [cap] is negative
    (or NaN), or the flow was not feasible, so a drain finds nothing to
    cancel along. *)
val set_cap_warm : t -> s:int -> sink:int -> int -> float -> int

(** Remaining residual capacity of an arc. *)
val residual : t -> int -> float

(** [push t arc f] sends [f] units along [arc] (and -[f] along its
    twin). *)
val push : t -> int -> float -> unit

(** [iter_arcs_from t v ~f] visits the arc ids leaving node [v]
    (forward and residual twins alike) in insertion order. *)
val iter_arcs_from : t -> int -> f:(int -> unit) -> unit

(** [arcs_from t v] is a fresh array of the arc ids {!iter_arcs_from}
    visits, in the same order. *)
val arcs_from : t -> int -> int array

(** [reset_flow t] zeroes all flow, restoring initial capacities. *)
val reset_flow : t -> unit

(** [recapacitate t ~den ~num] re-aims the whole network cold at
    alpha = num/den in one pass over the arc arrays: every flow is
    zeroed and every arc's capacity becomes its law scaled by [den],
    [max (base * den + coef * num) 0] (an infinite base stays
    infinite).  The laws are left as they were.  Returns the sum of the
    finite capacities, so a caller can refuse a scale at which float
    flow sums stop being exact.  No allocation beyond the returned
    float; the index stays valid.

    @raise Invalid_argument if [den <= 0] or [num < 0]. *)
val recapacitate : t -> den:int -> num:int -> float

(** [retarget t ~s ~sink ~alpha] re-aims the network warm at [alpha]:
    each arc created with a non-zero [coef], in creation order, gets
    its law's capacity at [alpha] and is repaired as by
    {!set_cap_warm}, so the committed flow is kept wherever it still
    fits.  Alpha may move in either direction.  Costs one write per
    such arc plus the repairs' drains, and runs in the [retarget] span,
    counted as [flow_retargets] and [flow_warm_starts].

    @raise Invalid_argument if the flow was not feasible. *)
val retarget : t -> s:int -> sink:int -> alpha:float -> unit

(** [flow_value t ~s] is the net outflow at [s] — the total value of
    the flow currently committed to the network, independent of how
    many solver calls accumulated it. *)
val flow_value : t -> s:int -> float

(** Tolerance under which a residual capacity counts as exhausted. *)
val eps : float
