(** Directed flow networks with float capacities in residual-arc form.

    Every [add_edge] creates a forward arc and a zero-capacity reverse
    arc stored at adjacent indices, so the reverse of arc [e] is
    [e lxor 1] — the standard residual-graph layout shared by
    {!Dinic} and the Edmonds-Karp oracle of the test library.

    Capacities are floats because the DSD binary search guesses a
    fractional density [alpha] (arc capacities [alpha * |V_Psi|],
    Algorithm 1 line 8).  [infinity] is a legal capacity (the
    clique-node-to-vertex arcs of Algorithm 1 line 11).

    {2 Arena layout}

    A network is an arena of flat arrays indexed by arc id — head
    ([dst]), capacity and flow — grown by doubling as arcs are added,
    plus one CSR index that groups the arc ids by tail: the arcs
    leaving node [v] are [arcs.(start.(v)) .. arcs.(start.(v+1) - 1)].

    The index is built on the first read after a change to the
    topology ({!view}, {!iter_arcs_from}, {!arcs_from},
    {!flow_value}, a drain walk of a [restore_arc*]) by a counting sort
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

(** [add_edge t ~src ~dst ~cap] adds a forward arc of capacity [cap]
    (must be ≥ 0; may be [infinity]) and its residual twin.  Returns
    the forward arc id.  The index is rebuilt on the next read. *)
val add_edge : t -> src:int -> dst:int -> cap:float -> int

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

(** [set_cap t arc cap] overwrites the capacity of [arc] — the
    parametric-flow primitive behind {!Flow_build}'s alpha retargeting
    (only the alpha-dependent arc class changes between binary-search
    iterations, so the network is built once and re-capacitated in
    O(V) writes).

    @raise Invalid_argument if [arc] is out of range, [cap] is negative
    (or NaN), or [cap] lies more than [eps] below the flow already
    pushed through the arc — lowering under committed flow is rejected
    rather than saturated; call {!reset_flow} first. *)
val set_cap : t -> int -> float -> unit

(** [set_cap_carry t arc cap] overwrites the capacity of [arc] while
    keeping whatever flow is already committed — the warm-start variant
    of {!set_cap}.  The network may transiently violate [flow ≤ cap] on
    [arc]; callers must call {!restore_arc} on every arc they lowered
    before running a solver again.

    @raise Invalid_argument if [arc] is out of range or [cap] is
    negative (or NaN). *)
val set_cap_carry : t -> int -> float -> unit

(** [restore_arc t ~s arc] repairs the feasibility of [arc] after a
    {!set_cap_carry} lowered its capacity below the committed flow: the
    arc flow is reduced to the new capacity and the resulting excess at
    the arc's tail is drained back to the source [s] along
    flow-carrying arcs (flow decomposition).  Conservation holds at
    every other node throughout.  Returns the number of drain paths
    used (0 when the arc was already feasible) and adds it to the
    [Flow_excess_drained] counter.

    @raise Invalid_argument if [arc] is out of range, or no
    flow-carrying path back to [s] exists (impossible for the excess
    produced by lowering a sink arc of a feasible flow). *)
val restore_arc : t -> s:int -> int -> int

(** [restore_arc_head t ~sink arc] is the dual of {!restore_arc} for
    arcs whose {e tail} is the non-conserving source: the arc flow is
    reduced to the new capacity and the resulting deficit at the arc's
    head is repaired by cancelling downstream flow forward to [sink]
    (or around flow-carrying cycles).  Used when a vertex's pattern
    degree drops and its source arc must shrink under committed flow.

    @raise Invalid_argument if [arc] is out of range or the deficit
    cannot be cancelled (impossible for a feasible flow, by flow
    decomposition). *)
val restore_arc_head : t -> sink:int -> int -> int

(** [restore_arc_full t ~s ~sink arc] repairs an {e internal} arc (both
    endpoints conserving) lowered under committed flow: flow that
    circulated around the arc (head-to-tail paths, i.e. broken cycles)
    is cancelled first — it can reach neither terminal — then the
    remaining deficit at the head is cancelled forward to [sink] as in
    {!restore_arc_head}, and the matching surplus at the tail drained
    back to [s] (or around cycles through the tail).  Used when
    retiring a pattern instance whose arcs still carry flow. *)
val restore_arc_full : t -> s:int -> sink:int -> int -> int

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

(** [recapacitate t ~base ~coef ~den ~num] re-aims the whole network
    at alpha = num/den in one pass over the arc arrays: every flow is
    zeroed and arc [e]'s capacity becomes
    [max (base.(e) * den + coef.(e) * num) 0] (an infinite base stays
    infinite).  Returns the sum of the finite capacities, so a caller
    can refuse a scale at which float flow sums stop being exact.  No
    allocation beyond the returned float; the index stays valid.

    @raise Invalid_argument if [base] or [coef] is shorter than
    {!arc_count}, [den <= 0] or [num < 0]. *)
val recapacitate :
  t -> base:float array -> coef:float array -> den:int -> num:int -> float

(** [flow_value t ~s] is the net outflow at [s] — the total value of
    the flow currently committed to the network, independent of how
    many solver calls accumulated it. *)
val flow_value : t -> s:int -> float

(** Tolerance under which a residual capacity counts as exhausted. *)
val eps : float
