type view = {
  nodes : int;
  start : int array;
  arcs : int array;
  dst : int array;
  cap : float array;
  flow : float array;
  level : int array;
  cursor : int array;
  lim : float array;
  got : float array;
}

type t = {
  mutable n : int;
  mutable m : int;                (* arc count: ids 0 .. m-1 are live *)
  (* Arc arrays, indexed by arc id; their length is a capacity >= m so
     appends are amortised O(1).  The twin of arc [e] is [e lxor 1]. *)
  mutable dst : int array;        (* arc -> head node *)
  mutable cap : float array;      (* arc -> capacity *)
  mutable flow : float array;     (* arc -> current flow (< 0 on twins) *)
  (* arc -> its capacity law max (base + coef * alpha, 0); (0, 0) on
     twins *)
  mutable base : float array;
  mutable coef : float array;
  sloped : Dsd_util.Vec.Int.t;    (* arcs created with coef <> 0, ascending *)
  (* The CSR index over the arrays above, plus the solvers' per-node
     scratch, valid iff [indexed].  Growth clears the flag; the next
     read rebuilds the index and grows the scratch (see [view]). *)
  mutable index : view;
  mutable indexed : bool;
  (* Scratch for the drain walks' path searches: a node is visited in
     the current search iff [drain_mark.(u) = drain_epoch], so starting
     a new search is one increment instead of an O(n) clear (or worse,
     an O(n) allocation) per drained path. *)
  mutable drain_mark : int array;
  mutable drain_epoch : int;
  (* The exact aim of the last [recapacitate], num/den, kept while the
     committed flow is a solve's flow (or zero) at those capacities and
     their finite sum [aim_sum] stays below 2^53; [aim_den = 0] once
     anything else may have written a capacity or a flow. *)
  mutable aim_den : int;
  mutable aim_num : int;
  mutable aim_sum : float;
}

let eps = Dsd_util.Float_guard.eps

let create ?(edges = 32) n =
  let len = max 2 (2 * edges) in
  let dst = Array.make len 0 and cap = Array.make len 0. in
  let flow = Array.make len 0. in
  {
    n;
    m = 0;
    dst;
    cap;
    flow;
    base = Array.make len 0.;
    coef = Array.make len 0.;
    sloped = Dsd_util.Vec.Int.create ();
    index =
      { nodes = 0; start = [||]; arcs = [||]; dst; cap; flow; level = [||];
        cursor = [||]; lim = [||]; got = [||] };
    indexed = false;
    drain_mark = [||];
    drain_epoch = 0;
    aim_den = 0;
    aim_num = 0;
    aim_sum = 0.;
  }

let node_count t = t.n
let edge_count t = t.m / 2
let arc_count t = t.m

let unaim t = t.aim_den <- 0

let add_node t =
  let id = t.n in
  t.n <- t.n + 1;
  t.indexed <- false;
  unaim t;
  id

let grow_arcs t =
  let grow a =
    let b = Array.make (2 * Array.length a) a.(0) in
    Array.blit a 0 b 0 t.m;
    b
  in
  t.dst <- grow t.dst;
  t.cap <- grow t.cap;
  t.flow <- grow t.flow;
  t.base <- grow t.base;
  t.coef <- grow t.coef

let check_cap fn cap =
  if not (cap >= 0.) then invalid_arg ("Flow_network." ^ fn ^ ": negative capacity")

let add_edge ?(coef = 0.) t ~src ~dst ~cap =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Flow_network.add_edge: node out of range";
  check_cap "add_edge" cap;
  let id = t.m in
  if id + 2 > Array.length t.dst then grow_arcs t;
  t.dst.(id) <- dst;
  t.cap.(id) <- cap;
  t.flow.(id) <- 0.;
  t.base.(id) <- cap;
  t.coef.(id) <- coef;
  t.dst.(id + 1) <- src;
  t.cap.(id + 1) <- 0.;
  t.flow.(id + 1) <- 0.;
  t.base.(id + 1) <- 0.;
  t.coef.(id + 1) <- 0.;
  if coef <> 0. then Dsd_util.Vec.Int.push t.sloped id;
  t.m <- id + 2;
  t.indexed <- false;
  unaim t;
  id

(* Counting sort of arc ids by tail ([dst] of the twin).  Filling each
   tail's segment from its end with descending ids leaves every segment
   in ascending id order — the order [add_edge] created the arcs in.
   The index and scratch arrays are reused while they fit and doubled
   when growth outruns them, so an arena that grows between solves
   rebuilds in place. *)
let rebuild_index t =
  let n = t.n and m = t.m in
  let old = t.index in
  let start =
    if Array.length old.start > n then old.start
    else Array.make (max (n + 1) (2 * Array.length old.start)) 0
  in
  let arcs =
    if Array.length old.arcs >= m then old.arcs
    else Array.make (max m (2 * Array.length old.arcs)) 0
  in
  let fits = Array.length old.level > n in
  let scratch = max (n + 1) (2 * Array.length old.level) in
  let level = if fits then old.level else Array.make scratch 0 in
  let cursor = if fits then old.cursor else Array.make scratch 0 in
  let lim = if fits then old.lim else Array.make scratch 0. in
  let got = if fits then old.got else Array.make scratch 0. in
  let dst = t.dst in
  Array.fill start 0 (n + 1) 0;
  for e = 0 to m - 1 do
    let u = dst.(e lxor 1) in
    start.(u) <- start.(u) + 1
  done;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  for e = m - 1 downto 0 do
    let u = dst.(e lxor 1) in
    let p = start.(u) - 1 in
    start.(u) <- p;
    arcs.(p) <- e
  done;
  let ix =
    { nodes = n; start; arcs; dst; cap = t.cap; flow = t.flow; level; cursor;
      lim; got }
  in
  t.index <- ix;
  t.indexed <- true;
  ix

let view t = if t.indexed then t.index else rebuild_index t

let check_arc fn t e =
  if e < 0 || e >= t.m then invalid_arg ("Flow_network." ^ fn ^ ": arc out of range")

let check_node fn t v =
  if v < 0 || v >= t.n then invalid_arg ("Flow_network." ^ fn ^ ": node out of range")

let arc_dst t e = check_arc "arc_dst" t e; t.dst.(e)
let arc_cap t e = check_arc "arc_cap" t e; t.cap.(e)
let arc_flow t e = check_arc "arc_flow" t e; t.flow.(e)

(* A capacity write makes the arc constant at the written value. *)
let write_cap t e cap =
  unaim t;
  t.cap.(e) <- cap;
  t.base.(e) <- cap;
  t.coef.(e) <- 0.

let set_cap t e cap =
  check_arc "set_cap" t e;
  check_cap "set_cap" cap;
  (* Lowering a capacity below flow already pushed through the arc
     would leave a negative residual the solvers never repair; that
     is [set_cap_warm]'s job. *)
  if cap +. eps < t.flow.(e) then
    invalid_arg "Flow_network.set_cap: capacity below committed flow";
  write_cap t e cap

let residual t e = check_arc "residual" t e; t.cap.(e) -. t.flow.(e)

let push t e f =
  check_arc "push" t e;
  unaim t;
  t.flow.(e) <- t.flow.(e) +. f;
  let twin = e lxor 1 in
  t.flow.(twin) <- t.flow.(twin) -. f

let iter_arcs_from t v ~f =
  check_node "iter_arcs_from" t v;
  let ix = view t in
  for i = ix.start.(v) to ix.start.(v + 1) - 1 do
    f ix.arcs.(i)
  done

let arcs_from t v =
  check_node "arcs_from" t v;
  let ix = view t in
  Array.sub ix.arcs ix.start.(v) (ix.start.(v + 1) - ix.start.(v))

let reset_flow t =
  unaim t;
  Array.fill t.flow 0 t.m 0.

(* Beyond this sum of finite capacities a float flow stops being
   exact, so no aim above it is kept. *)
let exact_limit = 0x1p53

(* Every law at num/den scaled by [den], every flow zeroed. *)
let aim_cold t ~den ~num =
  let den = float_of_int den and num = float_of_int num in
  let cap = t.cap and flow = t.flow and base = t.base and coef = t.coef in
  let sum = ref 0. in
  for e = 0 to t.m - 1 do
    let c = (base.(e) *. den) +. (coef.(e) *. num) in
    let c = if c > 0. then c else 0. in
    cap.(e) <- c;
    flow.(e) <- 0.;
    if c < infinity then sum := !sum +. c
  done;
  t.aim_sum <- !sum

(* The sloped arcs alone, re-aimed from the kept aim to [num] over the
   same [den].  Every capacity rises (the slopes are positive), so the
   flow stays feasible and the sum grows by the rises; a sum that
   crosses 2^53 still reads at least 2^53, since float sums of
   non-negative terms round monotonically.  False, leaving the arcs
   for [aim_cold] to rewrite, if some capacity would fall (a negative
   slope) or the sum reaches 2^53. *)
let aim_warm t ~den ~num =
  let den = float_of_int den and num = float_of_int num in
  let cap = t.cap and base = t.base and coef = t.coef in
  let sum = ref t.aim_sum and rises = ref true in
  for i = 0 to Dsd_util.Vec.Int.length t.sloped - 1 do
    let e = Dsd_util.Vec.Int.get t.sloped i in
    let c = (base.(e) *. den) +. (coef.(e) *. num) in
    let c = if c > 0. then c else 0. in
    if c < cap.(e) then rises := false
    else if c < infinity then sum := !sum +. (c -. cap.(e));
    cap.(e) <- c
  done;
  t.aim_sum <- !sum;
  !rises && !sum < exact_limit

let recapacitate t ~den ~num =
  if den <= 0 || num < 0 then
    invalid_arg "Flow_network.recapacitate: den <= 0 or num < 0";
  if den = t.aim_den && num >= t.aim_num && aim_warm t ~den ~num then
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_warm_starts
  else begin
    aim_cold t ~den ~num;
    t.aim_den <- (if t.aim_sum < exact_limit then den else 0)
  end;
  t.aim_num <- num;
  t.aim_sum

let flow_value t ~s =
  (* Net outflow at [s]: twins of arcs into [s] carry the negated
     incoming flow, so summing over every arc leaving [s] in the index
     yields outflow - inflow. *)
  check_node "flow_value" t s;
  let ix = view t in
  let total = ref 0. in
  for i = ix.start.(s) to ix.start.(s + 1) - 1 do
    total := !total +. t.flow.(ix.arcs.(i))
  done;
  !total

(* Walk from [u] to [dst] along arcs [a] with [sign *. flow a > eps].
   With [sign = 1.] that follows committed flow forwards; with
   [sign = -1.] it takes the residual twins of the arcs pushing flow
   *into* [u], i.e. walks the flow backwards to where it came from.
   The epoch mark persists across backtracking inside one search — a
   dead end stays dead because no flow changes mid-search. *)
let rec walk t ix ~sign ~dst u path =
  if u = dst then Some path
  else begin
    t.drain_mark.(u) <- t.drain_epoch;
    let stop = ix.start.(u + 1) in
    let result = ref None in
    let i = ref ix.start.(u) in
    while Option.is_none !result && !i < stop do
      let a = ix.arcs.(!i) in
      incr i;
      if sign *. t.flow.(a) > eps then begin
        let w = t.dst.(a) in
        if t.drain_mark.(w) <> t.drain_epoch then
          result := walk t ix ~sign ~dst w (a :: path)
      end
    done;
    !result
  end

(* Cancel up to [amount] units of flow along [walk] paths from [v] to
   [dst], one bottleneck per path.  With [cycles], once no path is
   left, flow circulating through [v] is cancelled around a cycle
   instead: the first arc of [v] the walk may take, closed back to
   [v].  Returns the paths used and the amount left, which exceeds
   [eps] only when the walks ran dry. *)
let cancel t ~sign ~dst ~cycles v amount =
  let ix = view t in
  if Array.length t.drain_mark < t.n then begin
    t.drain_mark <- Array.make t.n 0;
    t.drain_epoch <- 0
  end;
  let find_cycle () =
    let stop = ix.start.(v + 1) in
    let cycle = ref None in
    let i = ref ix.start.(v) in
    while Option.is_none !cycle && !i < stop do
      let a = ix.arcs.(!i) in
      incr i;
      if sign *. t.flow.(a) > eps then begin
        t.drain_epoch <- t.drain_epoch + 1;
        cycle := walk t ix ~sign ~dst:v t.dst.(a) [ a ]
      end
    done;
    !cycle
  in
  let remaining = ref amount in
  let paths = ref 0 in
  let dry = ref false in
  while (not !dry) && !remaining > eps do
    t.drain_epoch <- t.drain_epoch + 1;
    let path =
      match walk t ix ~sign ~dst v [] with
      | None when cycles -> find_cycle ()
      | p -> p
    in
    match path with
    | None -> dry := true
    | Some path ->
      let bottleneck =
        List.fold_left
          (fun acc a -> Float.min acc (sign *. t.flow.(a)))
          !remaining path
      in
      List.iter (fun a -> push t a (-.sign *. bottleneck)) path;
      remaining := !remaining -. bottleneck;
      incr paths
  done;
  (!paths, !remaining)

(* [cancel] where a feasible flow guarantees the walks cannot run dry. *)
let drain t ~sign ~dst ~cycles v amount =
  let paths, remaining = cancel t ~sign ~dst ~cycles v amount in
  if remaining > eps then
    invalid_arg "Flow_network: no flow-carrying path to drain along";
  paths

(* Pull arc [e] back under its capacity and restore conservation at
   whichever endpoints conserve.  A terminal absorbs its own imbalance,
   so an arc leaving the source only leaves a deficit at its head, and
   an arc into the sink only a surplus at its tail.  An internal arc
   leaves both.  Some of its flow may have circulated: the arc fed a
   path head -> ... -> tail that closed a cycle through it.  That flow
   can reach neither terminal, so it is cancelled first, each
   head -> tail path repairing one unit of both imbalances.  By flow
   decomposition the remainder splits into equal s -> tail and
   head -> sink parts: the deficit is cancelled forward to [sink] and
   then the surplus back to [s], each around cycles when no path is
   left.  The two drains may cross the same arcs, so their order is
   fixed here rather than left to evaluation order.  Returns the paths
   used, 0 when the arc was feasible. *)
let repair t ~s ~sink e =
  let excess = t.flow.(e) -. t.cap.(e) in
  if excess <= eps then 0
  else begin
    push t e (-.excess);
    let tail = t.dst.(e lxor 1) and head = t.dst.(e) in
    let terminal v = v = s || v = sink in
    let bridges, remaining =
      if terminal tail || terminal head then (0, excess)
      else cancel t ~sign:1. ~dst:tail ~cycles:false head excess
    in
    let deficit =
      if remaining <= eps || terminal head then 0
      else drain t ~sign:1. ~dst:sink ~cycles:true head remaining
    in
    let surplus =
      if remaining <= eps || terminal tail then 0
      else drain t ~sign:(-1.) ~dst:s ~cycles:true tail remaining
    in
    let paths = bridges + deficit + surplus in
    Dsd_obs.Counter.add Dsd_obs.Counter.Flow_excess_drained paths;
    paths
  end

let set_cap_warm t ~s ~sink e cap =
  check_arc "set_cap_warm" t e;
  check_cap "set_cap_warm" cap;
  write_cap t e cap;
  repair t ~s ~sink e

let retarget t ~s ~sink ~alpha =
  Dsd_obs.Span.with_ Dsd_obs.Phase.retarget @@ fun () ->
  Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_retargets;
  Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_warm_starts;
  unaim t;
  (* Only the sloped arcs move.  Each is re-aimed and repaired in
     turn: a drain walks committed flow, never capacities, so the
     order of the writes does not change the flow it leaves. *)
  Dsd_util.Vec.Int.iter
    (fun e ->
      let c = t.base.(e) +. (t.coef.(e) *. alpha) in
      t.cap.(e) <- (if c > 0. then c else 0.);
      ignore (repair t ~s ~sink e))
    t.sloped
