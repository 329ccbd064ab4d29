module D = Dsd_graph.Digraph
module F = Dsd_flow.Flow_network

type result = {
  s_side : int array;
  t_side : int array;
  density : float;
  flows : int;
  elapsed_s : float;
}

let density g ~s ~t_side =
  let cards = Array.length s * Array.length t_side in
  if cards = 0 then 0.
  else
    float_of_int (D.edges_between g ~s ~t_side)
    /. sqrt (float_of_int cards)

(* Decision network for guess [g_val] and ratio [c]: maximise
   e(S,T) - p|S| - q|T| with p = g/(2 sqrt c), q = (g sqrt c)/2.
   Nodes: source, u1 (u in S?), v2 (v in T?), one AND node per arc,
   sink.  Min cut = m - max f; S/T are read off the source side. *)
let solve_decision g ~g_val ~c =
  let n = D.n g in
  let m = D.m g in
  let p = g_val /. (2. *. sqrt c) in
  let q = g_val *. sqrt c /. 2. in
  let size = 2 + (2 * n) + m in
  let net = F.create size in
  let source = 0 and sink = size - 1 in
  let s_node u = 1 + u in
  let t_node v = 1 + n + v in
  let arc_node i = 1 + (2 * n) + i in
  for u = 0 to n - 1 do
    ignore (F.add_edge net ~src:(s_node u) ~dst:sink ~cap:p);
    ignore (F.add_edge net ~src:(t_node u) ~dst:sink ~cap:q)
  done;
  let i = ref 0 in
  D.iter_arcs g ~f:(fun u v ->
      let a = arc_node !i in
      incr i;
      ignore (F.add_edge net ~src:source ~dst:a ~cap:1.);
      ignore (F.add_edge net ~src:a ~dst:(s_node u) ~cap:infinity);
      ignore (F.add_edge net ~src:a ~dst:(t_node v) ~cap:infinity));
  let _flow, side = Dsd_flow.Min_cut.solve net ~s:source ~t:sink in
  let s_side = Dsd_util.Vec.Int.create () in
  let t_side = Dsd_util.Vec.Int.create () in
  for u = 0 to n - 1 do
    if side.(s_node u) then Dsd_util.Vec.Int.push s_side u;
    if side.(t_node u) then Dsd_util.Vec.Int.push t_side u
  done;
  (Dsd_util.Vec.Int.to_array s_side, Dsd_util.Vec.Int.to_array t_side)

(* Binary search over the density guess for one ratio, tracking the
   best exactly-rescored witness. *)
let search_ratio g ~c ~upper ~flows ~best ~best_pair =
  (* Only densities beating the best witness so far matter, so later
     ratios start their search from it — after one good ratio the rest
     are usually a couple of failed probes each. *)
  let l = ref !best and u = upper in
  (* One probe at the current best decides whether this ratio can beat
     it at all; hopeless ratios cost a single min-cut. *)
  let hopeless =
    !best > 0.
    && begin
      incr flows;
      let s_side, t_side = solve_decision g ~g_val:!best ~c in
      if Array.length s_side = 0 || Array.length t_side = 0 then true
      else begin
        let d = density g ~s:s_side ~t_side in
        if d > !best then begin
          best := d;
          best_pair := (s_side, t_side);
          l := d
        end;
        false
      end
    end
  in
  (* Densities are e / sqrt(k): halve well below any separation at the
     supported graph sizes, in at most [iterations] probes.  The search
     runs while u - l > 1e-12 upper, i.e. u - l >= its float successor. *)
  let iterations = 60 in
  let steps = ref (if hopeless then iterations else 0) in
  let width = Float.succ (1e-12 *. upper) in
  Parametric.bisect
    ~gap:(fun () -> if !steps < iterations then width else infinity)
    ~l:!l ~u
    (fun g_val ->
      incr steps;
      incr flows;
      let s_side, t_side = solve_decision g ~g_val ~c in
      if Array.length s_side = 0 || Array.length t_side = 0 then None
      else begin
        let d = density g ~s:s_side ~t_side in
        if d > !best then begin
          best := d;
          best_pair := (s_side, t_side)
        end;
        (* The relaxation guarantees d > g_val on success (AM-GM), so
           the lower bound can jump to d. *)
        if d > g_val then Some (max d g_val) else None
      end)

let run_ratios g ratios =
  let t0 = Dsd_util.Timer.now_s () in
  let flows = ref 0 in
  let best = ref 0. in
  let best_pair = ref ([||], [||]) in
  let upper = float_of_int (max 1 (D.m g)) in
  List.iter
    (fun c -> search_ratio g ~c ~upper ~flows ~best ~best_pair)
    ratios;
  (* Degenerate fallback: a single best arc (density 1 for distinct
     endpoints) in case every search returned empty sides. *)
  if !best = 0. && D.m g > 0 then begin
    let done_ = ref false in
    D.iter_arcs g ~f:(fun u v ->
        if not !done_ then begin
          best_pair := ([| u |], [| v |]);
          best := 1.;
          done_ := true
        end)
  end;
  let s_side, t_side = !best_pair in
  let s_side = Array.copy s_side and t_side = Array.copy t_side in
  Array.sort compare s_side;
  Array.sort compare t_side;
  { s_side;
    t_side;
    density = !best;
    flows = !flows;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }

let exact ?(max_n = 64) g =
  let n = D.n g in
  if n > max_n then
    invalid_arg "Directed.exact: graph too large (use Directed.approx)";
  (* All realisable ratios |S|/|T| = a/b. *)
  let ratios = ref [] in
  for a = 1 to n do
    for b = 1 to n do
      ratios := (float_of_int a /. float_of_int b) :: !ratios
    done
  done;
  let ratios = List.sort_uniq compare !ratios in
  run_ratios g ratios

let approx ?(eps = 0.1) g =
  if not (eps > 0.) then invalid_arg "Directed.approx: eps must be positive";
  let n = max 2 (D.n g) in
  let nf = float_of_int n in
  let ratios = ref [] in
  let c = ref (1. /. nf) in
  while !c <= nf do
    ratios := !c :: !ratios;
    c := !c *. (1. +. eps)
  done;
  ratios := nf :: !ratios;
  run_ratios g !ratios
