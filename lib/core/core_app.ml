module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type result = {
  subgraph : Density.subgraph;
  kmax : int;
  rounds : int;
  final_window : int;
  elapsed_s : float;
}

(* Upper bound gamma(v, Psi) on the clique-core number of v (line 1 of
   Algorithm 6). *)
let gamma g (psi : P.t) =
  match psi.kind with
  | P.Clique ->
    let kc = Kcore.decompose g in
    Array.init (G.n g) (fun v ->
        Dsd_util.Binom.choose (Kcore.core_number kc v) (psi.size - 1))
  | P.Star x -> Dsd_pattern.Special.star_degrees (Dsd_graph.Subgraph.of_graph g) ~x
  | P.Cycle4 -> Dsd_pattern.Special.c4_degrees (Dsd_graph.Subgraph.of_graph g)
  | P.Generic -> Dsd_pattern.Match.degrees g psi

let run ?initial_window g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.core_app @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let initial_window =
    match initial_window with
    | Some w -> max w (psi.size + 1)
    | None -> max 16 (psi.size + 1)
  in
  let bounds = gamma g psi in
  (* Vertices in decreasing gamma order; windows are prefixes. *)
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> compare bounds.(b) bounds.(a)) order;
  let kmax = ref 0 in
  let sstar = ref [||] in
  let rounds = ref 0 in
  let window = ref (min n initial_window) in
  let continue_ = ref (n > 0) in
  while !continue_ do
    incr rounds;
    Dsd_obs.Counter.incr Dsd_obs.Counter.Core_iterations;
    let w_vertices = Array.sub order 0 !window in
    let gw, map = G.induced g w_vertices in
    let decomp = Clique_core.decompose ~track_density:false gw psi in
    let kw = decomp.Clique_core.kmax in
    if kw >= !kmax && kw > 0 then begin
      kmax := kw;
      sstar := Array.map (fun v -> map.(v)) (Clique_core.kmax_core decomp)
    end;
    (* Stopping criterion (line 4): every vertex outside W has
       gamma < kmax, hence core number < kmax. *)
    if !window >= n then continue_ := false
    else if bounds.(order.(!window)) < !kmax then continue_ := false
    else window := min n (2 * !window)
  done;
  let subgraph =
    if Array.length !sstar = 0 then Density.empty
    else Density.of_vertices g psi !sstar
  in
  { subgraph;
    kmax = !kmax;
    rounds = !rounds;
    final_window = !window;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }
