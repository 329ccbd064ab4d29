module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module CC = Clique_core

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
    Array.map
      (fun c -> Dsd_util.Binom.choose c (psi.size - 1))
      (Dsd_graph.Degeneracy.compute g).core
  | P.Star x -> Dsd_pattern.Special.star_degrees (Dsd_graph.Subgraph.of_graph g) ~x
  | P.Cycle4 -> Dsd_pattern.Special.c4_degrees (Dsd_graph.Subgraph.of_graph g)
  | P.Generic -> Dsd_pattern.Match.degrees g psi

let run ?initial_window g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.core_app @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let finish ~kmax ~rounds ~final_window vertices count =
    { subgraph =
        (if kmax = 0 then Density.empty else Density.of_count vertices count);
      kmax;
      rounds;
      final_window;
      elapsed_s = Dsd_util.Timer.now_s () -. t0 }
  in
  if psi.kind = P.Clique && psi.size = 2 then begin
    (* For edges gamma(v) is v's core number itself, so line 1's k-core
       pass already is the decomposition: one peel of G answers. *)
    Dsd_obs.Counter.incr Dsd_obs.Counter.Core_iterations;
    let d = CC.decompose ~track_density:false g psi in
    let core = CC.kmax_core d in
    finish ~kmax:d.kmax ~rounds:1 ~final_window:(Array.length core) core
      d.kmax_count
  end
  else begin
    let initial_window =
      match initial_window with
      | Some w -> max w (psi.size + 1)
      | None -> max 16 (psi.size + 1)
    in
    let bounds = gamma g psi in
    (* Vertices in decreasing gamma order; windows are prefixes. *)
    let order = Array.init n (fun v -> v) in
    Array.sort (fun a b -> compare bounds.(b) bounds.(a)) order;
    (* The first position past the gamma tie of position p. *)
    let tie_end p =
      let c = bounds.(order.(p)) in
      let q = ref p in
      while !q < n && bounds.(order.(!q)) = c do
        incr q
      done;
      !q
    in
    let kmax = ref 0 in
    let sstar = ref [||] and sstar_count = ref 0 in
    let rounds = ref 0 in
    (* Windows whose boundary provably fails the stop test are skipped
       (DESIGN.md §6): no window stops inside the top gamma tie, since
       kmax(W) <= max gamma. *)
    let window = ref (if n = 0 then 0 else max (min n initial_window) (tie_end 0)) in
    let continue_ = ref (n > 0) in
    while !continue_ do
      incr rounds;
      Dsd_obs.Counter.incr Dsd_obs.Counter.Core_iterations;
      let decomp, to_g =
        if !window = n then (CC.decompose ~track_density:false g psi, Fun.id)
        else begin
          let gw, map = G.induced g (Array.sub order 0 !window) in
          (CC.decompose ~track_density:false gw psi, Array.map (Array.get map))
        end
      in
      let kw = decomp.kmax in
      if kw >= !kmax && kw > 0 then begin
        kmax := kw;
        sstar := to_g (CC.kmax_core decomp);
        sstar_count := decomp.kmax_count
      end;
      (* Stopping criterion (line 4): every vertex outside W has
         gamma < kmax, hence core number < kmax.  After a failed
         boundary p, no boundary inside p's gamma tie can stop either:
         it would need kmax(W') > gamma(p), a core inside
         {gamma > gamma(p)}, which the failed window already held. *)
      let p = !window in
      if p >= n || bounds.(order.(p)) < !kmax then continue_ := false
      else window := min n (max (2 * p) (tie_end p))
    done;
    finish ~kmax:!kmax ~rounds:!rounds ~final_window:!window !sstar
      !sstar_count
  end
