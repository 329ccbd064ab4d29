module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type result = {
  subgraph : Density.subgraph;
  sampled_instances : int;
  total_instances : int;
  elapsed_s : float;
}

(* Greedy peel over an arbitrary instance multiset on [n] vertices,
   returning the best residual vertex suffix under the *sampled*
   density. *)
let peel_sampled ~n (instances : Dsd_clique.Instances.t) =
  let store = Dsd_clique.Instance_store.create ~n instances in
  let max_deg = ref 1 in
  for v = 0 to n - 1 do
    max_deg := max !max_deg (Dsd_clique.Instance_store.degree store v)
  done;
  let queue = Dsd_util.Bucket_queue.create ~n ~max_key:!max_deg in
  for v = 0 to n - 1 do
    Dsd_util.Bucket_queue.add queue ~item:v
      ~key:(Dsd_clique.Instance_store.degree store v)
  done;
  let order = Array.make n 0 in
  let mu_live = ref instances.count in
  let best = ref (float_of_int !mu_live /. float_of_int (max 1 n)) in
  let best_start = ref 0 in
  for i = 0 to n - 1 do
    match Dsd_util.Bucket_queue.pop_min queue with
    | None -> assert false
    | Some (v, _) ->
      order.(i) <- v;
      let killed =
        Dsd_clique.Instance_store.kill_vertex store v ~on_comember:(fun u ->
            if Dsd_util.Bucket_queue.mem queue u then
              Dsd_util.Bucket_queue.update queue ~item:u
                ~key:(Dsd_clique.Instance_store.degree store u))
      in
      mu_live := !mu_live - killed;
      if i < n - 1 then begin
        let d = float_of_int !mu_live /. float_of_int (n - i - 1) in
        if d > !best then begin
          best := d;
          best_start := i + 1
        end
      end
  done;
  Array.sub order !best_start (n - !best_start)

let run ?(core_first = true) ~seed ~p g (psi : P.t) =
  if not (p > 0. && p <= 1.) then invalid_arg "Sampled_app.run: p must be in (0, 1]";
  let t0 = Dsd_util.Timer.now_s () in
  let rng = Dsd_util.Prng.create seed in
  (* Candidate region: the whole graph, or the core certified to
     contain the CDS. *)
  let region, map =
    if core_first then begin
      let decomp = Clique_core.decompose ~track_density:false g psi in
      let k =
        (decomp.Clique_core.kmax + psi.size - 1) / psi.size   (* ceil(kmax/p) *)
      in
      G.induced g (Clique_core.core_vertices decomp ~k)
    end
    else (g, Array.init (G.n g) Fun.id)
  in
  let all = Enumerate.instances region psi in
  let sample =
    Dsd_clique.Instances.filter all ~keep:(fun _ ->
        Dsd_util.Prng.float rng 1.0 < p)
  in
  let subgraph =
    if sample.count = 0 then Density.empty
    else begin
      let local = peel_sampled ~n:(G.n region) sample in
      (* Re-score the candidate against the full graph. *)
      Density.of_vertices g psi (Array.map (fun v -> map.(v)) local)
    end
  in
  { subgraph;
    sampled_instances = sample.count;
    total_instances = all.count;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }
