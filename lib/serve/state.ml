module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Counter = Dsd_obs.Counter

(* Per-(graph, psi) prepared state.  Everything here is a pure function
   of (graph, psi), computed at most once per server lifetime:
   [instances] feeds Exact and the PDS flow builders, [decomp] (with
   density tracking, the strongest mode) drops into CoreExact, Query
   and the decompose endpoint alike, and [exact_prepared] keeps Exact's
   whole-graph flow network so repeat solves only re-capacitate it. *)
type psi_state = {
  psi : P.t;
  graph : G.t;
  instances : Dsd_clique.Instances.t Lazy.t;
  decomp : Dsd_core.Clique_core.t Lazy.t;
  exact_prepared : Dsd_core.Flow_build.t option ref;
  hierarchy : Dsd_core.Ld_decomposition.t Lazy.t;
      (* the full chain, computed once; per-request level truncation
         happens at response time (and in the result LRU, keyed by the
         requested level count) *)
}

(* [g] is the graph as registered; [dyn] is the graph's one mutable
   handle, created from [g] by the first delta or the first incremental
   session ([dynamic]).  The current graph is then its CSR snapshot,
   which [Dynamic] caches between changes and builds only when a
   request reads it (a psi-state, a new incremental session), never on
   a delta.  [incs] holds the per-psi incremental sessions, all
   attached to [dyn] and read no copy of it: apply-delta changes the
   handle once per edge and patches every session with it, never
   dropping one.  [psis] caches are a pure function of the snapshot,
   so a delta resets them; [incs] survives. *)
type graph_state = {
  g : G.t;
  psis : (string, psi_state) Hashtbl.t;
  mutable dyn : Dsd_graph.Dynamic.t option;
  incs : (string, Dsd_core.Inc_dsd.t) Hashtbl.t;
}

type t = {
  names : string list;  (* registration order, for the stats endpoint *)
  tbl : (string, graph_state) Hashtbl.t;
  results : Protocol.response Lru.t;
}

let create ~max_cached graphs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, g) ->
      if Hashtbl.mem tbl name then
        invalid_arg (Printf.sprintf "State.create: duplicate graph %s" name);
      Hashtbl.add tbl name
        { g; psis = Hashtbl.create 8; dyn = None; incs = Hashtbl.create 4 })
    graphs;
  { names = List.map fst graphs;
    tbl;
    results = Lru.create ~capacity:max_cached }

let current (gs : graph_state) =
  match gs.dyn with
  | None -> gs.g
  | Some d -> Dsd_graph.Dynamic.snapshot d

let graphs t =
  List.map (fun name -> (name, current (Hashtbl.find t.tbl name))) t.names

(* [n] and [m] of the current graph, read without a snapshot. *)
let size (gs : graph_state) =
  match gs.dyn with
  | None -> (G.n gs.g, G.m gs.g)
  | Some d -> (Dsd_graph.Dynamic.n d, Dsd_graph.Dynamic.m d)

let psi_state (gs : graph_state) (psi : P.t) =
  let key = psi.P.name in
  match Hashtbl.find_opt gs.psis key with
  | Some ps -> ps
  | None ->
    let g = current gs in
    let ps =
      { psi;
        graph = g;
        instances = lazy (Dsd_core.Enumerate.instances g psi);
        decomp = lazy (Dsd_core.Clique_core.decompose ~track_density:true g psi);
        exact_prepared = ref None;
        hierarchy = lazy (Dsd_core.Ld_decomposition.decompose g psi) }
    in
    Hashtbl.add gs.psis key ps;
    ps

let clear_results t = Lru.clear t.results

(* Every cacheable request makes exactly one [Lru.find], so the LRU's
   own hit/miss tallies are the request accounting. *)
let cache_stats t =
  let hits = Lru.hits t.results and misses = Lru.misses t.results in
  [ ("capacity", Lru.capacity t.results);
    ("entries", Lru.length t.results);
    ("requests", hits + misses);
    ("hits", hits);
    ("misses", misses);
    ("evictions", Lru.evictions t.results) ]

(* ---- validation ---- *)

let errorf fmt = Printf.ksprintf (fun s -> Protocol.Error_r s) fmt

let with_graph t graph f =
  match Hashtbl.find_opt t.tbl graph with
  | None ->
    errorf "unknown graph %s (serving: %s)" graph (String.concat ", " t.names)
  | Some gs -> f gs

let with_pattern t ~graph ~psi f =
  with_graph t graph (fun gs ->
      match P.of_string psi with
      | None -> errorf "unknown pattern %s (see 'dsd patterns')" psi
      | Some p -> f gs p)

let with_psi t ~graph ~psi f =
  with_pattern t ~graph ~psi (fun gs p -> f (psi_state gs p))

(* ---- solvers ---- *)

let dynamic (gs : graph_state) =
  match gs.dyn with
  | Some d -> d
  | None ->
    let d = Dsd_graph.Dynamic.of_graph gs.g in
    gs.dyn <- Some d;
    d

(* The per-(graph, psi) incremental session: attached once to the
   graph's handle, then patched in place by apply-delta — across deltas
   it keeps its flow arena warm, which is its whole point. *)
let inc_session (gs : graph_state) (psi : P.t) =
  match Hashtbl.find_opt gs.incs psi.P.name with
  | Some s -> s
  | None ->
    let s = Dsd_core.Inc_dsd.attach (dynamic gs) psi in
    Hashtbl.add gs.incs psi.P.name s;
    s

let densest_static (ps : psi_state) algorithm =
  let g = ps.graph and psi = ps.psi in
  match algorithm with
  | "exact" ->
    let family = Dsd_core.Flow_build.auto_family psi in
    let instances =
      match family with
      | Dsd_core.Flow_build.Eds -> None  (* never enumerated by Exact *)
      | _ -> Some (Lazy.force ps.instances)
    in
    Ok
      (Dsd_core.Exact.run ?instances ~prepared:ps.exact_prepared g psi)
        .Dsd_core.Exact.subgraph
  | "coreexact" ->
    Ok
      (Dsd_core.Core_exact.run ~decomp:(Lazy.force ps.decomp) g psi)
        .Dsd_core.Core_exact.subgraph
  | "peel" ->
    Ok (Dsd_core.Api.densest_subgraph ~psi ~algorithm:Dsd_core.Api.Peel g)
  | "incapp" ->
    Ok (Dsd_core.Api.densest_subgraph ~psi ~algorithm:Dsd_core.Api.Inc_app g)
  | "coreapp" ->
    Ok (Dsd_core.Api.densest_subgraph ~psi ~algorithm:Dsd_core.Api.Core_app g)
  | other -> Error (errorf "unknown algorithm %s" other)

(* An incremental read creates no psi-state, so it never builds the
   snapshot of a moved graph. *)
let densest (gs : graph_state) (psi : P.t) algorithm =
  match String.lowercase_ascii algorithm with
  | "incremental" -> (
    try Ok (Dsd_core.Inc_dsd.query (inc_session gs psi))
    with Invalid_argument msg -> Error (errorf "%s" msg))
  | other -> densest_static (psi_state gs psi) other

(* The apply-delta endpoint: change the graph's handle and patch every
   live incremental session with the same ops, adds then removes, and
   invalidate only this graph's derived state — its (graph, psi)
   prepared caches and its result-LRU entries.  The changed handle
   drops its cached snapshot; none is built here, so a delta costs the
   edge changes and the session patches, not a CSR rebuild.  Other
   graphs' cached results stay resident (and keep hitting). *)
let apply_delta t ~graph ~adds ~removes =
  with_graph t graph @@ fun gs ->
  let n = G.n gs.g in
  let bad (u, v) = u < 0 || u >= n || v < 0 || v >= n in
  if Array.exists bad adds || Array.exists bad removes then
    errorf "delta vertex out of range (graph has %d vertices)" n
  else begin
    let dyn = dynamic gs in
    let sessions = Hashtbl.fold (fun _ s acc -> s :: acc) gs.incs [] in
    let apply op pairs =
      Dsd_core.Inc_dsd.apply_all dyn sessions (Array.map op pairs)
    in
    let added = apply (fun (u, v) -> Dsd_graph.Dynamic.Add (u, v)) adds in
    let removed =
      apply (fun (u, v) -> Dsd_graph.Dynamic.Remove (u, v)) removes
    in
    Hashtbl.reset gs.psis;
    ignore
      (Lru.remove_where t.results ~f:(fun key ->
           Protocol.key_graph key = Some graph));
    Protocol.Apply_delta_r
      { n; m = Dsd_graph.Dynamic.m dyn; added; removed }
  end

(* Every request kind's answer, uncached. *)
let compute t (req : Protocol.request) : Protocol.response =
  match req with
  | Ping -> Pong
  | Shutdown -> Shutdown_r
  | Stats ->
    Stats_r
      { counters = Counter.snapshot ();
        cache = cache_stats t;
        graphs =
          List.map
            (fun name ->
              let n, m = size (Hashtbl.find t.tbl name) in
              Printf.sprintf "%s n=%d m=%d" name n m)
            t.names }
  | Apply_delta { graph; adds; removes } -> apply_delta t ~graph ~adds ~removes
  | Density { graph; psi; algorithm } ->
    with_pattern t ~graph ~psi (fun gs p ->
        match densest gs p algorithm with
        | Error e -> e
        | Ok sg -> Density_r sg.Dsd_core.Density.density)
  | Cds { graph; psi; algorithm } ->
    with_pattern t ~graph ~psi (fun gs p ->
        match densest gs p algorithm with
        | Error e -> e
        | Ok sg ->
          Cds_r
            { density = sg.Dsd_core.Density.density;
              vertices = sg.Dsd_core.Density.vertices })
  | Decompose { graph; psi } ->
    with_psi t ~graph ~psi (fun ps ->
        let d = Lazy.force ps.decomp in
        Decompose_r
          { kmax = d.Dsd_core.Clique_core.kmax;
            core = Array.copy d.Dsd_core.Clique_core.core })
  | Query { graph; psi; vertices } ->
    with_psi t ~graph ~psi (fun ps ->
        let n = G.n ps.graph in
        if Array.length vertices = 0 then
          errorf "query needs at least one vertex"
        else if Array.exists (fun v -> v < 0 || v >= n) vertices then
          errorf "query vertex out of range (graph has %d vertices)" n
        else begin
          let r =
            Dsd_core.Query_dsd.run ~decomp:(Lazy.force ps.decomp)
              ps.graph ps.psi ~query:vertices
          in
          let sg = r.Dsd_core.Query_dsd.subgraph in
          Query_r
            { density = sg.Dsd_core.Density.density;
              vertices = sg.Dsd_core.Density.vertices }
        end)
  | Topk { graph; psi; k } ->
    with_psi t ~graph ~psi (fun ps ->
        if k < 1 then errorf "topk needs k >= 1 (got %d)" k
        else begin
          let r =
            Dsd_core.Topk_lds.run ~decomp:(Lazy.force ps.decomp)
              ~k ps.graph ps.psi
          in
          Topk_r
            { regions =
                List.map
                  (fun (sg : Dsd_core.Density.subgraph) ->
                    (sg.density, sg.vertices))
                  r.Dsd_core.Topk_lds.regions }
        end)
  | Hierarchy { graph; psi; levels } ->
    with_psi t ~graph ~psi (fun ps ->
        if levels < 0 then
          errorf "hierarchy needs levels >= 0 (got %d)" levels
        else begin
          let d = Lazy.force ps.hierarchy in
          let all =
            List.map
              (fun (lvl : Dsd_core.Ld_decomposition.level) ->
                (lvl.marginal_density, lvl.vertices))
              d.Dsd_core.Ld_decomposition.levels
          in
          let rec take k = function
            | x :: rest when k > 0 -> x :: take (k - 1) rest
            | _ -> []
          in
          Hierarchy_r
            { levels = (if levels = 0 then all else take levels all) }
        end)

(* Only successful answers enter the LRU: errors are cheap to recompute
   and must not shadow a graph registered later under the same name. *)
let cacheable_ok = function
  | Protocol.Error_r _ -> false
  | _ -> true

let handle_cached t req key =
  Counter.incr Counter.Serve_requests;
  match Lru.find t.results key with
  | Some resp ->
    Counter.incr Counter.Serve_cache_hits;
    resp
  | None ->
    Counter.incr Counter.Serve_cache_misses;
    let resp = compute t req in
    if cacheable_ok resp then begin
      match Lru.add t.results key resp with
      | Some _evicted -> Counter.incr Counter.Serve_cache_evictions
      | None -> ()
    end;
    resp

(* The result LRU holds exactly what [Protocol.request_key] keys. *)
let handle t req =
  match Protocol.request_key req with
  | None -> compute t req
  | Some key ->
    Dsd_obs.Span.with_ Dsd_obs.Phase.serve_request (fun () ->
        handle_cached t req key)
