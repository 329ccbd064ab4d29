(* exact_batch — an in-process script of exact analyses on five graphs
   of 1-4k vertices shaped like the paper's small datasets.

   Why: every operation ends in the parametric min-cut search, so
   build_network, retarget and flow do most of the work (flow alone
   about two thirds of op time); enumerate and decompose take the rest.
   The working set fits in L2.  It bypasses the serving layers (codec,
   socket, cache) and the incremental layer.

   Predictions:
   - a flow or search change (fewer search.probes, flow.augmentations,
     build_network.count) raises ops_per_s and lowers op_ms.p90 here;
     hierarchy and top-k carry the most probes, so the tail moves first;
   - a peel, enumerate or Instance_store change moves results here by
     at most the traced share of enumerate plus decompose;
   - a serving change moves nothing here. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Gen = Dsd_data.Gen
module Prng = Dsd_util.Prng
module D = Dsd_core.Density
module Oracle = Dsd_check.Oracle

type answer =
  | Sub of D.subgraph
  | Regions of D.subgraph list
  | Levels of Dsd_core.Ld_decomposition.level list

type kind =
  | Core_exact  (** Algorithm 4 *)
  | Core_pexact  (** CorePExact, Section 7.2 *)
  | Exact  (** Algorithm 1 *)
  | Query  (** query-vertex CDS, Section 6.3 *)
  | Topk  (** top-3 locally densest regions *)
  | Hierarchy  (** the density-friendly decomposition *)

(* One pass: (graph, [(kind, pattern)]).  Each operation costs roughly
   10-300 ms on the reference box, so no single one dominates. *)
let plan =
  let e = P.edge and t = P.triangle and c4 = P.clique 4 and d = P.diamond in
  [ ( "ssca_ns",
      [ (Core_exact, e); (Core_exact, t); (Core_exact, c4); (Exact, t);
        (Query, t); (Query, e); (Topk, t) ] );
    ( "ssca_hepth",
      [ (Core_exact, e); (Core_exact, t); (Core_exact, c4); (Exact, t);
        (Query, t); (Topk, t) ] );
    ( "ba_core",
      [ (Core_pexact, d); (Exact, e); (Query, e); (Topk, e); (Hierarchy, t);
        (Hierarchy, e) ] );
    ( "cl_complexes",
      [ (Core_exact, e); (Core_pexact, d); (Exact, e); (Query, e); (Topk, e);
        (Hierarchy, t) ] );
    ( "planted",
      [ (Core_pexact, d); (Exact, e); (Query, e); (Topk, e); (Hierarchy, t) ] )
  ]

(* Shapes with fixed generator seeds; the workload seed relabels them
   ({!Inputs}). *)
let shape = function
  | "ssca_ns" -> Gen.ssca ~seed:1601 ~n:1600 ~max_clique:9
  | "ssca_hepth" -> Gen.ssca ~seed:4001 ~n:4000 ~max_clique:8
  | "ba_core" -> Inputs.provider_core ~seed:1501 ~n:1500 ~attach:2 ~core:12
  | "cl_complexes" -> Inputs.complexes ~seed:1101 ~n:1100
  | "planted" -> fst (Gen.planted_clique_subset ~seed:2001 ~n:2000 ~p:0.003 ~block:14)
  | name -> invalid_arg ("exact_batch: unknown graph " ^ name)

(* A query vertex with at least one neighbour. *)
let query_vertex rng g =
  let rec draw k =
    let v = Prng.int rng (G.n g) in
    if G.degree g v > 0 || k = 0 then v else draw (k - 1)
  in
  draw 100

let kind_name = function
  | Core_exact -> "coreexact"
  | Core_pexact -> "corepexact"
  | Exact -> "exact"
  | Query -> "query"
  | Topk -> "topk3"
  | Hierarchy -> "hierarchy"

(* ---- answer checks (outside the measured region) ---- *)

let same_density ~what got want =
  if Int64.bits_of_float got = Int64.bits_of_float want then None
  else Some (Printf.sprintf "%s: %.17g, expected %.17g" what got want)

let first_some l = List.find_map Fun.id l

(* The reported density of a vertex set must be its re-derived one. *)
let oracle_density g psi (s : D.subgraph) =
  same_density ~what:"density of the returned set" s.density
    (Oracle.density_of_subset g psi s.vertices)

(* Reference CDS densities per (graph, pattern), from both exact paths,
   computed once per run. *)
let references () =
  let memo = Hashtbl.create 16 in
  fun path g gname psi ->
    let key = (path, gname, psi.P.name) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
      let d =
        match path with
        | `Core -> (Dsd_core.Core_exact.run g psi).subgraph.density
        | `Exact -> (Dsd_core.Exact.run g psi).subgraph.density
      in
      Hashtbl.add memo key d;
      d

let disjoint n (sets : int array list) =
  let seen = Array.make n false in
  List.for_all
    (fun vs ->
      Array.for_all
        (fun v ->
          let fresh = not seen.(v) in
          seen.(v) <- true;
          fresh)
        vs)
    sets

let check_topk g gname psi reference regions =
  let cds = reference `Core g gname psi in
  let densities = List.map (fun (r : D.subgraph) -> r.density) regions in
  first_some
    [ (match regions with
       | [] -> Some "no region returned"
       | r1 :: _ -> same_density ~what:"region 1 vs the CDS" r1.density cds);
      (if disjoint (G.n g) (List.map (fun (r : D.subgraph) -> r.vertices) regions)
       then None
       else Some "regions overlap");
      (if List.sort (fun a b -> Float.compare b a) densities = densities then None
       else Some "region densities increase");
      List.find_map (oracle_density g psi) regions ]

(* Levels partition V; each marginal is re-derived from slow instance
   counts of the prefixes; marginals strictly decrease; B1 is the CDS. *)
let check_hierarchy g gname psi reference levels =
  let cds = reference `Core g gname psi in
  let n = G.n g in
  let sets = List.map (fun (l : Dsd_core.Ld_decomposition.level) -> l.vertices) levels in
  let covered = List.fold_left (fun acc vs -> acc + Array.length vs) 0 sets in
  let rec marginals prefix mu_prev acc = function
    | [] -> None
    | (l : Dsd_core.Ld_decomposition.level) :: rest -> (
      let prefix = Array.append prefix l.vertices in
      let mu =
        Oracle.slow_count (fst (G.induced g prefix)) psi
      in
      let m = float_of_int (mu - mu_prev) /. float_of_int (Array.length l.vertices) in
      match
        first_some
          [ same_density ~what:"level marginal" l.marginal_density m;
            (match acc with
             | Some prev when not (m < prev) -> Some "marginals do not decrease"
             | _ -> None) ]
      with
      | Some why -> Some why
      | None -> marginals prefix mu (Some m) rest)
  in
  first_some
    [ (match levels with
       | [] -> Some "no level returned"
       | b1 :: _ -> same_density ~what:"B1 vs the CDS" b1.marginal_density cds);
      (if disjoint n sets && covered = n then None
       else Some "levels do not partition the vertices");
      marginals [||] 0 None levels ]

let check g gname kind psi query reference answer =
  match (kind, answer) with
  | (Core_exact | Core_pexact), Sub s ->
    first_some
      [ oracle_density g psi s;
        same_density ~what:"CDS vs Exact" s.density (reference `Exact g gname psi) ]
  | Exact, Sub s ->
    first_some
      [ oracle_density g psi s;
        same_density ~what:"Exact vs CoreExact" s.density
          (reference `Core g gname psi) ]
  | Query, Sub s ->
    let naive = (Dsd_core.Query_dsd.run_naive g psi ~query).subgraph.density in
    first_some
      [ (if Array.for_all (fun q -> Array.mem q s.vertices) query then None
         else Some "query vertex missing from the answer");
        oracle_density g psi s;
        same_density ~what:"query CDS vs the unrestricted search" s.density naive ]
  | Topk, Regions rs -> check_topk g gname psi reference rs
  | Hierarchy, Levels ls -> check_hierarchy g gname psi reference ls
  | _ -> Some "answer of the wrong shape"

let setup ~seed =
  let rng = Prng.create seed in
  let reference = references () in
  List.concat_map
    (fun (gname, ops) ->
      let g = Inputs.relabel rng (shape gname) in
      List.map
        (fun (kind, psi) ->
          let query = [| query_vertex rng g |] in
          let run () =
            match kind with
            | Core_exact -> Sub (Dsd_core.Core_exact.run g psi).subgraph
            | Core_pexact -> Sub (Dsd_core.Core_pexact.run g psi).subgraph
            | Exact -> Sub (Dsd_core.Exact.run g psi).subgraph
            | Query -> Sub (Dsd_core.Query_dsd.run g psi ~query).subgraph
            | Topk -> Regions (Dsd_core.Topk_lds.run ~k:3 g psi).regions
            | Hierarchy -> Levels (Dsd_core.Ld_decomposition.decompose g psi).levels
          in
          { Inproc.label =
              Printf.sprintf "%s/%s/%s" gname (kind_name kind) psi.P.name;
            run;
            check = check g gname kind psi query reference })
        ops)
    plan
  |> Array.of_list

let spec = { Inproc.setup; ops_per_s = 9. }
