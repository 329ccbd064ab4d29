(* approx_large — an in-process script of the approximations (PeelApp,
   IncApp, CoreApp, two Greedy++ rounds) and (k, Psi)-core numbers on
   four graphs of 24-33k vertices shaped like the paper's large
   datasets (SSCA, Chung-Lu, R-MAT, Barabási-Albert), for edge,
   triangle and 4-clique.

   Why: no operation builds a flow network, so enumerate, decompose and
   memory do all the work, on a working set well past L2.  It exercises
   Instance_store and the round-synchronous peel engine and bypasses
   build_network, retarget, flow and the serving layers.

   Predictions:
   - a peel, enumerate or Instance_store change moves ops_per_s,
     op_ms.p50 and rss_peak_mb here;
   - a flow or search change moves nothing here: build_network.count,
     flow.augmentations and search.probes stay 0;
   - a serving change moves nothing here. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Gen = Dsd_data.Gen
module Prng = Dsd_util.Prng
module D = Dsd_core.Density

type answer =
  | Sub of D.subgraph  (** PeelApp / IncApp / CoreApp *)
  | Greedy of D.subgraph * float array  (** best set, best-so-far per round *)
  | Cores of int array  (** (k, Psi)-core number per vertex *)

type kind = Peel | Inc_app | Core_app | Greedy_pp | Core_numbers

let kinds = [ Peel; Inc_app; Core_app; Greedy_pp; Core_numbers ]

let kind_name = function
  | Peel -> "peelapp"
  | Inc_app -> "incapp"
  | Core_app -> "coreapp"
  | Greedy_pp -> "greedy++2"
  | Core_numbers -> "cores"

(* Graphs and the patterns run on each.  R-MAT's skewed hubs make its
   4-clique peel several seconds long, so it runs edge and triangle
   only; every other operation costs 30-700 ms on the reference box. *)
let plan =
  let e = P.edge and t = P.triangle and c4 = P.clique 4 in
  [ ("ssca", [ e; t; c4 ]); ("chung_lu", [ e; t ]); ("rmat", [ e; t ]);
    ("ba", [ e; t; c4 ]) ]

(* Shapes with fixed generator seeds; the workload seed relabels them
   ({!Inputs}). *)
let shape = function
  | "ssca" -> Gen.ssca ~seed:24001 ~n:24_000 ~max_clique:10
  | "chung_lu" -> Gen.power_law_chung_lu ~seed:32001 ~n:32_000 ~alpha:2.3 ~avg_deg:8.
  | "rmat" -> Gen.rmat ~seed:32769 ~scale:15 ~edge_factor:3 ()
  | "ba" -> Gen.barabasi_albert ~seed:24003 ~n:24_000 ~attach:5
  | name -> invalid_arg ("approx_large: unknown graph " ^ name)

(* ---- answer checks (outside the measured region) ----

   Vertex sets here run to thousands of vertices, so densities are
   re-derived with the benchmark's own clique recount ({!Recount})
   rather than the oracle's naive lister. *)

let first_some l = List.find_map Fun.id l

let kmax_core (r : Dsd_core.Clique_core.t) =
  let out = ref [] in
  for v = Array.length r.core - 1 downto 0 do
    if r.core.(v) >= r.kmax then out := v :: !out
  done;
  Array.of_list !out

(* Theorem 1: every vertex of the (kmax, Psi)-core has Psi-degree
   >= kmax, so rho(core) >= kmax / |V_Psi|, and rho_opt <= kmax.  The
   kmax-core is a suffix of the peel order, so PeelApp, IncApp, CoreApp
   and Greedy++ all land in [kmax / |V_Psi|, kmax] — which, with
   rho_opt <= kmax, is the 1/|V_Psi| guarantee of Theorems 2-4. *)
let sandwich psi (r : Dsd_core.Clique_core.t) d =
  let lower = float_of_int r.kmax /. float_of_int psi.P.size in
  if d >= lower && d <= float_of_int r.kmax then None
  else
    Some
      (Printf.sprintf "density %.17g outside [kmax/|V_Psi|, kmax] = [%g, %d]" d
         lower r.kmax)

let recounted g psi (s : D.subgraph) =
  let d = Recount.density g s.vertices psi.P.size in
  if Int64.bits_of_float d = Int64.bits_of_float s.density then None
  else Some (Printf.sprintf "reported %.17g, re-derived %.17g" s.density d)

(* [reference] is the density-tracked core decomposition of (g, psi):
   core numbers, kmax and PeelApp's best residual density rho'. *)
let check g psi reference kind answer =
  let r : Dsd_core.Clique_core.t = Lazy.force reference in
  match (kind, answer) with
  | Peel, Sub s ->
    first_some
      [ recounted g psi s;
        sandwich psi r s.density;
        (if s.density = r.best_residual_density then None
         else Some "differs from the decomposition's best residual") ]
  | (Inc_app | Core_app), Sub s ->
    first_some
      [ (if s.vertices = kmax_core r then None else Some "not the (kmax, Psi)-core");
        recounted g psi s;
        sandwich psi r s.density ]
  | Greedy_pp, Greedy (s, rounds) ->
    let sorted = Array.copy rounds in
    Array.sort Float.compare sorted;
    first_some
      [ recounted g psi s;
        sandwich psi r s.density;
        (if s.density >= r.best_residual_density then None
         else Some "worse than PeelApp");
        (if sorted = rounds then None else Some "best-so-far densities decrease") ]
  | Core_numbers, Cores core ->
    let degrees = Recount.degrees g (kmax_core r) psi.P.size in
    let low = Array.fold_left min max_int degrees in
    first_some
      [ (if core = r.core then None
         else Some "differs from the density-tracked decomposition");
        (if low >= r.kmax then None
         else Some (Printf.sprintf "kmax-core min degree %d < kmax %d" low r.kmax)) ]
  | _ -> Some "answer of the wrong shape"

let setup ~seed =
  let rng = Prng.create seed in
  List.concat_map
    (fun (gname, psis) ->
      let g = Inputs.relabel rng (shape gname) in
      List.concat_map
        (fun psi ->
          let reference =
            lazy (Dsd_core.Clique_core.decompose ~track_density:true g psi)
          in
          List.map
            (fun kind ->
              let run () =
                match kind with
                | Peel -> Sub (Dsd_core.Peel_app.run g psi).subgraph
                | Inc_app -> Sub (Dsd_core.Inc_app.run g psi).subgraph
                | Core_app -> Sub (Dsd_core.Core_app.run g psi).subgraph
                | Greedy_pp ->
                  let r = Dsd_core.Greedy_pp.run ~rounds:2 g psi in
                  Greedy (r.subgraph, r.densities)
                | Core_numbers -> Cores (Dsd_core.Api.core_numbers g psi)
              in
              { Inproc.label =
                  Printf.sprintf "%s/%s/%s" gname (kind_name kind) psi.P.name;
                run;
                check = check g psi reference kind })
            kinds)
        psis)
    plan
  |> Array.of_list

let spec = { Inproc.setup; ops_per_s = 8.5 }
