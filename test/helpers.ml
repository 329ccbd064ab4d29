(* Shared oracles and fixtures for the test suite.

   Ground-truth oracles live in Dsd_check.Oracle (one implementation,
   shared with the fuzz engine); the aliases below keep the historical
   [Helpers.*] call sites working.

   Every randomized fixture honors the DSD_SEED environment variable:
   unset (or 0) reproduces the historical streams, any other value
   re-rolls the whole randomized tier.  Failure messages built with
   [seed_ctx] always name the seed — and the override, when one is
   active — so any failure is replayable. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

(* ---- oracles (Dsd_check.Oracle aliases) ---- *)

let slow_count = Dsd_check.Oracle.slow_count
let density_of_subset = Dsd_check.Oracle.density_of_subset
let brute_force_densest = Dsd_check.Oracle.brute_force_densest
let naive_core_numbers = Dsd_check.Oracle.naive_core_numbers

(* ---- seeding ---- *)

let env_seed =
  match Sys.getenv_opt "DSD_SEED" with
  | None | Some "" -> 0
  | Some s -> (
    match int_of_string_opt s with
    | Some v -> v
    | None -> invalid_arg "DSD_SEED must be an integer")

(* Mix the override into a suite-local seed.  The multiplier spreads
   consecutive DSD_SEED values far apart in seed space; 0 is the
   identity so default runs keep their historical streams. *)
let effective_seed seed = seed + (env_seed * 0x9e3779b1)

(* The seed part of a failure message: replay instructions included. *)
let seed_ctx seed =
  if env_seed = 0 then Printf.sprintf "seed=%d" seed
  else Printf.sprintf "seed=%d DSD_SEED=%d" seed env_seed

(* Deterministic PRNG for all randomized tests. *)
let rng seed = Dsd_util.Prng.create (effective_seed seed)

let random_graph ?(seed = 42) ~max_n ~max_m () =
  Dsd_data.Gen.random_graph_for_tests (rng seed) ~max_n ~max_m

(* ---- checkers ---- *)

(* Sorted-int-array checker. *)
let sorted_array = Alcotest.(testable (Fmt.Dump.array Fmt.int) ( = ))

let check_float = Alcotest.(check (float 1e-9))

(* A flat instance list as its rows, in order. *)
let rows (t : Dsd_clique.Instances.t) =
  List.init t.count (fun i -> Array.to_list (Dsd_clique.Instances.get t i))

(* Flat instance lists are equal when arity, count and every member
   agree, in order; a failure prints the rows. *)
let instances =
  let pp ppf (t : Dsd_clique.Instances.t) =
    Fmt.pf ppf "arity %d, %d instances: %a" t.arity t.count
      Fmt.(Dump.list (Dump.list int))
      (rows t)
  in
  Alcotest.testable pp ( = )

(* A [Flow_build] network aimed at the float [alpha]: built at
   alpha = 0, then warm-retargeted, which drains nothing on a network
   that carries no flow yet. *)
let network_at ?pinned family g psi ~instances ~alpha =
  let t = Dsd_core.Flow_build.prepare ?pinned family g psi ~instances in
  Dsd_flow.Flow_network.retarget t.net ~s:t.source ~sink:t.sink ~alpha;
  t

let int_array_as_set a =
  let l = Array.to_list a in
  List.sort_uniq compare l

(* qcheck -> alcotest bridging. *)
let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* A generator of small random graphs for qcheck properties.  The
   graph seed is re-rolled by DSD_SEED like every other fixture; the
   qcheck counterexample printer shows the graph itself, so failures
   stay replayable either way. *)
let small_graph_gen ?(max_n = 10) ?(max_m = 20) () =
  QCheck.Gen.(
    int_range 0 1_000_000 >|= fun seed ->
    Dsd_data.Gen.random_graph_for_tests
      (Dsd_util.Prng.create (effective_seed seed)) ~max_n ~max_m)

let small_graph_arb ?max_n ?max_m () =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" G.pp g)
    (small_graph_gen ?max_n ?max_m ())
