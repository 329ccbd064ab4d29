(* The metamorphic fuzzing subsystem, tested deterministically — and
   the harness harnessed: a mutation self-test injects deliberately
   broken algorithms and requires the engine to catch, shrink, and
   replay them. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Check = Dsd_check
module Engine = Dsd_check.Engine
module Relation = Dsd_check.Relation
module Subject = Dsd_check.Subject
module Generator = Dsd_check.Generator

let base_seed = Helpers.effective_seed 2024

(* ---- the real library survives the fuzzer ---- *)

let test_default_subject_passes () =
  let s = Engine.run ~cases:60 ~seed:base_seed () in
  (match s.Engine.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "relation %s violated (%s, case %d): %s" f.relation
      (Helpers.seed_ctx f.case_seed) f.case_index f.message);
  Alcotest.(check int) "all cases ran" 60 s.Engine.cases_run;
  (* Every relation must actually engage — a registry entry that only
     ever skips would be dead weight giving false confidence. *)
  List.iter
    (fun (st : Engine.relation_stats) ->
      if st.checked = 0 then
        Alcotest.failf "relation %s never applied in 60 cases" st.relation)
    s.Engine.stats

let test_engine_deterministic () =
  let a = Engine.run ~cases:30 ~seed:base_seed () in
  let b = Engine.run ~cases:30 ~seed:base_seed () in
  Alcotest.(check string)
    "same seed, same summary"
    (Engine.summary_to_string a)
    (Engine.summary_to_string b)

let test_time_budget () =
  let s = Engine.run ~time_budget_s:0. ~cases:50 ~seed:base_seed () in
  Alcotest.(check bool) "stopped on budget" true s.Engine.out_of_time;
  Alcotest.(check int) "no case started" 0 s.Engine.cases_run

let test_unknown_relation_rejected () =
  match Engine.run ~relation:"no-such-relation" ~cases:1 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown relation accepted"

(* Reproducer seeds must survive refactors: the hash is pinned, not
   just self-consistent. *)
let test_stable_hash_pinned () =
  Alcotest.(check int) "theorem1-bounds" 202694906
    (Engine.stable_hash "theorem1-bounds");
  Alcotest.(check int) "approx-ratio" 275443683
    (Engine.stable_hash "approx-ratio")

(* ---- generators ---- *)

let test_generators_deterministic () =
  List.iter
    (fun (gen : Generator.t) ->
      let c1 = gen.sample (Helpers.rng 7) in
      let c2 = gen.sample (Helpers.rng 7) in
      Alcotest.(check bool)
        (gen.name ^ ": same prng state, same graph")
        true
        (G.equal c1.graph c2.graph && c1.psi.P.name = c2.psi.P.name))
    Generator.all

let test_planted_certificate_is_sound () =
  (* The planted block really is a lower bound: compare against brute
     force on small instances. *)
  for seed = 0 to 9 do
    let case = Generator.planted_block.sample (Helpers.rng seed) in
    match case.cert with
    | None -> Alcotest.fail "planted generator lost its certificate"
    | Some vs ->
      let witness = Check.Oracle.density_of_subset case.graph case.psi vs in
      let h = case.psi.P.size in
      let b = Array.length vs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: planted density >= C(%d,%d)/%d"
           (Helpers.seed_ctx seed) b h b)
        true
        (witness
         >= (Dsd_util.Binom.choose_float b h /. float_of_int b) -. 1e-9);
      if G.n case.graph <= 14 then begin
        let opt, _ = Check.Oracle.brute_force_densest case.graph case.psi in
        Alcotest.(check bool)
          (Printf.sprintf "%s: witness below optimum" (Helpers.seed_ctx seed))
          true
          (witness <= opt +. 1e-9)
      end
  done

(* ---- the shrinker on a relation-free predicate ---- *)

let test_shrinker_minimises_triangle () =
  (* "Contains a triangle" shrinks to exactly K3. *)
  let graph, _ =
    Dsd_data.Gen.planted_clique_subset ~seed:5 ~n:14 ~p:0.3 ~block:5
  in
  let case =
    { Generator.graph; psi = P.triangle; cert = None; label = "shrink-test" }
  in
  let still_fails (c : Generator.case) =
    Dsd_check.Naive.count c.graph ~h:3 > 0
  in
  let shrunk, steps = Check.Shrink.run ~still_fails case in
  Alcotest.(check int) "three vertices" 3 (G.n shrunk.graph);
  Alcotest.(check int) "three edges" 3 (G.m shrunk.graph);
  Alcotest.(check bool) "made progress" true (steps > 0)

let test_shrinker_remaps_certificates () =
  let case =
    {
      Generator.graph = G.of_edge_list ~n:5 [ (0, 1); (1, 4); (2, 3) ];
      psi = P.edge;
      cert = Some [| 1; 2; 4 |];
      label = "cert-remap";
    }
  in
  let shrunk = Check.Shrink.remove_vertex case 2 in
  Alcotest.(check int) "n down by one" 4 (G.n shrunk.graph);
  Alcotest.(check Helpers.sorted_array)
    "cert drops 2, shifts 4 down"
    [| 1; 3 |]
    (Option.get shrunk.cert)

(* ---- mutation self-test: broken implementations are caught ---- *)

let broken_peel =
  let d = Subject.default in
  {
    d with
    Subject.name = "broken-peel";
    peel =
      (fun g psi ->
        let r = d.Subject.peel g psi in
        { r with Dsd_core.Density.density = (r.density *. 1.5) +. 0.1 });
  }

let broken_cores =
  let d = Subject.default in
  {
    d with
    Subject.name = "broken-cores";
    core_numbers =
      (fun g psi -> Array.map (fun c -> c + 1) (d.Subject.core_numbers g psi));
  }

let find_violation subject =
  let s = Engine.run ~subject ~cases:200 ~seed:base_seed () in
  match s.Engine.failure with
  | None ->
    Alcotest.failf "%s not caught within 200 cases" subject.Subject.name
  | Some f -> f

let test_mutation_broken_peel_caught () =
  let f = find_violation broken_peel in
  Alcotest.(check string) "caught by the approximation-ratio oracle"
    "approx-ratio" f.Engine.relation;
  Alcotest.(check bool)
    (Printf.sprintf "witness shrunk to <= 12 vertices (got %d)"
       (G.n f.Engine.shrunk.graph))
    true
    (G.n f.Engine.shrunk.graph <= 12)

let test_mutation_broken_cores_caught () =
  let f = find_violation broken_cores in
  Alcotest.(check string) "caught by the Theorem 1 oracle"
    "theorem1-bounds" f.Engine.relation;
  Alcotest.(check bool) "witness shrunk to <= 12 vertices" true
    (G.n f.Engine.shrunk.graph <= 12)

(* The emitted reproducer must replay the identical failure through a
   real file on disk. *)
let test_reproducer_replays_bit_identically () =
  let f = find_violation broken_peel in
  let path = Filename.temp_file "dsd_fuzz" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Check.Repro.write path (Engine.to_repro f);
      let repro = Check.Repro.read path in
      Alcotest.(check string) "relation survives the file" f.Engine.relation
        repro.Check.Repro.relation;
      Alcotest.(check int) "aux seed survives the file" f.Engine.aux_seed
        repro.Check.Repro.seed;
      match Engine.replay ~subject:broken_peel repro with
      | Relation.Fail msg ->
        Alcotest.(check string) "bit-identical violation message"
          f.Engine.message msg
      | Relation.Pass | Relation.Skip _ ->
        Alcotest.fail "reproducer no longer fails");
  (* And the fixed library passes the same reproducer. *)
  let repro = Engine.to_repro f in
  match Engine.replay repro with
  | Relation.Pass | Relation.Skip _ -> ()
  | Relation.Fail msg ->
    Alcotest.failf "real library fails the broken-peel witness: %s" msg

let test_repro_roundtrip () =
  for seed = 0 to 4 do
    let case = Generator.sample (Helpers.rng (300 + seed)) in
    let t = Check.Repro.of_case ~relation:"theorem1-bounds" ~seed case in
    let path = Filename.temp_file "dsd_fuzz" ".repro" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Check.Repro.write path t;
        let back = Check.Repro.to_case (Check.Repro.read path) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: graph survives write/read"
             (Helpers.seed_ctx seed))
          true
          (G.equal case.graph back.Generator.graph);
        Alcotest.(check string) "psi survives" case.psi.P.name
          back.Generator.psi.P.name;
        Alcotest.(check bool) "cert survives" true
          (case.cert = back.Generator.cert))
  done

(* ---- individual relations on crafted inputs ---- *)

let run_relation name case =
  match Relation.find name with
  | None -> Alcotest.failf "relation %s missing from registry" name
  | Some rel ->
    rel.Relation.check Subject.default ~rng:(Helpers.rng 11) case

let crafted =
  {
    Generator.graph =
      fst (Dsd_data.Gen.planted_clique_subset ~seed:9 ~n:12 ~p:0.15 ~block:4);
    psi = P.triangle;
    cert = None;
    label = "crafted";
  }

let test_each_relation_passes_on_crafted () =
  List.iter
    (fun name ->
      match run_relation name crafted with
      | Relation.Fail msg -> Alcotest.failf "%s failed: %s" name msg
      | Relation.Pass | Relation.Skip _ -> ())
    Relation.names

let test_relation_verdicts () =
  (* Complete graph: edge-monotonicity must skip, everything else must
     still pass. *)
  let complete =
    { Generator.graph = G.complete 6; psi = P.edge; cert = None;
      label = "K6" }
  in
  (match run_relation "edge-monotonicity" complete with
  | Relation.Skip _ -> ()
  | Relation.Pass -> Alcotest.fail "edge-monotonicity should skip on K6"
  | Relation.Fail m -> Alcotest.failf "edge-monotonicity failed on K6: %s" m);
  (* A certificate subset is honoured even when handed in manually. *)
  let with_cert =
    { crafted with cert = Some [| 0; 1; 2 |] }
  in
  match run_relation "planted-certificate" with_cert with
  | Relation.Pass -> ()
  | Relation.Skip why -> Alcotest.failf "certificate skipped: %s" why
  | Relation.Fail m -> Alcotest.failf "certificate relation failed: %s" m

let suite =
  [
    Alcotest.test_case "default subject survives 60 cases" `Quick
      test_default_subject_passes;
    Alcotest.test_case "engine is deterministic in the seed" `Quick
      test_engine_deterministic;
    Alcotest.test_case "time budget stops case generation" `Quick
      test_time_budget;
    Alcotest.test_case "unknown relation rejected" `Quick
      test_unknown_relation_rejected;
    Alcotest.test_case "aux-seed hash pinned" `Quick test_stable_hash_pinned;
    Alcotest.test_case "generators are deterministic" `Quick
      test_generators_deterministic;
    Alcotest.test_case "planted certificates are sound" `Quick
      test_planted_certificate_is_sound;
    Alcotest.test_case "shrinker minimises a triangle witness" `Quick
      test_shrinker_minimises_triangle;
    Alcotest.test_case "shrinker remaps certificates" `Quick
      test_shrinker_remaps_certificates;
    Alcotest.test_case "mutation: inflated peel density caught" `Quick
      test_mutation_broken_peel_caught;
    Alcotest.test_case "mutation: shifted core numbers caught" `Quick
      test_mutation_broken_cores_caught;
    Alcotest.test_case "reproducer replays bit-identically" `Quick
      test_reproducer_replays_bit_identically;
    Alcotest.test_case "reproducer files round-trip" `Quick
      test_repro_roundtrip;
    Alcotest.test_case "every relation passes on a crafted case" `Quick
      test_each_relation_passes_on_crafted;
    Alcotest.test_case "relation verdict corners" `Quick
      test_relation_verdicts;
  ]
