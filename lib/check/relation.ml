module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Prng = Dsd_util.Prng

type verdict =
  | Pass
  | Skip of string
  | Fail of string

type t = {
  name : string;
  check : Subject.t -> rng:Prng.t -> Generator.case -> verdict;
}

(* Inequality slack.  Densities are ratios of exact ints ≤ 2^53, so
   genuinely equal rationals divide to bit-identical floats; the slack
   only absorbs bounds that are not one int division themselves, such
   as rho_opt / |V_Psi|. *)
let eps = 1e-9

(* Equality tolerance for two computations of the same rational. *)
let tight = 1e-12

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

let rho subject g psi = (subject.Subject.core_exact g psi).Dsd_core.Density.density

(* ---- Theorem 1: kmax / |V_Psi| <= rho_opt <= kmax ---- *)

let theorem1_bounds =
  { name = "theorem1-bounds";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let kmax = Subject.kmax subject c.graph c.psi in
        let r = rho subject c.graph c.psi in
        let size = float_of_int c.psi.P.size in
        let lower = float_of_int kmax /. size in
        if r < lower -. eps then
          failf "Theorem 1 lower bound violated: kmax=%d |Vpsi|=%d so \
                 rho_opt >= %.12g, but rho=%.12g"
            kmax c.psi.P.size lower r
        else if r > float_of_int kmax +. eps then
          failf "Theorem 1 upper bound violated: kmax=%d but rho=%.12g"
            kmax r
        else Pass) }

(* ---- Theorems 2-4: the approximations are 1/|V_Psi| and <= opt ---- *)

let approx_ratio =
  { name = "approx-ratio";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let opt = rho subject c.graph c.psi in
        let size = float_of_int c.psi.P.size in
        let algos =
          [ ("PeelApp(Thm 2)", (subject.Subject.peel c.graph c.psi).density);
            ("IncApp(Thm 3)", (subject.Subject.inc_app c.graph c.psi).density);
            ("CoreApp(Thm 4)", (subject.Subject.core_app c.graph c.psi).density);
          ]
        in
        let bad =
          List.filter_map
            (fun (name, d) ->
              if d < (opt /. size) -. eps then
                Some
                  (Printf.sprintf
                     "%s below the 1/|Vpsi| ratio: %.12g < %.12g/%g" name d
                     opt size)
              else if d > opt +. eps then
                Some
                  (Printf.sprintf "%s beats the optimum: %.12g > rho=%.12g"
                     name d opt)
              else None)
            algos
        in
        match bad with
        | [] -> Pass
        | msgs -> Fail (String.concat "; " msgs)) }

(* ---- vertex relabelling ---- *)

let permute_graph rng g =
  let n = G.n g in
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  let edges =
    Array.map (fun (u, v) -> (perm.(u), perm.(v))) (G.edges g)
  in
  (G.of_edges ~n edges, perm)

let permutation_invariance =
  { name = "permutation-invariance";
    check =
      (fun subject ~rng (c : Generator.case) ->
        let permuted, perm = permute_graph rng c.graph in
        let core = subject.Subject.core_numbers c.graph c.psi in
        let core_p = subject.Subject.core_numbers permuted c.psi in
        let mismatch = ref None in
        Array.iteri
          (fun v cv ->
            if !mismatch = None && core_p.(perm.(v)) <> cv then
              mismatch := Some (v, cv, core_p.(perm.(v))))
          core;
        match !mismatch with
        | Some (v, cv, cp) ->
          failf
            "core numbers not permutation-equivariant: core(%d)=%d but \
             core(pi(%d))=%d"
            v cv v cp
        | None ->
          let r = rho subject c.graph c.psi in
          let rp = rho subject permuted c.psi in
          if Float.abs (r -. rp) > tight then
            failf "rho_opt changed under relabelling: %.17g vs %.17g" r rp
          else Pass) }

(* ---- disjoint union = max over components ---- *)

let disjoint_union =
  { name = "disjoint-union";
    check =
      (fun subject ~rng (c : Generator.case) ->
        let n2 = 3 + Prng.int rng 7 in
        let p = 0.2 +. Prng.float rng 0.4 in
        let seed = Int64.to_int (Prng.bits64 rng) land max_int in
        let other = Dsd_data.Gen.er_gnp ~seed ~n:n2 ~p in
        let union = Dsd_data.Gen.disjoint_union c.graph other in
        let r1 = rho subject c.graph c.psi in
        let r2 = rho subject other c.psi in
        let ru = rho subject union c.psi in
        if Float.abs (ru -. Float.max r1 r2) > tight then
          failf
            "rho_opt(union) should be max of the components: \
             max(%.12g, %.12g) but got %.12g"
            r1 r2 ru
        else begin
          let k1 = Subject.kmax subject c.graph c.psi in
          let k2 = Subject.kmax subject other c.psi in
          let ku = Subject.kmax subject union c.psi in
          if ku <> max k1 k2 then
            failf "kmax(union) should be max(%d, %d) but got %d" k1 k2 ku
          else Pass
        end) }

(* ---- adding an edge is monotone (instances are subgraph matches,
   Definition 7, so no instance is ever destroyed) ---- *)

let edge_monotonicity =
  { name = "edge-monotonicity";
    check =
      (fun subject ~rng (c : Generator.case) ->
        let g = c.graph in
        let n = G.n g in
        let non_edges = ref [] in
        for u = n - 1 downto 0 do
          for v = n - 1 downto u + 1 do
            if not (G.mem_edge g u v) then non_edges := (u, v) :: !non_edges
          done
        done;
        let non_edges = Array.of_list !non_edges in
        if Array.length non_edges = 0 then Skip "graph is complete"
        else begin
          let u, v = non_edges.(Prng.int rng (Array.length non_edges)) in
          let bigger =
            G.of_edges ~n (Array.append (G.edges g) [| (u, v) |])
          in
          let r = rho subject g c.psi in
          let r' = rho subject bigger c.psi in
          if r' < r -. eps then
            failf "adding edge (%d,%d) decreased rho_opt: %.12g -> %.12g" u
              v r r'
          else begin
            let k = Subject.kmax subject g c.psi in
            let k' = Subject.kmax subject bigger c.psi in
            if k' < k then
              failf "adding edge (%d,%d) decreased kmax: %d -> %d" u v k k'
            else Pass
          end
        end) }

(* ---- the exact search equals the float reference searches ----

   Exact, CoreExact, the query variant and top-k run one exact
   Dinkelbach search; Oracle keeps the float bisections they ran
   before.  Both sides divide one int by another once, so equal
   rationals have equal bits. *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let search_equals_reference =
  let module D = Dsd_core.Density in
  let differs name (a : D.subgraph) (b : D.subgraph) ~vertices =
    if not (same_bits a.density b.density) then
      Some
        (Printf.sprintf "%s: density %.17g <> reference %.17g" name a.density
           b.density)
    else if vertices && a.vertices <> b.vertices then
      Some (Printf.sprintf "%s: vertex set differs from the reference" name)
    else None
  in
  (* reference_cds iterated on the remaining vertices [rest]. *)
  let rec reference_topk g psi k rest =
    let sub, map = G.induced g rest in
    let (r : D.subgraph), _ = Oracle.reference_cds sub psi in
    if k = 0 || Array.length r.vertices = 0 then []
    else begin
      let region = Array.map (Array.get map) r.vertices in
      let rest = List.filter (fun v -> not (Array.mem v region)) (Array.to_list rest) in
      { r with vertices = region }
      :: reference_topk g psi (k - 1) (Array.of_list rest)
    end
  in
  { name = "search-equals-reference";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let g = c.graph and psi = c.psi in
        let cds, _ = Oracle.reference_cds g psi in
        let query = [| 0 |] in
        let topk = (Dsd_core.Topk_lds.run ~k:3 g psi).regions in
        let reference = reference_topk g psi 3 (Array.init (G.n g) Fun.id) in
        let checks =
          [ differs "Exact" (subject.Subject.exact g psi) cds ~vertices:true;
            differs "CoreExact" (subject.Subject.core_exact g psi) cds
              ~vertices:false ]
          @ (if G.n g = 0 then []
             else
               [ differs "Query(0)"
                   (Dsd_core.Query_dsd.run g psi ~query).subgraph
                   (fst (Oracle.reference_query g psi ~query))
                   ~vertices:true ])
          @
          if List.length topk <> List.length reference then
            [ Some
                (Printf.sprintf "top-3: %d regions vs %d in the reference"
                   (List.length topk) (List.length reference)) ]
          else
            List.mapi
              (fun i (a, b) ->
                differs (Printf.sprintf "top-3 region %d" (i + 1)) a b
                  ~vertices:true)
              (List.combine topk reference)
        in
        match List.filter_map Fun.id checks with
        | [] -> Pass
        | msgs -> Fail (String.concat "; " msgs)) }

(* ---- pool width 1 vs N bit-equality ---- *)

let pool_width =
  { name = "pool-width";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        Dsd_util.Pool.with_pool 2 (fun pool ->
            let check_one name (seq : Dsd_core.Density.subgraph)
                (par : Dsd_core.Density.subgraph) =
              if seq.density <> par.density || seq.vertices <> par.vertices
              then
                Some
                  (Printf.sprintf
                     "%s: pooled result differs (density %.17g vs %.17g)"
                     name seq.density par.density)
              else None
            in
            let bad =
              List.filter_map Fun.id
                [ check_one "CoreExact"
                    (subject.Subject.core_exact c.graph c.psi)
                    (subject.Subject.core_exact ~pool c.graph c.psi);
                  check_one "IncApp"
                    (subject.Subject.inc_app c.graph c.psi)
                    (subject.Subject.inc_app ~pool c.graph c.psi);
                ]
            in
            let cores = subject.Subject.core_numbers c.graph c.psi in
            let cores_p = subject.Subject.core_numbers ~pool c.graph c.psi in
            let bad =
              if cores <> cores_p then
                "core numbers differ across pool widths" :: bad
              else bad
            in
            match bad with
            | [] -> Pass
            | msgs -> Fail (String.concat "; " msgs))) }

(* ---- Exact = CoreExact = brute force on small graphs ---- *)

let exact_vs_brute =
  { name = "exact-vs-brute";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let d_exact = (subject.Subject.exact c.graph c.psi).density in
        let d_core = rho subject c.graph c.psi in
        if not (same_bits d_exact d_core) then
          failf "Exact and CoreExact disagree: %.17g vs %.17g" d_exact d_core
        else if G.n c.graph > 10 then
          Skip "n > 10: brute force too slow, Exact-vs-CoreExact only"
        else begin
          let d_brute, _ = Oracle.brute_force_densest c.graph c.psi in
          if not (same_bits d_exact d_brute) then
            failf "exact solvers disagree with brute force: %.17g vs %.17g"
              d_exact d_brute
          else Pass
        end) }

(* ---- planted certificate: any subset's density lower-bounds
   rho_opt; the generator plants one dense enough to bite ---- *)

let planted_certificate =
  { name = "planted-certificate";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        match c.cert with
        | None -> Skip "no certificate on this case"
        | Some vs when Array.length vs = 0 -> Skip "certificate shrunk away"
        | Some vs ->
          let witness = Oracle.density_of_subset c.graph c.psi vs in
          let r = rho subject c.graph c.psi in
          if r < witness -. eps then
            failf
              "rho_opt=%.12g below the certificate subset's density %.12g \
               (|cert|=%d)"
              r witness (Array.length vs)
          else Pass) }

(* ---- the serving layer answers exactly what the API answers ----

   Every case's graph is registered in a fresh server State; each
   endpoint request is round-tripped through the wire codec
   (encode_request / decode_request, encode_response / decode_response
   — floats travel as IEEE-754 bits) and dispatched via State.handle,
   then compared bit-identically against a direct library call.  Each
   cacheable request is issued twice so the second answer comes from
   the result LRU: the cache must be invisible. *)

(* One request as a socket client sees it, minus the socket. *)
let roundtrip state req =
  let module Pr = Dsd_serve.Protocol in
  let tag, body = Pr.encode_request req in
  let resp = Dsd_serve.State.handle state (Pr.decode_request tag body) in
  let rtag, rbody = Pr.encode_response resp in
  Pr.decode_response rtag rbody

let serve_equals_api =
  let module Sv = Dsd_serve.State in
  let module Pr = Dsd_serve.Protocol in
  let same_subgraph name (resp : Pr.response) (sg : Dsd_core.Density.subgraph) =
    match resp with
    | Density_r d when d = sg.density -> None
    | Cds_r { density; vertices } | Query_r { density; vertices } ->
      if density <> sg.density then
        Some
          (Printf.sprintf "%s: served density %.17g <> api %.17g" name density
             sg.density)
      else if vertices <> sg.vertices then
        Some (Printf.sprintf "%s: served vertex set differs from api" name)
      else None
    | Density_r d ->
      Some
        (Printf.sprintf "%s: served density %.17g <> api %.17g" name d
           sg.density)
    | Error_r msg -> Some (Printf.sprintf "%s: served error: %s" name msg)
    | _ -> Some (Printf.sprintf "%s: unexpected response kind" name)
  in
  (* Top-k regions and hierarchy levels: (density, vertices) lists,
     densities compared by their bits. *)
  let same_entries name (resp : Pr.response) expect =
    let bits = List.map (fun (d, vs) -> (Int64.bits_of_float d, vs)) in
    match resp with
    | Topk_r { regions = got } | Hierarchy_r { levels = got } ->
      if bits got = bits expect then None
      else
        Some
          (Printf.sprintf "%s: served %d entries differ from api's %d" name
             (List.length got) (List.length expect))
    | Error_r msg -> Some (Printf.sprintf "%s: served error: %s" name msg)
    | _ -> Some (Printf.sprintf "%s: unexpected response kind" name)
  in
  { name = "serve-equals-api";
    check =
      (fun subject ~rng (c : Generator.case) ->
        let state = Sv.create ~max_cached:8 [ ("g", c.graph) ] in
        let psi = c.psi.P.name in
        let twice same name req expect =
          (* cold solve, then the LRU hit: both must match the API *)
          match same name (roundtrip state req) expect with
          | Some _ as bad -> bad
          | None ->
            Option.map
              (fun msg -> "cached " ^ msg)
              (same name (roundtrip state req) expect)
        in
        let density_reqs =
          [ ("exact", fun () -> subject.Subject.exact c.graph c.psi);
            ("coreexact", fun () -> subject.Subject.core_exact c.graph c.psi);
            ("peel", fun () -> subject.Subject.peel c.graph c.psi);
            ("incapp", fun () -> subject.Subject.inc_app c.graph c.psi);
            ("coreapp", fun () -> subject.Subject.core_app c.graph c.psi);
          ]
        in
        let bad =
          List.filter_map
            (fun (algorithm, api) ->
              let expect = api () in
              match
                twice same_subgraph ("density/" ^ algorithm)
                  (Pr.Density { graph = "g"; psi; algorithm })
                  expect
              with
              | Some _ as bad -> bad
              | None ->
                twice same_subgraph ("cds/" ^ algorithm)
                  (Pr.Cds { graph = "g"; psi; algorithm })
                  expect)
            density_reqs
        in
        let bad =
          match
            roundtrip state (Pr.Decompose { graph = "g"; psi })
          with
          | Pr.Decompose_r { kmax; core } ->
            let api_core = subject.Subject.core_numbers c.graph c.psi in
            let api_kmax = Subject.kmax subject c.graph c.psi in
            if core <> api_core then
              "decompose: served core numbers differ from api" :: bad
            else if kmax <> api_kmax then
              Printf.sprintf "decompose: served kmax %d <> api %d" kmax
                api_kmax
              :: bad
            else bad
          | Pr.Error_r msg -> ("decompose: served error: " ^ msg) :: bad
          | _ -> "decompose: unexpected response kind" :: bad
        in
        let bad =
          if G.n c.graph = 0 then bad
          else begin
            let q = [| Prng.int rng (G.n c.graph) |] in
            let api =
              (Dsd_core.Query_dsd.run c.graph c.psi ~query:q)
                .Dsd_core.Query_dsd.subgraph
            in
            match
              twice same_subgraph "query"
                (Pr.Query { graph = "g"; psi; vertices = q })
                api
            with
            | Some msg -> msg :: bad
            | None -> bad
          end
        in
        let bad =
          let regions =
            List.map
              (fun (sg : Dsd_core.Density.subgraph) -> (sg.density, sg.vertices))
              (Dsd_core.Topk_lds.run ~k:2 c.graph c.psi).regions
          in
          match
            twice same_entries "topk"
              (Pr.Topk { graph = "g"; psi; k = 2 })
              regions
          with
          | Some msg -> msg :: bad
          | None -> bad
        in
        let bad =
          let levels =
            List.map
              (fun (l : Dsd_core.Ld_decomposition.level) ->
                (l.marginal_density, l.vertices))
              (Dsd_core.Ld_decomposition.decompose c.graph c.psi).levels
          in
          match
            twice same_entries "hierarchy"
              (Pr.Hierarchy { graph = "g"; psi; levels = 0 })
              levels
          with
          | Some msg -> msg :: bad
          | None -> bad
        in
        match bad with
        | [] -> Pass
        | msgs -> Fail (String.concat "; " msgs)) }

(* ---- deleting an edge is monotone downward (dual of
   edge-monotonicity: removing an edge can only destroy instances) ---- *)

let edge_deletion_monotonicity =
  { name = "edge-deletion-monotonicity";
    check =
      (fun subject ~rng (c : Generator.case) ->
        let g = c.graph in
        let edges = G.edges g in
        if Array.length edges = 0 then Skip "graph has no edges"
        else begin
          let u, v = edges.(Prng.int rng (Array.length edges)) in
          let smaller =
            G.of_edges ~n:(G.n g)
              (Array.of_seq
                 (Seq.filter
                    (fun (a, b) ->
                      not ((a = u && b = v) || (a = v && b = u)))
                    (Array.to_seq edges)))
          in
          let r = rho subject g c.psi in
          let r' = rho subject smaller c.psi in
          if r' > r +. eps then
            failf "deleting edge (%d,%d) increased rho_opt: %.12g -> %.12g" u
              v r r'
          else begin
            let k = Subject.kmax subject g c.psi in
            let k' = Subject.kmax subject smaller c.psi in
            if k' > k then
              failf "deleting edge (%d,%d) increased kmax: %d -> %d" u v k k'
            else Pass
          end
        end) }

(* ---- incremental sessions equal a from-scratch rebuild ----

   A random delta script (Delta.generate) is streamed into a fresh
   server State through the wire codec, one Apply_delta frame per op
   so interleaved add/remove order survives the "inserts before
   deletes" endpoint convention.  After every batch the served
   "incremental" density/cds answers (patched Inc_dsd arena, LRU in
   front) must be bit-identical to a fresh Inc_dsd session on the
   rebuilt graph, the density must equal CoreExact on the rebuild, and
   Decompose must return the rebuild's core numbers.  Issuing the same
   cacheable requests across batches also proves the per-graph cache
   invalidation: a stale LRU entry would surface as a mismatch on the
   next batch.  On failure the script is shrunk (the whole run is a
   deterministic function of the script) and printed for replay. *)

let delta_equals_rebuild =
  let module Sv = Dsd_serve.State in
  let module Pr = Dsd_serve.Protocol in
  { name = "delta-equals-rebuild";
    check =
      (fun subject ~rng (c : Generator.case) ->
        if c.psi.P.kind <> P.Clique then
          Skip "incremental sessions are clique-only"
        else begin
          let script = Delta.generate rng c.graph in
          if Array.length script = 0 then
            Skip "graph too small for a delta script"
          else begin
            let n = G.n c.graph in
            let base_edges = G.edges c.graph in
            let psi = c.psi.P.name in
            (* The whole run is a pure function of the script — exactly
               what the shrinker needs. *)
            let run (script : Delta.script) =
              let state = Sv.create ~max_cached:8 [ ("g", c.graph) ] in
              let bad = ref [] in
              let push fmt =
                Printf.ksprintf (fun s -> bad := s :: !bad) fmt
              in
              Array.iteri
                (fun bi batch ->
                  Array.iter
                    (fun op ->
                      let adds, removes =
                        match op with
                        | Dsd_graph.Dynamic.Add (u, v) -> ([| (u, v) |], [||])
                        | Dsd_graph.Dynamic.Remove (u, v) ->
                          ([||], [| (u, v) |])
                      in
                      match
                        roundtrip state
                          (Pr.Apply_delta { graph = "g"; adds; removes })
                      with
                      | Pr.Apply_delta_r _ -> ()
                      | Pr.Error_r msg ->
                        push "batch %d: apply-delta error: %s" bi msg
                      | _ ->
                        push "batch %d: unexpected apply-delta response" bi)
                    batch;
                  let rebuilt =
                    G.of_edges ~n
                      (Delta.final_edges ~n base_edges
                         (Array.sub script 0 (bi + 1)))
                  in
                  let fresh =
                    Dsd_core.Inc_dsd.query
                      (Dsd_core.Inc_dsd.create rebuilt c.psi)
                  in
                  (match
                     roundtrip state
                       (Pr.Cds { graph = "g"; psi; algorithm = "incremental" })
                   with
                  | Pr.Cds_r { density; vertices } ->
                    if density <> fresh.density then
                      push "batch %d: served density %.17g <> rebuild %.17g"
                        bi density fresh.density
                    else if vertices <> fresh.vertices then
                      push "batch %d: served CDS vertex set differs from rebuild"
                        bi
                  | Pr.Error_r msg -> push "batch %d: cds error: %s" bi msg
                  | _ -> push "batch %d: unexpected cds response" bi);
                  (match
                     roundtrip state
                       (Pr.Density
                          { graph = "g"; psi; algorithm = "incremental" })
                   with
                  | Pr.Density_r d ->
                    if d <> fresh.density then
                      push "batch %d: served density %.17g <> rebuild %.17g"
                        bi d fresh.density
                  | Pr.Error_r msg ->
                    push "batch %d: density error: %s" bi msg
                  | _ -> push "batch %d: unexpected density response" bi);
                  let d_core =
                    (subject.Subject.core_exact rebuilt c.psi).density
                  in
                  if fresh.density <> d_core then
                    push "batch %d: incremental density %.17g <> CoreExact %.17g"
                      bi fresh.density d_core;
                  (match
                     roundtrip state (Pr.Decompose { graph = "g"; psi })
                   with
                  | Pr.Decompose_r { kmax; core } ->
                    let api_core =
                      subject.Subject.core_numbers rebuilt c.psi
                    in
                    if core <> api_core then
                      push "batch %d: served core numbers differ from rebuild"
                        bi
                    else if kmax <> Subject.kmax subject rebuilt c.psi then
                      push "batch %d: served kmax %d differs from rebuild" bi
                        kmax
                  | Pr.Error_r msg ->
                    push "batch %d: decompose error: %s" bi msg
                  | _ -> push "batch %d: unexpected decompose response" bi))
                script;
              List.rev !bad
            in
            match run script with
            | [] -> Pass
            | _ ->
              let minimal =
                Delta.shrink script ~still_fails:(fun s -> run s <> [])
              in
              failf "%s [delta script: %s]"
                (String.concat "; " (run minimal))
                (Delta.to_string minimal)
          end
        end) }

(* ---- top-k locally densest extraction ---- *)

(* Structural contract of Topk_lds.run: regions are pairwise disjoint,
   non-empty, of positive density, densities non-increasing, and every
   reported density is the true Psi-density of the reported vertex set
   (re-derived by the naive oracle — exact rationals, so equality is
   bitwise). *)
let topk_disjointness =
  { name = "topk-disjointness";
    check =
      (fun _subject ~rng (c : Generator.case) ->
        let k = 1 + Prng.int rng 3 in
        let r = Dsd_core.Topk_lds.run ~k c.graph c.psi in
        let seen = Hashtbl.create 16 in
        let last = ref infinity in
        let bad = ref [] in
        let push fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
        List.iteri
          (fun i (sg : Dsd_core.Density.subgraph) ->
            if Array.length sg.vertices = 0 then push "region %d is empty" i;
            if sg.density <= 0. then
              push "region %d has density %.17g <= 0" i sg.density;
            if sg.density > !last then
              push "region %d density %.17g exceeds previous %.17g" i
                sg.density !last;
            last := sg.density;
            let oracle = Oracle.density_of_subset c.graph c.psi sg.vertices in
            if sg.density <> oracle then
              push "region %d density %.17g but oracle says %.17g" i
                sg.density oracle;
            Array.iter
              (fun v ->
                if Hashtbl.mem seen v then
                  push "vertex %d appears in regions %d and %d" v
                    (Hashtbl.find seen v) i
                else Hashtbl.add seen v i)
              sg.vertices)
          r.Dsd_core.Topk_lds.regions;
        if List.length r.Dsd_core.Topk_lds.regions > k then
          push "asked for k=%d but got %d regions" k
            (List.length r.Dsd_core.Topk_lds.regions);
        match !bad with
        | [] -> Pass
        | msgs -> failf "k=%d: %s" k (String.concat "; " (List.rev msgs))) }

(* Extraction is greedy and canonical, so the run at k - 1 must be
   exactly the first k - 1 regions of the run at k — no tie-breaking
   drift between invocations. *)
let topk_prefix_stability =
  { name = "topk-prefix-stability";
    check =
      (fun _subject ~rng (c : Generator.case) ->
        let k = 2 + Prng.int rng 2 in
        let full = (Dsd_core.Topk_lds.run ~k c.graph c.psi).regions in
        let prefix =
          (Dsd_core.Topk_lds.run ~k:(k - 1) c.graph c.psi).regions
        in
        let rec compare_ i = function
          | _, [] -> Pass
          | [], _ :: _ ->
            failf "k=%d: run at k-1 has more regions than run at k" k
          | ( (a : Dsd_core.Density.subgraph) :: rest_a,
              (b : Dsd_core.Density.subgraph) :: rest_b ) ->
            if Int64.bits_of_float a.density <> Int64.bits_of_float b.density
            then
              failf "k=%d region %d: densities drift (%.17g vs %.17g)" k i
                a.density b.density
            else if a.vertices <> b.vertices then
              failf "k=%d region %d: vertex sets drift" k i
            else compare_ (i + 1) (rest_a, rest_b)
        in
        compare_ 0 (full, prefix)) }

(* The first extracted region is the canonical maximal CDS, so its
   density must be bit-identical to Algorithm 1's rho_opt; an empty
   extraction is only legal when rho_opt itself is 0. *)
let top1_equals_cds =
  { name = "top1-equals-cds";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let exact = subject.Subject.exact c.graph c.psi in
        match (Dsd_core.Topk_lds.run ~k:1 c.graph c.psi).regions with
        | [] ->
          if exact.density = 0. then Pass
          else
            failf "no region extracted but Exact finds rho=%.17g"
              exact.density
        | [ sg ] ->
          if Int64.bits_of_float sg.density
             = Int64.bits_of_float exact.density
          then Pass
          else
            failf "top-1 density %.17g <> Exact rho %.17g" sg.density
              exact.density
        | regions -> failf "k=1 returned %d regions" (List.length regions)) }

(* ---- round-synchronous parallel peel ≡ sequential peel ---- *)

(* The bucket-free peel engine must reproduce the whole transcript —
   not just the answer — at every pool width: core numbers, peel
   order, kmax, the residual-density trace with its best suffix, and
   PeelApp's subgraph (the consumer of the tracked order).
   [sequential_below:0] forces even these small cases off the inline
   path and through the worker fan-out. *)
let parallel_peel_equivalence =
  let module CC = Dsd_core.Clique_core in
  { name = "parallel-peel-equivalence";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let seq = CC.decompose ~track_density:true c.graph c.psi in
        let peel_seq = subject.Subject.peel c.graph c.psi in
        let check_width width =
          Dsd_util.Pool.with_pool ~sequential_below:0 width (fun pool ->
              let par =
                CC.decompose ~pool ~track_density:true c.graph c.psi
              in
              if par.CC.core <> seq.CC.core then
                Some (Printf.sprintf "width %d: core numbers differ" width)
              else if par.CC.order <> seq.CC.order then
                Some (Printf.sprintf "width %d: peel order differs" width)
              else if par.CC.kmax <> seq.CC.kmax then
                Some
                  (Printf.sprintf "width %d: kmax %d <> %d" width par.CC.kmax
                     seq.CC.kmax)
              else if par.CC.residual_densities <> seq.CC.residual_densities
              then
                Some
                  (Printf.sprintf "width %d: residual-density trace differs"
                     width)
              else if
                Int64.bits_of_float par.CC.best_residual_density
                <> Int64.bits_of_float seq.CC.best_residual_density
                || par.CC.best_residual_start <> seq.CC.best_residual_start
              then
                Some
                  (Printf.sprintf "width %d: best residual suffix drifts \
                                   (%.17g@%d vs %.17g@%d)"
                     width par.CC.best_residual_density
                     par.CC.best_residual_start seq.CC.best_residual_density
                     seq.CC.best_residual_start)
              else begin
                let p = subject.Subject.peel ~pool c.graph c.psi in
                if
                  Int64.bits_of_float p.density
                  <> Int64.bits_of_float peel_seq.density
                  || p.vertices <> peel_seq.vertices
                then
                  Some
                    (Printf.sprintf
                       "width %d: PeelApp result differs (%.17g vs %.17g)"
                       width p.density peel_seq.density)
                else None
              end)
        in
        match List.filter_map check_width [ 2; 4 ] with
        | [] -> Pass
        | msgs -> Fail (String.concat "; " msgs)) }

(* ---- density-friendly hierarchy ---- *)

(* Structural laws of the decomposition chain (the former ad-hoc
   test_ld checks, promoted so every generator exercises them): levels
   partition V, each level block is sorted and duplicate-free, prefix
   sizes accumulate exactly, marginal densities strictly decrease, and
   every reported marginal is the slow-counted
   (mu(B_i) - mu(B_{i-1})) / |X_i| of its own prefix — bit-identical,
   since equal rationals divide to equal floats. *)
let hierarchy_nesting =
  let module LD = Dsd_core.Ld_decomposition in
  { name = "hierarchy-nesting";
    check =
      (fun _subject ~rng:_ (c : Generator.case) ->
        let d = LD.decompose c.graph c.psi in
        let n = Dsd_graph.Graph.n c.graph in
        let seen = Array.make (max 1 n) false in
        let bad = ref [] in
        let push fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
        let size = ref 0 in
        let last_marginal = ref infinity in
        let prev_mu = ref 0 in
        List.iteri
          (fun i (lvl : LD.level) ->
            if Array.length lvl.vertices = 0 then push "level %d is empty" i;
            Array.iter
              (fun v ->
                if v < 0 || v >= n then push "level %d: vertex %d out of range" i v
                else if seen.(v) then push "vertex %d appears twice" v
                else seen.(v) <- true)
              lvl.vertices;
            let sorted = Array.copy lvl.vertices in
            Array.sort compare sorted;
            if sorted <> lvl.vertices then push "level %d vertices unsorted" i;
            size := !size + Array.length lvl.vertices;
            if lvl.prefix_size <> !size then
              push "level %d prefix_size %d, expected %d" i lvl.prefix_size
                !size;
            if lvl.marginal_density >= !last_marginal then
              push "level %d marginal %.17g not below %.17g" i
                lvl.marginal_density !last_marginal;
            last_marginal := lvl.marginal_density;
            let prefix = LD.prefix d (i + 1) in
            let sub, _ = Dsd_graph.Graph.induced c.graph prefix in
            let mu = Oracle.slow_count sub c.psi in
            let expect =
              float_of_int (mu - !prev_mu)
              /. float_of_int (Array.length lvl.vertices)
            in
            prev_mu := mu;
            if
              Int64.bits_of_float lvl.marginal_density
              <> Int64.bits_of_float expect
            then
              push "level %d marginal %.17g but slow count says %.17g" i
                lvl.marginal_density expect)
          d.LD.levels;
        if !size <> n then push "levels cover %d of %d vertices" !size n;
        match !bad with
        | [] -> Pass
        | msgs -> Fail (String.concat "; " (List.rev msgs))) }

(* B_1 is the canonical maximal densest subgraph: its marginal is
   bit-identical to Algorithm 1's rho_opt, and (when positive) its
   vertex set is exactly the canonical region top-1 extraction
   returns.  A zero first marginal is only legal when rho_opt is 0. *)
let hierarchy_level1_equals_cds =
  let module LD = Dsd_core.Ld_decomposition in
  { name = "hierarchy-level1-equals-cds";
    check =
      (fun subject ~rng:_ (c : Generator.case) ->
        let exact = subject.Subject.exact c.graph c.psi in
        match (LD.decompose c.graph c.psi).LD.levels with
        | [] ->
          if Dsd_graph.Graph.n c.graph = 0 then Pass
          else failf "no levels on a non-empty graph"
        | (lvl : LD.level) :: _ ->
          if
            Int64.bits_of_float lvl.marginal_density
            <> Int64.bits_of_float exact.density
          then
            failf "B_1 marginal %.17g <> Exact rho %.17g" lvl.marginal_density
              exact.density
          else if lvl.marginal_density = 0. then Pass
          else (
            match (Dsd_core.Topk_lds.run ~k:1 c.graph c.psi).regions with
            | [ sg ] ->
              if sg.vertices <> lvl.vertices then
                failf "B_1 vertex set differs from the canonical CDS region"
              else Pass
            | regions ->
              failf "top-1 extraction returned %d regions with rho > 0"
                (List.length regions))) }

(* The breakpoint search must reproduce the per-level reference search
   (Oracle.reference_ld_decomposition) exactly — levels, marginal bits
   and prefix sizes — in at most two probes per level (it makes
   2L - 1 for L positive levels). *)
let hierarchy_equals_reference =
  let module LD = Dsd_core.Ld_decomposition in
  { name = "hierarchy-equals-reference";
    check =
      (fun _subject ~rng:_ (c : Generator.case) ->
        let d = LD.decompose c.graph c.psi in
        let r = Oracle.reference_ld_decomposition c.graph c.psi in
        let levels = List.length d.LD.levels in
        if levels <> List.length r.LD.levels then
          failf "%d levels vs %d in the reference" levels
            (List.length r.LD.levels)
        else if d.LD.iterations > 2 * levels then
          failf "%d probes for %d levels" d.LD.iterations levels
        else
          match
            List.find_map
              (fun ((a : LD.level), (b : LD.level)) ->
                if
                  Int64.bits_of_float a.marginal_density
                  <> Int64.bits_of_float b.marginal_density
                then
                  Some
                    (Printf.sprintf "marginal %.17g vs %.17g in the reference"
                       a.marginal_density b.marginal_density)
                else if a.vertices <> b.vertices then
                  Some "level vertex sets differ from the reference"
                else if a.prefix_size <> b.prefix_size then
                  Some
                    (Printf.sprintf "prefix %d vs %d in the reference"
                       a.prefix_size b.prefix_size)
                else None)
              (List.combine d.LD.levels r.LD.levels)
          with
          | None -> Pass
          | Some msg -> Fail msg) }

let all =
  [ theorem1_bounds;
    approx_ratio;
    permutation_invariance;
    disjoint_union;
    edge_monotonicity;
    search_equals_reference;
    pool_width;
    exact_vs_brute;
    planted_certificate;
    serve_equals_api;
    edge_deletion_monotonicity;
    delta_equals_rebuild;
    topk_disjointness;
    topk_prefix_stability;
    top1_equals_cds;
    parallel_peel_equivalence;
    hierarchy_nesting;
    hierarchy_level1_equals_cds;
    hierarchy_equals_reference;
  ]

let find name = List.find_opt (fun r -> r.name = name) all
let names = List.map (fun r -> r.name) all
