(* The serving subsystem, end to end.

   Four layers, in increasing depth of integration:

   - the LRU and the snapshot codec as pure data structures (qcheck
     properties against tiny reference models);
   - State.handle request streams: cache accounting contracts
     (hits + misses = requests, entries <= capacity);
   - a real in-process server over a Unix-domain socket: every
     endpoint, over a corpus from the metamorphic generator, answered
     bit-identically to direct Api calls — cold, and again warm from
     the result cache;
   - fault injection over the same socket: malformed frames from
     Dsd_check.Generator.malformed_frame plus hand-written mid-request
     disconnects must produce a structured error or a clean close, and
     must leave the server answering the next well-formed request. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Api = Dsd_core.Api
module Prng = Dsd_util.Prng
module Snapshot = Dsd_serve.Snapshot
module Lru = Dsd_serve.Lru
module Pr = Dsd_serve.Protocol
module Sv_state = Dsd_serve.State
module Server = Dsd_serve.Server
module Client = Dsd_serve.Client

let graph_eq a b = G.n a = G.n b && G.edges a = G.edges b

let subgraph : Dsd_core.Density.subgraph Alcotest.testable =
  Alcotest.testable
    (fun fmt (s : Dsd_core.Density.subgraph) ->
      Format.fprintf fmt "density=%.17g |V|=%d" s.density
        (Array.length s.vertices))
    (fun a b -> a.density = b.density && a.vertices = b.vertices)

(* ---- temp files and sockets ---- *)

let temp_path suffix =
  let path =
    Filename.temp_file "dsd_serve_test" suffix
  in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* Unix-domain socket paths are length-limited (~108 bytes), so build
   short ones in the temp dir rather than via temp_file's long names. *)
let socket_counter = ref 0
let fresh_socket () =
  incr socket_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsd-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  (try Sys.remove path with Sys_error _ -> ());
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let with_server ?receive_timeout_s ?(max_cached = 64) graphs f =
  let addr = Server.Unix_domain (fresh_socket ()) in
  let state = Sv_state.create ~max_cached graphs in
  let server = Server.start ?receive_timeout_s ~state addr in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Client.once addr Pr.Shutdown) with _ -> ());
      Server.join server)
    (fun () -> f addr state)

(* ---- snapshot round trip ---- *)

let test_snapshot_roundtrip () =
  Helpers.qtest ~count:60 "write/load is the identity on graphs"
    (Helpers.small_graph_arb ~max_n:40 ~max_m:120 ())
    (fun g ->
      let path = temp_path ".snap" in
      let bytes = Snapshot.write path g in
      let g' = Snapshot.load path in
      let i = Snapshot.info path in
      bytes = (Unix.stat path).Unix.st_size
      && graph_eq g g'
      && i.Snapshot.n = G.n g
      && i.Snapshot.m = G.m g
      && i.Snapshot.bytes = bytes
      && Snapshot.is_snapshot path)

let test_snapshot_empty () =
  let path = temp_path ".snap" in
  let g = G.of_edges ~n:0 [||] in
  ignore (Snapshot.write path g);
  Alcotest.(check bool) "empty graph round-trips" true
    (graph_eq g (Snapshot.load path))

let expect_load_failure what path =
  match Snapshot.load path with
  | _ -> Alcotest.failf "%s: corrupted snapshot loaded successfully" what
  | exception Failure _ -> ()

let test_snapshot_corruption () =
  let g = Helpers.random_graph ~seed:11 ~max_n:20 ~max_m:60 () in
  let path = temp_path ".snap" in
  let bytes = Snapshot.write path g in
  let original = In_channel.with_open_bin path In_channel.input_all in
  let write_raw s = Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc s)
  in
  let flip pos =
    let b = Bytes.of_string original in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    write_raw (Bytes.to_string b)
  in
  (* magic *)
  flip 0;
  expect_load_failure "magic" path;
  Alcotest.(check bool) "corrupt magic fails the sniff too" false
    (Snapshot.is_snapshot path);
  (* version *)
  flip 9;
  expect_load_failure "version" path;
  (* header (n), caught by length accounting or checksum *)
  flip 13;
  expect_load_failure "header" path;
  (* payload byte (just past the 28-byte header), caught by the checksum *)
  flip 31;
  expect_load_failure "payload" path;
  (* checksum byte itself *)
  flip (bytes - 1);
  expect_load_failure "checksum" path;
  (* truncations at every interesting boundary *)
  List.iter
    (fun keep ->
      write_raw (String.sub original 0 keep);
      expect_load_failure (Printf.sprintf "truncated-to-%d" keep) path)
    [ 0; 4; 12; 27; bytes - 9; bytes - 1 ];
  (* trailing garbage *)
  write_raw (original ^ "x");
  expect_load_failure "trailing-garbage" path;
  (* and the pristine bytes still load *)
  write_raw original;
  Alcotest.(check bool) "pristine bytes still load" true
    (graph_eq g (Snapshot.load path))

let test_snapshot_not_a_snapshot () =
  let path = temp_path ".edges" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "0 1\n1 2\n");
  Alcotest.(check bool) "edge list is not sniffed as a snapshot" false
    (Snapshot.is_snapshot path);
  expect_load_failure "edge list" path

(* ---- LRU vs a reference model ---- *)

(* The model is an association list, most recently used first. *)
type model_op = Find of int | Add of int

let lru_ops_arb =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [ (int_range 0 12 >|= fun k -> Find k);
          (int_range 0 12 >|= fun k -> Add k) ])
  in
  make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity=%d ops=[%s]" cap
        (String.concat "; "
           (List.map
              (function
                | Find k -> Printf.sprintf "find %d" k
                | Add k -> Printf.sprintf "add %d" k)
              ops)))
    Gen.(pair (int_range 0 6) (list_size (int_range 0 80) op))

let test_lru_model () =
  Helpers.qtest ~count:200 "LRU agrees with the reference model"
    lru_ops_arb
    (fun (capacity, ops) ->
      let t = Lru.create ~capacity in
      let model = ref [] in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          let key k = string_of_int k in
          (match op with
          | Find k -> (
            let expected = List.assoc_opt (key k) !model in
            (match expected with
            | Some _ ->
              incr hits;
              model :=
                (key k, Option.get expected)
                :: List.remove_assoc (key k) !model
            | None -> incr misses);
            match (Lru.find t (key k), expected) with
            | Some v, Some v' when v = v' -> ()
            | None, None -> ()
            | _ -> ok := false)
          | Add k ->
            let v = k * 10 in
            let had = List.mem_assoc (key k) !model in
            model := (key k, v) :: List.remove_assoc (key k) !model;
            let expected_evicted =
              if capacity = 0 then begin
                (* nothing is ever resident: the add is dropped outright
                   and does not count as an eviction *)
                model := [];
                None
              end
              else if (not had) && List.length !model > capacity then begin
                let rec split = function
                  | [] -> assert false
                  | [ (lru_key, _) ] -> (lru_key, [])
                  | x :: rest ->
                    let lru_key, kept = split rest in
                    (lru_key, x :: kept)
                in
                let lru_key, kept = split !model in
                model := kept;
                incr evictions;
                Some lru_key
              end
              else None
            in
            if Lru.add t (key k) v <> expected_evicted then ok := false);
          if Lru.length t > capacity then ok := false;
          if Lru.keys_by_recency t <> List.map fst !model then ok := false)
        ops;
      !ok
      && Lru.hits t = !hits
      && Lru.misses t = !misses
      && Lru.evictions t = !evictions
      && Lru.hits t + Lru.misses t
         = List.length (List.filter (function Find _ -> true | _ -> false) ops))

let test_lru_basics () =
  (match Lru.create ~capacity:(-1) with
  | _ -> Alcotest.fail "negative capacity accepted"
  | exception Invalid_argument _ -> ());
  let t = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "add a" None (Lru.add t "a" 1);
  Alcotest.(check (option string)) "add b" None (Lru.add t "b" 2);
  Alcotest.(check (option int)) "a hits" (Some 1) (Lru.find t "a");
  (* b is now least recently used *)
  Alcotest.(check (option string)) "c evicts b" (Some "b") (Lru.add t "c" 3);
  Alcotest.(check (list string)) "recency order" [ "c"; "a" ]
    (Lru.keys_by_recency t);
  Lru.clear t;
  Alcotest.(check int) "clear empties" 0 (Lru.length t);
  Alcotest.(check int) "tallies survive clear" 1 (Lru.hits t)

(* ---- State.handle: cache accounting ---- *)

let stats_field state name =
  match List.assoc_opt name (Sv_state.cache_stats state) with
  | Some v -> v
  | None -> Alcotest.failf "cache_stats has no %s field" name

let random_request rng graphs =
  let graph = List.nth graphs (Prng.int rng (List.length graphs)) in
  let psi = if Prng.int rng 2 = 0 then "edge" else "triangle" in
  match Prng.int rng 5 with
  | 0 -> Pr.Density { graph; psi; algorithm = "coreexact" }
  | 1 -> Pr.Density { graph; psi; algorithm = "peel" }
  | 2 -> Pr.Cds { graph; psi; algorithm = "incapp" }
  | 3 -> Pr.Decompose { graph; psi }
  | _ -> Pr.Query { graph; psi; vertices = [| Prng.int rng 6 |] }

let test_state_accounting () =
  let rng = Helpers.rng 2024 in
  let graphs =
    [ ("a", Helpers.random_graph ~seed:1 ~max_n:10 ~max_m:25 ());
      ("b", Helpers.random_graph ~seed:2 ~max_n:8 ~max_m:20 ()) ]
  in
  List.iter
    (fun capacity ->
      let state = Sv_state.create ~max_cached:capacity graphs in
      let total = 120 in
      for _ = 1 to total do
        (* control requests must not perturb the cache accounting *)
        if Prng.int rng 10 = 0 then ignore (Sv_state.handle state Pr.Ping);
        ignore (Sv_state.handle state (random_request rng [ "a"; "b" ]))
      done;
      let requests = stats_field state "requests" in
      let hits = stats_field state "hits" in
      let misses = stats_field state "misses" in
      Alcotest.(check int)
        (Printf.sprintf "cap=%d: every cacheable request counted" capacity)
        total requests;
      Alcotest.(check int)
        (Printf.sprintf "cap=%d: hits + misses = requests" capacity)
        requests (hits + misses);
      Alcotest.(check bool)
        (Printf.sprintf "cap=%d: entries bounded" capacity)
        true
        (stats_field state "entries" <= capacity);
      if capacity = 0 then
        Alcotest.(check int) "cap=0 never hits" 0 hits
      else
        Alcotest.(check bool)
          (Printf.sprintf "cap=%d: repeats do hit" capacity)
          true (hits > 0))
    [ 0; 3; 64 ]

let test_state_errors_not_cached () =
  let state =
    Sv_state.create ~max_cached:8
      [ ("g", Helpers.random_graph ~seed:3 ~max_n:8 ~max_m:16 ()) ]
  in
  let bad = Pr.Density { graph = "nope"; psi = "edge"; algorithm = "peel" } in
  (match Sv_state.handle state bad with
  | Pr.Error_r _ -> ()
  | _ -> Alcotest.fail "unknown graph should be an error");
  (match Sv_state.handle state bad with
  | Pr.Error_r _ -> ()
  | _ -> Alcotest.fail "unknown graph should stay an error");
  Alcotest.(check int) "errors never enter the cache" 0
    (stats_field state "entries");
  Alcotest.(check int) "both error answers were misses" 2
    (stats_field state "misses");
  List.iter
    (fun req ->
      match Sv_state.handle state req with
      | Pr.Error_r _ -> ()
      | _ -> Alcotest.fail "invalid request should be an error")
    [ Pr.Density { graph = "g"; psi = "heptagon"; algorithm = "peel" };
      Pr.Density { graph = "g"; psi = "edge"; algorithm = "quantum" };
      Pr.Query { graph = "g"; psi = "edge"; vertices = [||] };
      Pr.Query { graph = "g"; psi = "edge"; vertices = [| 999 |] };
      Pr.Query { graph = "g"; psi = "edge"; vertices = [| -1 |] };
    ]

(* A delta tick does only the work its answers read: 50 Apply_delta
   ticks on the serve benchmark stream graph's shape, each followed by
   an incremental triangle read, allocate less per tick than one CSR
   rebuild of the graph, which no request of the tick needs.  A
   CoreExact read afterwards builds the snapshot on demand and must
   agree with the last incremental answer. *)
let test_delta_tick_allocation () =
  let g = Dsd_data.Gen.barabasi_albert ~seed:2003 ~n:2000 ~attach:3 in
  let edges = G.edges g in
  let state = Sv_state.create ~max_cached:8 [ ("s", g) ] in
  let read algorithm =
    match
      Sv_state.handle state (Pr.Density { graph = "s"; psi = "triangle"; algorithm })
    with
    | Pr.Density_r d -> d
    | _ -> Alcotest.failf "%s read not answered" algorithm
  in
  ignore (read "incremental");
  let rebuild_bytes =
    let dyn = Dsd_graph.Dynamic.of_graph g in
    let u, v = edges.(0) in
    ignore (Dsd_graph.Dynamic.remove_edge dyn u v);
    let b0 = Gc.allocated_bytes () in
    ignore (Dsd_graph.Dynamic.snapshot dyn);
    Gc.allocated_bytes () -. b0
  in
  (* tick i deletes four edges, spread over the edge array, and
     re-inserts the previous tick's *)
  let churn = 4 and ticks = 50 in
  let slice i = Array.sub edges (i * churn * 7) churn in
  let last = ref nan in
  let b0 = Gc.allocated_bytes () in
  for i = 0 to ticks - 1 do
    let adds = if i = 0 then [||] else slice (i - 1) in
    (match
       Sv_state.handle state
         (Pr.Apply_delta { graph = "s"; adds; removes = slice i })
     with
     | Pr.Apply_delta_r _ -> ()
     | _ -> Alcotest.fail "Apply_delta not answered");
    last := read "incremental"
  done;
  let per_tick = (Gc.allocated_bytes () -. b0) /. float_of_int ticks in
  if per_tick >= rebuild_bytes then
    Alcotest.failf "a tick allocated %.0f bytes, one CSR rebuild %.0f" per_tick
      rebuild_bytes;
  Alcotest.(check (float 0.)) "incremental = CoreExact on the moved graph"
    (read "coreexact") !last

(* One graph served with triangle and 4-clique incremental sessions
   over 24 Apply_delta ticks of random churn: the sessions read the graph's one handle, so the
   Stats counters count each edge change once — their delta totals
   equal the sums of the ticks' own [added]/[removed] — and every
   incremental answer has CoreExact's density on the moved graph,
   which the test tracks on its own edge set, and a fresh session's
   vertex set (CoreExact may return another set of that density). *)
let test_shared_handle_counts () =
  let g = Dsd_data.Gen.barabasi_albert ~seed:2003 ~n:300 ~attach:5 in
  let n = G.n g in
  let state = Sv_state.create ~max_cached:8 [ ("s", g) ] in
  let edges = ref (G.edges g) in
  let check_answers tick =
    let moved = G.of_edges ~n !edges in
    List.iter
      (fun psi ->
        let ctx = Printf.sprintf "tick %d %s" tick psi.P.name in
        match
          Sv_state.handle state
            (Pr.Cds { graph = "s"; psi = psi.P.name; algorithm = "incremental" })
        with
        | Pr.Cds_r { density; vertices } ->
          let core =
            (Dsd_core.Core_exact.run moved psi).Dsd_core.Core_exact.subgraph
          in
          Alcotest.(check (float 0.)) (ctx ^ ": density = CoreExact")
            core.density density;
          Alcotest.check subgraph (ctx ^ ": CDS = a fresh session's")
            (Dsd_core.Inc_dsd.query (Dsd_core.Inc_dsd.create moved psi))
            { Dsd_core.Density.density; vertices }
        | _ -> Alcotest.failf "%s: incremental cds not answered" ctx)
      [ P.triangle; P.clique 4 ]
  in
  Dsd_obs.Control.with_recording @@ fun () ->
  let rng = Helpers.rng 31 in
  let added = ref 0 and removed = ref 0 in
  check_answers 0;
  (* Churn among the 40 oldest vertices, where the densest regions
     are, so the answers move; the repeated delete and any insert of a
     present edge or a self-loop are no-ops. *)
  let hub () = Prng.int rng 40 in
  for tick = 1 to 24 do
    let core = List.filter (fun (u, v) -> u < 40 && v < 40) (Array.to_list !edges) in
    let pick () = List.nth core (Prng.int rng (List.length core)) in
    let removes = Array.init 3 (fun _ -> pick ()) in
    let removes = Array.append removes [| removes.(0) |] in
    let adds = Array.init 4 (fun _ -> (hub (), hub ())) in
    (match
       Sv_state.handle state (Pr.Apply_delta { graph = "s"; adds; removes })
     with
     | Pr.Apply_delta_r r ->
       added := !added + r.added;
       removed := !removed + r.removed
     | _ -> Alcotest.failf "tick %d: Apply_delta not answered" tick);
    let op f pairs = Array.map (fun (u, v) -> f (u, v)) pairs in
    edges :=
      Dsd_check.Delta.final_edges ~n !edges
        [| Array.append
             (op (fun (u, v) -> Dsd_graph.Dynamic.Add (u, v)) adds)
             (op (fun (u, v) -> Dsd_graph.Dynamic.Remove (u, v)) removes) |];
    check_answers tick
  done;
  match Sv_state.handle state Pr.Stats with
  | Pr.Stats_r { counters; _ } ->
    Alcotest.(check int) "delta_edges_added = sum of the ticks' added" !added
      (List.assoc "delta_edges_added" counters);
    Alcotest.(check int) "delta_edges_removed = sum of the ticks' removed"
      !removed
      (List.assoc "delta_edges_removed" counters)
  | _ -> Alcotest.fail "stats not answered"

(* ---- the differential corpus over a live socket ---- *)

(* Direct library answer for an endpoint, for comparison. *)
let api_subgraph g psi algorithm =
  let algorithm =
    match algorithm with
    | "exact" -> Api.Exact_flow
    | "coreexact" -> Api.Core_exact
    | "peel" -> Api.Peel
    | "incapp" -> Api.Inc_app
    | "coreapp" -> Api.Core_app
    | other -> Alcotest.failf "unknown algorithm %s" other
  in
  Api.densest_subgraph ~psi ~algorithm g

let corpus seed count =
  let rng = Helpers.rng seed in
  List.init count (fun i ->
      (Printf.sprintf "g%d" i, (Dsd_check.Generator.sample rng).graph))

let test_differential_corpus () =
  let graphs = corpus 701 5 in
  with_server ~max_cached:256 graphs (fun addr _state ->
      let client = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let ask req = Client.call client req in
      List.iter
        (fun (name, g) ->
          (* h = 2 and h = 3: edge density and triangle density *)
          List.iter
            (fun (psi : P.t) ->
              let check_round label req expect =
                (* cold: first time this request is ever seen *)
                (match ask req with
                | resp -> expect (label ^ " (cold)") resp
                | exception Pr.Error msg ->
                  Alcotest.failf "%s: protocol error %s" label msg);
                (* warm: bit-identical answer straight from the LRU *)
                match ask req with
                | resp -> expect (label ^ " (warm)") resp
                | exception Pr.Error msg ->
                  Alcotest.failf "%s (warm): protocol error %s" label msg
              in
              List.iter
                (fun algorithm ->
                  let expected = api_subgraph g psi algorithm in
                  check_round
                    (Printf.sprintf "density %s %s %s" name psi.P.name
                       algorithm)
                    (Pr.Density { graph = name; psi = psi.P.name; algorithm })
                    (fun label resp ->
                      match resp with
                      | Pr.Density_r d ->
                        if d <> expected.density then
                          Alcotest.failf "%s: %.17g <> api %.17g" label d
                            expected.density
                      | _ -> Alcotest.failf "%s: wrong response kind" label);
                  check_round
                    (Printf.sprintf "cds %s %s %s" name psi.P.name algorithm)
                    (Pr.Cds { graph = name; psi = psi.P.name; algorithm })
                    (fun label resp ->
                      match resp with
                      | Pr.Cds_r { density; vertices } ->
                        Alcotest.check subgraph label expected
                          { density; vertices }
                      | _ -> Alcotest.failf "%s: wrong response kind" label))
                [ "exact"; "coreexact"; "peel"; "incapp"; "coreapp" ];
              let core = Api.core_numbers g psi in
              let kmax = Array.fold_left max 0 core in
              check_round
                (Printf.sprintf "decompose %s %s" name psi.P.name)
                (Pr.Decompose { graph = name; psi = psi.P.name })
                (fun label resp ->
                  match resp with
                  | Pr.Decompose_r r ->
                    if r.kmax <> kmax then
                      Alcotest.failf "%s: kmax %d <> api %d" label r.kmax kmax;
                    Alcotest.check Helpers.sorted_array label core r.core
                  | _ -> Alcotest.failf "%s: wrong response kind" label);
              if G.n g > 0 then begin
                let q = [| G.n g / 2 |] in
                let expected =
                  (Dsd_core.Query_dsd.run g psi ~query:q)
                    .Dsd_core.Query_dsd.subgraph
                in
                check_round
                  (Printf.sprintf "query %s %s" name psi.P.name)
                  (Pr.Query { graph = name; psi = psi.P.name; vertices = q })
                  (fun label resp ->
                    match resp with
                    | Pr.Query_r { density; vertices } ->
                      Alcotest.check subgraph label expected
                        { density; vertices }
                    | _ -> Alcotest.failf "%s: wrong response kind" label)
              end;
              let expected =
                List.map
                  (fun (sg : Dsd_core.Density.subgraph) ->
                    (sg.density, sg.vertices))
                  (Dsd_core.Topk_lds.run ~k:2 g psi).Dsd_core.Topk_lds.regions
              in
              check_round
                (Printf.sprintf "topk %s %s" name psi.P.name)
                (Pr.Topk { graph = name; psi = psi.P.name; k = 2 })
                (fun label resp ->
                  match resp with
                  | Pr.Topk_r { regions } ->
                    if regions <> expected then
                      Alcotest.failf "%s: served regions differ from api"
                        label
                  | _ -> Alcotest.failf "%s: wrong response kind" label);
              let expected_all =
                List.map
                  (fun (lvl : Dsd_core.Ld_decomposition.level) ->
                    (lvl.marginal_density, lvl.vertices))
                  (Dsd_core.Ld_decomposition.decompose g psi)
                    .Dsd_core.Ld_decomposition.levels
              in
              (* full chain and a truncated variant: distinct LRU keys *)
              List.iter
                (fun lv ->
                  let expected =
                    if lv = 0 then expected_all
                    else List.filteri (fun i _ -> i < lv) expected_all
                  in
                  check_round
                    (Printf.sprintf "hierarchy %s %s levels=%d" name
                       psi.P.name lv)
                    (Pr.Hierarchy
                       { graph = name; psi = psi.P.name; levels = lv })
                    (fun label resp ->
                      match resp with
                      | Pr.Hierarchy_r { levels } ->
                        if levels <> expected then
                          Alcotest.failf "%s: served levels differ from api"
                            label
                      | _ -> Alcotest.failf "%s: wrong response kind" label))
                [ 0; 1 ])
            [ P.edge; P.triangle ])
        graphs;
      (* the warm half of every round must have come from the cache *)
      match ask Pr.Stats with
      | Pr.Stats_r { cache; _ } ->
        let get k = Option.get (List.assoc_opt k cache) in
        Alcotest.(check int) "hits + misses = requests" (get "requests")
          (get "hits" + get "misses");
        Alcotest.(check bool) "roughly half the rounds hit" true
          (get "hits" >= get "requests" / 2)
      | _ -> Alcotest.fail "stats: wrong response kind")

let test_tcp_transport () =
  (* Same protocol over TCP; one round trip is enough to cover the
     address family.  The port is derived from the pid to keep parallel
     test runs off each other's toes. *)
  let port = 20000 + (Unix.getpid () mod 20000) in
  let g = Helpers.random_graph ~seed:5 ~max_n:10 ~max_m:25 () in
  let addr = Server.Tcp { host = "127.0.0.1"; port } in
  let state = Sv_state.create ~max_cached:4 [ ("g", g) ] in
  match Server.start ~state addr with
  | exception Unix.Unix_error (EADDRINUSE, _, _) ->
    (* someone else owns the port: the Unix-socket tests cover the rest *)
    ()
  | server ->
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Client.once addr Pr.Shutdown) with _ -> ());
        Server.join server)
      (fun () ->
        match
          Client.once addr
            (Pr.Density { graph = "g"; psi = "edge"; algorithm = "peel" })
        with
        | Pr.Density_r d ->
          let expected = (api_subgraph g P.edge "peel").density in
          Alcotest.(check bool) "tcp answer is bit-identical" true
            (d = expected)
        | _ -> Alcotest.fail "tcp: wrong response kind")

(* ---- fault injection ---- *)

let connect_raw addr =
  match addr with
  | Server.Unix_domain path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Server.Tcp _ -> assert false

let send_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* What may happen after feeding the server garbage: a structured
   error frame, or a closed/reset connection.  Anything else — a
   non-error response, a hang past the deadline — is a failure. *)
let expect_error_or_close ~label fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  match Pr.read_frame fd with
  | Some (tag, body) -> (
    match Pr.decode_response tag body with
    | Pr.Error_r _ -> ()
    | _ -> Alcotest.failf "%s: server answered garbage with success" label
    | exception Pr.Error _ ->
      Alcotest.failf "%s: server answered garbage with garbage" label)
  | None -> ()
  | exception Pr.Error _ -> ()
  | exception End_of_file -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
    Alcotest.failf "%s: server hung instead of erroring or closing" label

let alive addr =
  match Client.once addr Pr.Ping with
  | Pr.Pong -> true
  | _ -> false
  | exception _ -> false

let test_fault_injection () =
  let g = Helpers.random_graph ~seed:7 ~max_n:10 ~max_m:25 () in
  with_server ~receive_timeout_s:0.4 [ ("g", g) ] (fun addr _state ->
      let rng = Helpers.rng 4242 in
      for i = 1 to 40 do
        let label, bytes = Dsd_check.Generator.malformed_frame rng in
        let label = Printf.sprintf "case %d (%s)" i label in
        let fd = connect_raw addr in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (try send_all fd bytes
             with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
               (* server already rejected and closed: that is a pass *)
               ());
            expect_error_or_close ~label fd);
        (* whatever just happened must not have taken the server down *)
        if not (alive addr) then
          Alcotest.failf "%s: server no longer answers ping" label
      done)

let test_disconnect_mid_request () =
  let g = Helpers.random_graph ~seed:9 ~max_n:8 ~max_m:16 () in
  with_server ~receive_timeout_s:0.4 [ ("g", g) ] (fun addr _state ->
      (* announce a 64-byte request, send 3 bytes, vanish *)
      let fd = connect_raw addr in
      send_all fd "\x00\x00\x00\x40\x01\x03\x00";
      Unix.close fd;
      Alcotest.(check bool) "server survives a mid-request disconnect" true
        (alive addr);
      (* same, but the client lingers silently: the receive timeout
         must reclaim the connection rather than starve the accept
         loop *)
      let fd = connect_raw addr in
      send_all fd "\x00\x00\x00\x40\x01\x03\x00";
      Unix.sleepf 0.7;
      Alcotest.(check bool) "server reclaims a silent connection" true
        (alive addr);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* an instantly-closed connection is not an error either *)
      let fd = connect_raw addr in
      Unix.close fd;
      Alcotest.(check bool) "server survives connect-then-close" true
        (alive addr))

(* A receive timeout the socket option would read as "none" (0 or
   negative) or reject (nan, infinity) would let one silent peer hold
   the accept loop forever: start refuses it before binding. *)
let test_receive_timeout_rejected () =
  let state = Sv_state.create ~max_cached:1 [] in
  List.iter
    (fun v ->
      let path = fresh_socket () in
      let addr = Server.Unix_domain path in
      match Server.start ~receive_timeout_s:v ~state addr with
      | exception Invalid_argument _ ->
        Alcotest.(check bool)
          (Printf.sprintf "timeout %g: nothing bound" v)
          false (Sys.file_exists path)
      | server ->
        (try ignore (Client.once addr Pr.Shutdown) with _ -> ());
        Server.join server;
        Alcotest.failf "receive timeout %g was accepted" v)
    [ 0.; -1.; Float.nan; Float.infinity ]

(* A client that connects the moment the socket path appears must get
   through: the path appears only once the socket listens.  Across 50
   starts, a watcher on its own domain (so it runs while [start] does)
   retries a connect for as long as the path is missing (ENOENT), and
   any other outcome than a connection fails the test.  The server
   starts only once its watcher is polling, so the watcher is mid-loop
   while the socket is bound. *)
let test_path_appears_listening () =
  let state = Sv_state.create ~max_cached:1 [] in
  for i = 1 to 50 do
    let path = fresh_socket () in
    let addr = Server.Unix_domain path in
    let polling = Atomic.make false in
    let watcher =
      Domain.spawn (fun () ->
          let deadline = Unix.gettimeofday () +. 10. in
          let rec attempt () =
            Atomic.set polling true;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            let outcome =
              match Unix.connect fd (Unix.ADDR_UNIX path) with
              | () -> None
              | exception Unix.Unix_error (e, _, _) ->
                Some (e, Unix.error_message e)
            in
            Unix.close fd;
            match outcome with
            | Some (Unix.ENOENT, _) when Unix.gettimeofday () < deadline ->
              attempt ()
            | _ -> Option.map snd outcome
          in
          attempt ())
    in
    while not (Atomic.get polling) do
      Domain.cpu_relax ()
    done;
    let server = Server.start ~state addr in
    let failure = Domain.join watcher in
    (try ignore (Client.once addr Pr.Shutdown) with _ -> ());
    Server.join server;
    Option.iter (Alcotest.failf "start %d: connect failed: %s" i) failure
  done

(* A daemon records for its whole life, and no endpoint reads the
   per-probe log: with recording on, 12 ticks of an Apply_delta and an
   incremental read through a live server leave [Probe.count ()] at no
   more than the last read's probes (the first read alone, a cold
   bisection, makes dozens). *)
let test_probe_log_bounded () =
  let g = Dsd_data.Gen.barabasi_albert ~seed:2003 ~n:300 ~attach:3 in
  let edges = G.edges g in
  Dsd_obs.Control.with_recording @@ fun () ->
  with_server [ ("s", g) ] @@ fun addr _state ->
  let probes () = Dsd_obs.Counter.get Dsd_obs.Counter.Core_iterations in
  let last = ref 0 in
  for i = 0 to 11 do
    let adds = if i = 0 then [||] else [| edges.(i - 1) |] in
    ignore
      (Client.once addr
         (Pr.Apply_delta { graph = "s"; adds; removes = [| edges.(i) |] }));
    let before = probes () in
    (match
       Client.once addr
         (Pr.Density { graph = "s"; psi = "triangle"; algorithm = "incremental" })
     with
     | Pr.Density_r _ -> ()
     | _ -> Alcotest.failf "tick %d: incremental read not answered" i);
    last := probes () - before
  done;
  let kept = Dsd_obs.Probe.count () in
  if kept > !last then
    Alcotest.failf "the probe log holds %d probes after 12 ticks (last read: %d)"
      kept !last

(* Targeted tag-0x0a (hierarchy) frame faults: a well-formed request
   must answer, and truncated / oversized / lying-body variants of the
   same frame must produce a structured error or a clean close, never a
   hang or a crash. *)
let test_hierarchy_frame_faults () =
  let g = Helpers.random_graph ~seed:11 ~max_n:8 ~max_m:16 () in
  with_server ~receive_timeout_s:0.4 [ ("g", g) ] (fun addr _state ->
      let frame_of ~len payload =
        let b = Bytes.create (4 + String.length payload) in
        Bytes.set_int32_be b 0 (Int32.of_int len);
        Bytes.blit_string payload 0 b 4 (String.length payload);
        Bytes.to_string b
      in
      let tag, body =
        Pr.encode_request (Pr.Hierarchy { graph = "g"; psi = "edge"; levels = 0 })
      in
      let payload = Printf.sprintf "\x01%c%s" (Char.chr tag) body in
      (* sanity anchor: the well-formed frame gets a real answer *)
      let fd = connect_raw addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send_all fd (frame_of ~len:(String.length payload) payload);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
          match Pr.read_frame fd with
          | Some (tag, body) -> (
            match Pr.decode_response tag body with
            | Pr.Hierarchy_r { levels } ->
              Alcotest.(check bool) "well-formed 0x0a answers levels" true
                (List.length levels > 0)
            | _ -> Alcotest.fail "well-formed 0x0a: wrong response kind")
          | None -> Alcotest.fail "well-formed 0x0a: connection closed");
      let faults =
        [ (* body cut short of its own declared frame length: the read
             side times out waiting for bytes that never come *)
          ( "truncated 0x0a body",
            frame_of
              ~len:(String.length payload)
              (String.sub payload 0 (String.length payload - 5)) );
          (* length prefix beyond max_frame: rejected before allocation *)
          ("oversized 0x0a frame", frame_of ~len:(Pr.max_frame + 3) payload);
          (* well-sized frame whose body lies about its string length *)
          ( "corrupt 0x0a string length",
            (* smash the graph string's 8-byte length prefix (body
               starts after version + tag) so decode reads an absurd
               string length against a tiny body *)
            let b = Bytes.of_string payload in
            Bytes.fill b 2 8 '\xff';
            let smashed = Bytes.to_string b in
            frame_of ~len:(String.length smashed) smashed );
          (* trailing garbage after a complete body *)
          ( "trailing bytes after 0x0a body",
            let padded = payload ^ "\x00\x00" in
            frame_of ~len:(String.length padded) padded ) ]
      in
      List.iter
        (fun (label, bytes) ->
          let fd = connect_raw addr in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (try send_all fd bytes
               with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
              expect_error_or_close ~label fd);
          if not (alive addr) then
            Alcotest.failf "%s: server no longer answers ping" label)
        faults)

let hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let frame_hex (tag, body) = Printf.sprintf "%02x:%s" tag (hex body)

let test_request_codec_roundtrip () =
  let reqs =
    [ Pr.Ping;
      Pr.Stats;
      Pr.Shutdown;
      Pr.Density { graph = "g"; psi = "triangle"; algorithm = "exact" };
      Pr.Cds { graph = ""; psi = "edge"; algorithm = "coreapp" };
      Pr.Decompose { graph = "a b"; psi = "diamond" };
      Pr.Query { graph = "g"; psi = "edge"; vertices = [| 0; 5; 1_000_000 |] };
      Pr.Query { graph = "g"; psi = "edge"; vertices = [||] };
      Pr.Topk { graph = "g"; psi = "triangle"; k = 3 };
      Pr.Topk { graph = ""; psi = "edge"; k = -1 };
      Pr.Hierarchy { graph = "g"; psi = "triangle"; levels = 2 };
      Pr.Hierarchy { graph = ""; psi = "edge"; levels = 0 };
      Pr.Apply_delta
        { graph = "g"; adds = [| (0, 1); (7, 2) |]; removes = [||] };
      Pr.Apply_delta { graph = ""; adds = [||]; removes = [| (3, 3) |] };
    ]
  in
  List.iter
    (fun req ->
      let tag, body = Pr.encode_request req in
      Alcotest.(check bool) "request round-trips" true
        (Pr.decode_request tag body = req))
    reqs;
  let resps =
    [ Pr.Pong;
      Pr.Shutdown_r;
      Pr.Density_r 2.6349206349206349;
      Pr.Density_r 0.1;  (* not representable exactly: bits must survive *)
      Pr.Density_r 0.;
      Pr.Cds_r { density = 1.5; vertices = [| 1; 2; 3 |] };
      Pr.Decompose_r { kmax = 3; core = [| 0; 1; 2; 3 |] };
      Pr.Query_r { density = 7.25; vertices = [||] };
      Pr.Topk_r { regions = [] };
      Pr.Topk_r
        { regions = [ (2.5, [| 0; 1; 2 |]); (0.1, [||]) ] };
      Pr.Hierarchy_r { levels = [] };
      Pr.Hierarchy_r
        { levels = [ (2.5, [| 0; 1; 2 |]); (0., [| 7 |]) ] };
      Pr.Error_r "nope";
      Pr.Apply_delta_r { n = 9; m = 0; added = 2; removed = -1 };
      Pr.Stats_r
        { counters = [ ("a", 1); ("b", 0) ];
          cache = [ ("requests", 3) ];
          graphs = [ "g n=4 m=3" ] };
    ]
  in
  List.iter
    (fun resp ->
      let tag, body = Pr.encode_response resp in
      Alcotest.(check bool) "response round-trips" true
        (Pr.decode_response tag body = resp))
    resps;
  (* The wire format itself, not just encoder/decoder agreement: one
     frame per constructor, as "tag:body" in hex, against fixed
     literals, so an encoder and decoder that drift together still
     fail.  Any change to a tag, kind byte, field order or length
     prefix breaks these. *)
  let pin label expected frame =
    Alcotest.(check string) label expected (frame_hex frame)
  in
  List.iter
    (fun (label, req, expected) -> pin label expected (Pr.encode_request req))
    [ ("ping", Pr.Ping, "01:");
      ("stats", Pr.Stats, "02:");
      ( "density",
        Pr.Density { graph = "g"; psi = "edge"; algorithm = "exact" },
        "03:0000000000000001670000000000000004656467650000000000000005657861\
         6374" );
      ( "cds",
        Pr.Cds { graph = "a b"; psi = "triangle"; algorithm = "peel" },
        "04:00000000000000036120620000000000000008747269616e676c650000000000\
         0000047065656c" );
      ( "decompose",
        Pr.Decompose { graph = ""; psi = "edge" },
        "05:0000000000000000000000000000000465646765" );
      ( "query",
        Pr.Query { graph = "g"; psi = "edge"; vertices = [| 0; 5 |] },
        "06:0000000000000001670000000000000004656467650000000000000002000000\
         00000000000000000000000005" );
      ("shutdown", Pr.Shutdown, "07:");
      ( "apply-delta",
        Pr.Apply_delta
          { graph = "g"; adds = [| (0, 1) |]; removes = [| (2, 3) |] },
        "08:0000000000000001670000000000000002000000000000000000000000000000\
         01000000000000000200000000000000020000000000000003" );
      ( "topk",
        Pr.Topk { graph = "g"; psi = "edge"; k = 2 },
        "09:0000000000000001670000000000000004656467650000000000000002" );
      ( "hierarchy",
        Pr.Hierarchy { graph = "g"; psi = "edge"; levels = 0 },
        "0a:0000000000000001670000000000000004656467650000000000000000" ) ];
  List.iter
    (fun (label, resp, expected) ->
      pin label expected (Pr.encode_response resp))
    [ ("pong", Pr.Pong, "40:01");
      ( "stats_r",
        Pr.Stats_r
          { counters = [ ("a", 1) ];
            cache = [ ("hits", 2) ];
            graphs = [ "g n=4 m=3" ] },
        "40:020000000000000001000000000000000161000000000000000100000000000000\
         0100000000000000046869747300000000000000020000000000000001000000\
         000000000967206e3d34206d3d33" );
      ("density_r", Pr.Density_r 0.1, "40:033fb999999999999a");
      ( "cds_r",
        Pr.Cds_r { density = 1.5; vertices = [| 1; 2 |] },
        "40:043ff800000000000000000000000000020000000000000001000000000000\
         0002" );
      ( "decompose_r",
        Pr.Decompose_r { kmax = 1; core = [| 0; 1 |] },
        "40:050000000000000001000000000000000200000000000000000000000000000001" );
      ( "query_r",
        Pr.Query_r { density = 7.25; vertices = [||] },
        "40:06401d0000000000000000000000000000" );
      ( "apply-delta_r",
        Pr.Apply_delta_r { n = 4; m = 3; added = 1; removed = 0 },
        "40:080000000000000004000000000000000300000000000000010000000000000000" );
      ( "topk_r",
        Pr.Topk_r { regions = [ (2.5, [| 0 |]) ] },
        "40:090000000000000001400400000000000000000000000000010000000000000000" );
      ( "hierarchy_r",
        Pr.Hierarchy_r { levels = [ (1., [| 3 |]); (0.5, [| 1; 2 |]) ] },
        "40:0a00000000000000023ff00000000000000000000000000001000000000000\
         00033fe0000000000000000000000000000200000000000000010000000000000002" );
      ("shutdown_r", Pr.Shutdown_r, "40:07");
      ("error_r", Pr.Error_r "nope", "7f:00000000000000046e6f7065") ];
  (* Cache keys: exactly the six query kinds, keyed as "<decimal tag>:"
     followed by the request body; control and mutation requests get
     none. *)
  let cacheable =
    [ Pr.Density { graph = "g"; psi = "edge"; algorithm = "exact" };
      Pr.Cds { graph = "a b"; psi = "triangle"; algorithm = "peel" };
      Pr.Decompose { graph = ""; psi = "edge" };
      Pr.Query { graph = "g"; psi = "edge"; vertices = [| 0; 5 |] };
      Pr.Topk { graph = "g"; psi = "edge"; k = 2 };
      Pr.Hierarchy { graph = "g"; psi = "edge"; levels = 0 } ]
  in
  List.iter
    (fun req ->
      let tag, body = Pr.encode_request req in
      let key = Printf.sprintf "%d:%s" tag body in
      Alcotest.(check (option string)) "cacheable request keyed by its frame"
        (Some key) (Pr.request_key req))
    cacheable;
  List.iter
    (fun req ->
      Alcotest.(check (option string)) "uncacheable request has no key" None
        (Pr.request_key req))
    [ Pr.Ping;
      Pr.Stats;
      Pr.Shutdown;
      Pr.Apply_delta { graph = "g"; adds = [| (0, 1) |]; removes = [||] } ];
  List.iter
    (fun graph ->
      List.iter
        (fun req ->
          Alcotest.(check (option string)) "key_graph recovers the graph"
            (Some graph)
            (Option.bind (Pr.request_key req) Pr.key_graph))
        [ Pr.Density { graph; psi = "edge"; algorithm = "peel" };
          Pr.Cds { graph; psi = "edge"; algorithm = "exact" };
          Pr.Decompose { graph; psi = "triangle" };
          Pr.Query { graph; psi = "edge"; vertices = [| 1 |] };
          Pr.Topk { graph; psi = "edge"; k = 1 };
          Pr.Hierarchy { graph; psi = "edge"; levels = 3 } ])
    [ "g"; ""; "a b" ];
  List.iter
    (fun key ->
      Alcotest.(check (option string)) "key_graph rejects a non-key" None
        (Pr.key_graph key))
    [ "x"; "1:"; "3:garbage"; "8:\000\000\000\000\000\000\000\001g" ];
  (* Decode errors name the offending byte. *)
  let error_of f =
    match f () with
    | _ -> "no error"
    | exception Pr.Error msg -> msg
  in
  List.iter
    (fun (expected, f) ->
      Alcotest.(check string) expected expected (error_of f))
    [ ( "unknown request tag 0x0b",
        fun () -> ignore (Pr.decode_request 0x0b "") );
      ( "unknown request tag 0x00",
        fun () -> ignore (Pr.decode_request 0x00 "junk") );
      ( "unknown response kind 0x0b",
        fun () -> ignore (Pr.decode_response 0x40 "\x0b") );
      ( "unknown response kind 0x40",
        fun () -> ignore (Pr.decode_response 0x40 "\x40") );
      ( "unknown response tag 0x41",
        fun () -> ignore (Pr.decode_response 0x41 "") );
      ( "unknown response tag 0x01",
        fun () -> ignore (Pr.decode_response 0x01 "\x01") );
      ("truncated body", fun () -> ignore (Pr.decode_response 0x40 "")) ]

let suite =
  [ Alcotest.test_case "snapshot: empty graph" `Quick test_snapshot_empty;
    test_snapshot_roundtrip ();
    Alcotest.test_case "snapshot: corruption is rejected" `Quick
      test_snapshot_corruption;
    Alcotest.test_case "snapshot: non-snapshot files" `Quick
      test_snapshot_not_a_snapshot;
    Alcotest.test_case "lru: basics and eviction order" `Quick test_lru_basics;
    test_lru_model ();
    Alcotest.test_case "state: hits + misses = requests" `Quick
      test_state_accounting;
    Alcotest.test_case "state: errors are never cached" `Quick
      test_state_errors_not_cached;
    Alcotest.test_case "codec: request/response round trip" `Quick
      test_request_codec_roundtrip;
    Alcotest.test_case "socket: differential corpus, cold and warm" `Slow
      test_differential_corpus;
    Alcotest.test_case "socket: tcp transport" `Quick test_tcp_transport;
    Alcotest.test_case "socket: malformed frames" `Quick test_fault_injection;
    Alcotest.test_case "socket: hierarchy (0x0a) frame faults" `Quick
      test_hierarchy_frame_faults;
    Alcotest.test_case "socket: mid-request disconnects" `Quick
      test_disconnect_mid_request;
    Alcotest.test_case "socket: non-positive receive timeout rejected" `Quick
      test_receive_timeout_rejected;
    Alcotest.test_case "state: a delta tick builds no CSR" `Quick
      test_delta_tick_allocation;
    Alcotest.test_case "socket: the path appears only once listening" `Quick
      test_path_appears_listening;
    Alcotest.test_case "state: incremental sessions share one handle" `Quick
      test_shared_handle_counts;
    Alcotest.test_case "socket: the probe log holds one request" `Quick
      test_probe_log_bounded;
  ]
