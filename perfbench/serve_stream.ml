(* serve_stream — one persistent Unix-socket connection to
   `dsd serve --domains 1`, loaded from binary snapshots of two graphs:
   a static ca_hepth-like SSCA graph and a Barabási-Albert stream graph
   over a sliding edge window.  A closed loop with one caller: the
   protocol has no pipelining ids and the daemon serves one connection
   at a time, so a second caller would only measure that serial loop.

   The script is a series of ticks.  Each tick
   1. sends an Apply_delta inserting the next stream edges and deleting
      the oldest;
   2. asks for the stream graph's incremental density for triangle and
      4-clique (the fresh answers);
   3. sends reads whose keys were answered since the last write to their
      graph, so the result LRU answers them: both stream keys again, and
      reads of the static graph drawn from a hot set smaller than
      --max-cached, filled during set-up.

   Why: it is the only workload through codec, socket and cache, and it
   uses the flow layer the other way round: Inc_dsd arc surgery lowers
   capacities and drains the excess under committed flow.  A change
   that speeds static probes but slows this warm repair shows here, and
   so does one that adds per-request overhead.

   op_ms.* here is the fresh path: from sending a tick's Apply_delta to
   its last fresh answer.  The LRU-answered Density reads are a class of
   their own, cache.hit_ms.*; their round trip is tens of microseconds
   and its median moved by up to half between runs of one seed on the
   shared reference box, too much to gate on.

   Predictions:
   - a serving change moves the codec, socket and cache numbers and
     ops_per_s here only;
   - a flow or search change must not raise retarget.drained or op_ms.*
     here; the fresh path is most of ops_per_s;
   - a peel or enumerate change leaves cache.hit_ms.* unmoved. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Gen = Dsd_data.Gen
module Prng = Dsd_util.Prng
module Protocol = Dsd_serve.Protocol
module Client = Dsd_serve.Client
module Counter = Dsd_obs.Counter

let max_cached = 64
let stream_psis = [ P.triangle; P.clique 4 ]

(* Edge changes per tick, each way. *)
let churn = 4

(* Reads per tick: both stream keys again plus this many static ones. *)
let static_reads = 4

(* Nominal ticks per second on the reference box; sizes the script. *)
let ticks_per_s = 30.

type tick = {
  adds : (int * int) array;
  removes : (int * int) array;
  reads : Protocol.request array;  (** all answered by the LRU *)
}

type script = {
  static_g : G.t;
  stream_g : G.t;
  hot : Protocol.request array;  (** static reads, answered once in warm-up *)
  ticks : tick array;
}

let fresh_requests =
  List.map
    (fun psi ->
      Protocol.Density
        { graph = "stream"; psi = psi.P.name; algorithm = "incremental" })
    stream_psis

let warmup_requests s = Array.to_list s.hot @ fresh_requests

let tick_requests t =
  (Protocol.Apply_delta { graph = "stream"; adds = t.adds; removes = t.removes }
   :: fresh_requests)
  @ Array.to_list t.reads

(* The static hot set: 17 keys, plus the two stream keys, well under
   --max-cached, so nothing is ever evicted. *)
let hot_set rng g =
  let density psi algorithm =
    Protocol.Density { graph = "static"; psi; algorithm }
  in
  let query psi =
    Protocol.Query
      { graph = "static"; psi; vertices = [| Prng.int rng (G.n g) |] }
  in
  [| density "edge" "coreexact"; density "triangle" "coreexact";
     density "4-clique" "coreexact"; density "edge" "peel";
     density "triangle" "incapp"; density "triangle" "coreapp";
     Protocol.Cds { graph = "static"; psi = "edge"; algorithm = "coreexact" };
     Protocol.Cds { graph = "static"; psi = "triangle"; algorithm = "coreexact" };
     Protocol.Decompose { graph = "static"; psi = "edge" };
     Protocol.Decompose { graph = "static"; psi = "triangle" };
     Protocol.Topk { graph = "static"; psi = "triangle"; k = 3 };
     Protocol.Hierarchy { graph = "static"; psi = "triangle"; levels = 0 };
     Protocol.Hierarchy { graph = "static"; psi = "triangle"; levels = 3 };
     query "edge"; query "triangle"; query "triangle"; query "4-clique" |]

let norm (u, v) = if u < v then (u, v) else (v, u)

(* The stream: the initial edges in a fixed age order form a window of
   fixed size; each tick inserts [churn] new edges (one endpoint
   uniform, the other an endpoint of a random live edge, so degrees stay
   heavy-tailed) and deletes the [churn] oldest.  Like the graph shapes
   ({!Inputs}), the stream's structure comes from a fixed seed and the
   workload seed relabels it.  Drawn from the workload seed, the dense
   region drifted differently in every run, and ops_per_s spread by a
   third over five seeds, about twice its spread with the structure
   fixed. *)
let stream ~ticks =
  let rng = Prng.create 2004 in
  let g = Gen.barabasi_albert ~seed:2003 ~n:2000 ~attach:3 in
  let ring = G.edges g in
  Prng.shuffle rng ring;
  let m = Array.length ring and n = G.n g in
  let live = Hashtbl.create (2 * m) in
  Array.iter (fun e -> Hashtbl.replace live e ()) ring;
  let head = ref 0 in
  let new_edge () =
    let rec draw () =
      let u = Prng.int rng n in
      let a, b = ring.(Prng.int rng m) in
      let e = norm (u, if Prng.bool rng then a else b) in
      if fst e = snd e || Hashtbl.mem live e then draw () else e
    in
    let e = draw () in
    Hashtbl.replace live e ();
    e
  in
  let deltas =
    Array.init ticks (fun _ ->
        let adds = Array.init churn (fun _ -> new_edge ()) in
        let removes =
          Array.init churn (fun i ->
              let slot = (!head + i) mod m in
              let e = ring.(slot) in
              Hashtbl.remove live e;
              ring.(slot) <- adds.(i);
              e)
        in
        head := (!head + churn) mod m;
        (adds, removes))
  in
  (g, deltas)

let make_script ~seed ~ticks =
  let rng = Prng.create seed in
  let static_g = Inputs.relabel rng (Gen.ssca ~seed:2001 ~n:2000 ~max_clique:8) in
  let hot = hot_set rng static_g in
  let base, deltas = stream ~ticks in
  let perm = Inputs.permutation rng (G.n base) in
  let label = Array.map (fun (u, v) -> norm (perm.(u), perm.(v))) in
  let ticks =
    Array.map
      (fun (adds, removes) ->
        let reads =
          Array.append (Array.of_list fresh_requests)
            (Array.init static_reads (fun _ -> Prng.choose rng hot))
        in
        { adds = label adds; removes = label removes; reads })
      deltas
  in
  { static_g;
    stream_g = G.of_edges ~n:(G.n base) (label (G.edges base));
    hot;
    ticks }

(* ---- the daemon ---- *)

let socket = "d.sock"

type daemon = { pid : int; conn : Client.t }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Waits up to [limit] seconds for [pid] to end, then kills it; always
   reaps it. *)
let reap ?(limit = 10.) pid =
  let deadline = Measure.now () +. limit in
  let rec wait () =
    if exited pid then ()
    else if Measure.now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap ~limit:5. pid

(* One raw ping on a fresh connection: true once the daemon answers. *)
let pong () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> false
  | () -> (
    let tag, body = Protocol.encode_request Protocol.Ping in
    Protocol.write_frame fd ~tag body;
    match Protocol.read_frame fd with
    | Some (tag, body) -> Protocol.decode_response tag body = Protocol.Pong
    | None -> false)

(* Starts the daemon on the snapshots in the current directory and
   waits for its first Pong; the caller owns killing it on failure. *)
let start dsd ~on_pid =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close log)
      (fun () ->
        Unix.create_process dsd
          [| dsd; "serve"; "--socket"; socket; "--graph"; "static=static.snap";
             "--graph"; "stream=stream.snap"; "--domains"; "1"; "--max-cached";
             string_of_int max_cached |]
          null log log)
  in
  on_pid pid;
  let deadline = Measure.now () +. 60. in
  let rec wait () =
    if exited pid then failwith "dsd serve exited before its first Pong"
    else if pong () then ()
    else if Measure.now () > deadline then failwith "dsd serve never answered"
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  { pid; conn = Client.connect (Dsd_serve.Server.Unix_domain socket) }

let shutdown d =
  (match Client.call d.conn Protocol.Shutdown with
   | Protocol.Shutdown_r -> ()
   | _ -> failwith "Shutdown not acknowledged");
  Client.close d.conn;
  reap d.pid

let encoded resp =
  let tag, body = Protocol.encode_response resp in
  string_of_int tag ^ ":" ^ body

let digest resp = Digest.string (encoded resp)

let stats d =
  match Client.call d.conn Protocol.Stats with
  | Protocol.Stats_r { counters; cache; _ } -> (counters, cache)
  | _ -> failwith "Stats not answered"

(* ---- one session: set-up, then the script ---- *)

type session = {
  parts : (string * float) list;  (** set-up phases of the last set-up *)
  setup_s : float;
  fresh : float array;  (** seconds per tick, Apply_delta to last fresh answer *)
  hits : float array;  (** seconds per LRU-answered Density read *)
  reads : int;  (** LRU-answered reads of every kind *)
  ops_per_s : float;
  rss_mb : float;
  digests : string array;  (** every response, warm-up first *)
  changed : int;  (** edge ops that changed the graph, per Apply_delta_r *)
  errors : string list;  (** error responses *)
  before : (string * int) list * (string * int) list;  (** Stats after warm-up *)
  after : (string * int) list * (string * int) list;  (** Stats after the script *)
  ping_ms : float array;  (** traced sessions only *)
  gc : (string * float) list;  (** the client's GC over the script *)
}

(* Set-up: generate, write snapshots, start the daemon, wait for Pong,
   warm the caches.  Returns the live daemon and the phase times. *)
let setup dsd ~seed ~ticks ~on_pid =
  let script, gen_s = Measure.timed (fun () -> make_script ~seed ~ticks) in
  let (), snapshot_s =
    Measure.timed (fun () ->
        ignore (Dsd_serve.Snapshot.write "static.snap" script.static_g);
        ignore (Dsd_serve.Snapshot.write "stream.snap" script.stream_g))
  in
  let d, ready_s = Measure.timed (fun () -> start dsd ~on_pid) in
  let warm, warmup_s =
    Measure.timed (fun () -> List.map (Client.call d.conn) (warmup_requests script))
  in
  ( script,
    d,
    warm,
    [ ("setup.gen_s", gen_s); ("setup.snapshot_s", snapshot_s);
      ("setup.ready_s", ready_s); ("setup.warmup_s", warmup_s) ] )

let session dsd ~seed ~ticks ~setups ~traced =
  let pid = ref None in
  let on_pid p = pid := Some p in
  Fun.protect
    ~finally:(fun () ->
      match !pid with
      | Some p when not (exited p) -> kill p
      | _ -> ())
  @@ fun () ->
  let rec set_up k acc =
    let script, d, warm, parts = setup dsd ~seed ~ticks ~on_pid in
    let acc = parts :: acc in
    if k <= 1 then (script, d, warm, acc)
    else begin
      shutdown d;
      pid := None;
      set_up (k - 1) acc
    end
  in
  let script, d, warm, all_parts = set_up setups [] in
  let total parts = List.fold_left (fun a (_, s) -> a +. s) 0. parts in
  let parts =
    List.map
      (fun (name, _) ->
        ( name,
          Measure.median
            (Array.of_list (List.map (List.assoc name) all_parts)) ))
      (List.hd all_parts)
  in
  let errors = ref [] in
  let responses = ref (List.rev warm) in
  let call req =
    let resp = Client.call d.conn req in
    (match resp with
     | Protocol.Error_r msg -> errors := msg :: !errors
     | _ -> ());
    responses := resp :: !responses;
    resp
  in
  let before = stats d in
  let n = Array.length script.ticks in
  let fresh = Array.make n 0. in
  let hits = ref [] and reads = ref 0. and nreads = ref 0 and changed = ref 0 in
  let g0 = Measure.gc_mark () in
  Array.iteri
    (fun i t ->
      let t0 = Measure.now () in
      let applied =
        call (Protocol.Apply_delta { graph = "stream"; adds = t.adds; removes = t.removes })
      in
      List.iter (fun r -> ignore (call r)) fresh_requests;
      fresh.(i) <- Measure.now () -. t0;
      (match applied with
       | Protocol.Apply_delta_r { added; removed; _ } ->
         changed := !changed + added + removed
       | _ -> ());
      Array.iter
        (fun r ->
          let t0 = Measure.now () in
          ignore (call r);
          let dt = Measure.now () -. t0 in
          reads := !reads +. dt;
          incr nreads;
          match r with Protocol.Density _ -> hits := dt :: !hits | _ -> ())
        t.reads)
    script.ticks;
  let gc = Measure.gc_metrics g0 (Measure.gc_mark ()) in
  let requests = n * (1 + List.length fresh_requests) + !nreads in
  let busy = Array.fold_left ( +. ) 0. fresh +. !reads in
  let after = stats d in
  let ping_ms =
    if not traced then [||]
    else
      Array.init 200 (fun _ ->
          let (), dt =
            Measure.timed (fun () ->
                if Client.call d.conn Protocol.Ping <> Protocol.Pong then
                  failwith "Ping not answered")
          in
          1000. *. dt)
  in
  let rss_mb = Measure.vm_hwm_mb d.pid in
  shutdown d;
  pid := None;
  { parts;
    setup_s = Measure.median (Array.of_list (List.map total all_parts));
    fresh;
    hits = Array.of_list !hits;
    reads = !nreads;
    ops_per_s = float_of_int requests /. busy;
    rss_mb;
    digests = Array.of_list (List.rev_map digest !responses);
    changed = !changed;
    errors = !errors;
    before;
    after;
    ping_ms;
    gc }

(* ---- checks: an in-process mirror fed the same requests ---- *)

let delta_ops t =
  Array.append
    (Array.map (fun (u, v) -> Dsd_graph.Dynamic.Add (u, v)) t.adds)
    (Array.map (fun (u, v) -> Dsd_graph.Dynamic.Remove (u, v)) t.removes)

(* Rebuilt incremental densities, one row per stream state (the
   loaded graph, then the graph after each tick), for the states [keep]
   selects: replays the deltas on a private Dynamic handle and builds a
   fresh Inc_dsd session per (state, pattern).  A second domain takes
   three states in four while the main domain runs the mirror, so both
   finish at about the same time. *)
let rebuilt_densities script ~keep =
  let dyn = Dsd_graph.Dynamic.of_graph (Dsd_serve.Snapshot.load "stream.snap") in
  Array.init
    (Array.length script.ticks + 1)
    (fun i ->
      if i > 0 then ignore (Dsd_graph.Dynamic.apply dyn (delta_ops script.ticks.(i - 1)));
      if not (keep i) then [||]
      else
        let g = Dsd_graph.Dynamic.snapshot dyn in
        Array.of_list
          (List.map
             (fun psi -> Dsd_core.Inc_dsd.density (Dsd_core.Inc_dsd.create g psi))
             stream_psis))

(* Replays warm-up and script through [Dsd_serve.State.handle] on the
   graphs loaded from the same snapshots and returns every response.
   Each fresh incremental density is compared with a newly created
   Inc_dsd session on the same stream state, and each static answer's
   vertex sets are re-derived by the oracle. *)
let mirror script fails =
  let spawned i = i mod 4 <> 3 in
  let other =
    Domain.spawn (fun () -> rebuilt_densities script ~keep:spawned)
  in
  let load = Dsd_serve.Snapshot.load in
  let st =
    Dsd_serve.State.create ~max_cached
      [ ("static", load "static.snap"); ("stream", load "stream.snap") ]
  in
  let static_g = load "static.snap" in
  let out = ref [] in
  let handle req =
    let resp = Dsd_serve.State.handle st req in
    out := resp :: !out;
    resp
  in
  let oracle psi vs d =
    let p = Option.get (P.of_string psi) in
    let d' = Dsd_check.Oracle.density_of_subset static_g p vs in
    if Int64.bits_of_float d <> Int64.bits_of_float d' then
      Measure.fail fails
        (Printf.sprintf "static %s set: reported %.17g, re-derived %.17g" psi d d')
  in
  let fresh () =
    Array.of_list
      (List.map
         (fun req ->
           match handle req with
           | Protocol.Density_r d -> d
           | resp ->
             Measure.fail fails ("fresh read answered " ^ encoded resp);
             nan)
         fresh_requests)
  in
  let replay () =
    Array.iter
      (fun req ->
        match (req, handle req) with
        | Protocol.Cds { psi; _ }, Protocol.Cds_r { density; vertices } ->
          oracle psi vertices density
        | Protocol.Query { psi; vertices = q; _ }, Protocol.Query_r { density; vertices }
          ->
          if not (Array.for_all (fun v -> Array.mem v vertices) q) then
            Measure.fail fails "static query answer misses its query vertex";
          oracle psi vertices density
        | Protocol.Topk { psi; _ }, Protocol.Topk_r { regions } ->
          List.iter (fun (d, vs) -> oracle psi vs d) regions
        | _ -> ())
      script.hot;
    let first = fresh () in
    let rest =
      Array.map
        (fun t ->
          ignore
            (handle
               (Protocol.Apply_delta { graph = "stream"; adds = t.adds; removes = t.removes }));
          let d = fresh () in
          Array.iter (fun r -> ignore (handle r)) t.reads;
          d)
        script.ticks
    in
    Array.append [| first |] rest
  in
  let answered =
    match replay () with
    | a -> a
    | exception e ->
      (try ignore (Domain.join other) with _ -> ());
      raise e
  in
  let mine = rebuilt_densities script ~keep:(fun i -> not (spawned i)) in
  let theirs = Domain.join other in
  Array.iteri
    (fun i got ->
      let want = if spawned i then theirs.(i) else mine.(i) in
      Array.iteri
        (fun j d ->
          if Int64.bits_of_float d <> Int64.bits_of_float want.(j) then
            Measure.fail fails
              (Printf.sprintf "state %d: incremental %s density %.17g, rebuilt %.17g"
                 i (List.nth stream_psis j).P.name d want.(j)))
        got)
    answered;
  List.rev !out

(* Client-side codec cost on the script's actual frames: encode every
   request and decode every response, repeated until the loop is long
   enough to time. *)
let codec requests responses =
  let frames =
    List.map2
      (fun req resp ->
        let rtag, rbody = Protocol.encode_request req in
        let tag, body = Protocol.encode_response resp in
        ((rtag, rbody), (tag, body), req))
      requests responses
  in
  let count = List.length frames in
  let bytes =
    List.fold_left
      (fun acc ((_, rbody), (_, body), _) ->
        (* 4-byte length, version and tag bytes on each frame *)
        acc + String.length rbody + String.length body + 12)
      0 frames
  in
  let reps = 20 in
  let (), dt =
    Measure.timed (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun (_, (tag, body), req) ->
              ignore (Sys.opaque_identity (Protocol.encode_request req));
              ignore (Sys.opaque_identity (Protocol.decode_response tag body)))
            frames
        done)
  in
  [ ("codec.us_per_req", 1e6 *. dt /. float_of_int (reps * count));
    ("codec.bytes_per_req", float_of_int bytes /. float_of_int count) ]

(* ---- the run ---- *)

(* How much one value of the Stats endpoint moved over the script;
   [pick] selects the counters ([fst]) or the cache section ([snd]). *)
let diff pick s name =
  let get snap = Option.value ~default:0 (List.assoc_opt name (pick snap)) in
  get s.after - get s.before

let layer_counts ~edges s =
  let get n = diff fst s (Counter.to_string n) in
  let hits = float_of_int (diff snd s "hits")
  and misses = float_of_int (diff snd s "misses") in
  Layers.counts ~probes:(get Counter.Core_iterations) get
  @ [ ("cache.hits", hits);
      ("cache.misses", misses);
      ("cache.hit_ratio", Measure.ratio hits (hits +. misses));
      ("cache.evictions", float_of_int (diff snd s "evictions"));
      ("delta.edges", float_of_int edges);
      ("delta.effective_ratio", Measure.ratio (float_of_int s.changed) (float_of_int edges)) ]

(* A private directory inside the checkout; the socket and snapshots
   use short relative names under it, so the socket path stays within
   the kernel's limit wherever the checkout lives. *)
let in_private_dir f =
  let home = Sys.getcwd () in
  let root = Filename.concat home ".perfbench-tmp" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir home;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    f

let run dsd ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  in_private_dir @@ fun () ->
  let fails = Measure.failures () in
  let ticks = max 20 (int_of_float (Float.round (float_of_int seconds *. ticks_per_s))) in
  let u = session dsd ~seed ~ticks ~setups:3 ~traced:false in
  let traced =
    if trace then
      let a = session dsd ~seed ~ticks ~setups:1 ~traced:true in
      let b = session dsd ~seed ~ticks ~setups:1 ~traced:true in
      Some (a, b)
    else None
  in
  let script = make_script ~seed ~ticks in
  let requests =
    warmup_requests script @ List.concat_map tick_requests (Array.to_list script.ticks)
  in
  let responses = mirror script fails in
  let expected = Array.of_list (List.map digest responses) in
  let sessions = u :: (match traced with Some (a, b) -> [ a; b ] | None -> []) in
  List.iter
    (fun s ->
      List.iter (fun msg -> Measure.fail fails ("error response: " ^ msg)) s.errors;
      if Array.length s.digests <> Array.length expected then
        Measure.fail fails "daemon answered a different number of requests"
      else
        Array.iteri
          (fun i dg ->
            if dg <> expected.(i) then
              Measure.fail fails
                (Printf.sprintf "response %d differs from the in-process mirror" i))
          s.digests;
      let hits = diff snd s "hits"
      and misses = diff snd s "misses"
      and evictions = diff snd s "evictions" in
      if hits <> s.reads
         || misses <> ticks * List.length fresh_requests
         || evictions <> 0
      then
        Measure.fail fails
          (Printf.sprintf "cache: %d hits, %d misses, %d evictions over %d ticks"
             hits misses evictions ticks))
    sessions;
  let per_layer =
    match traced with
    | None -> []
    | Some (a, b) ->
      let edges = ticks * 2 * churn in
      let ca = layer_counts ~edges a in
      if ca <> layer_counts ~edges b then
        Measure.fail fails "two traced runs of one script disagree on counts";
      u.parts
      @ [ ("trace.overhead_frac", 1. -. (a.ops_per_s /. u.ops_per_s));
          ("cache.hit_ms.p50", 1000. *. Measure.median a.hits);
          ("cache.hit_ms.p90", 1000. *. Measure.percentile a.hits 0.9);
          ("socket.ping_ms.p50", Measure.median a.ping_ms) ]
      @ ca @ codec requests responses @ a.gc
  in
  let per_session = List.length fresh_requests + 1 + u.reads / ticks in
  { Measure.attempted = List.length sessions * ticks * per_session;
    failed = fails.count;
    classes = [ ("fresh", ticks); ("density_hit", Array.length u.hits) ];
    end_to_end =
      [ ("setup_s", u.setup_s);
        ("ops_per_s", u.ops_per_s);
        ("op_ms.p50", 1000. *. Measure.median u.fresh);
        ("op_ms.p90", 1000. *. Measure.percentile u.fresh 0.9);
        ("rss_peak_mb", u.rss_mb) ];
    per_layer;
    problems = Measure.problems fails }
