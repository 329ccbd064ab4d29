exception Nested

type job = {
  n : int;
  chunk_len : int;
  nchunks : int;
  next : int Atomic.t;
  body : int -> int -> unit;
  wrap : (unit -> unit) -> unit;
  failed : exn option Atomic.t;
  (* claimed.(p) = chunks participant p executed (0 = caller, 1.. =
     workers).  Each participant writes only its own slot, and the
     caller reads after the drain barrier, so plain ints suffice. *)
  claimed : int array;
}

(* Utilization hook: called once per completed job with the chunk
   count and the per-participant claim tally.  [Dsd_obs] installs a
   reporter that turns these into pool counters; the default is free.
   The hook runs on the calling domain after the job drains. *)
let job_reporter : (chunks:int -> claimed:int array -> unit) ref =
  ref (fun ~chunks:_ ~claimed:_ -> ())

let set_job_reporter f = job_reporter := f

type t = {
  size : int;
  sequential_below : int;
  (* Spawned lazily by the first job that actually engages the pool:
     idle domains are not free (they still take part in GC barriers),
     so a pool whose every job falls under [sequential_below] must be
     indistinguishable from running without one. *)
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  wake : Condition.t;
  drained : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable active : int;
  mutable stop : bool;
  mutable alive : bool;
  busy : bool Atomic.t;
}

(* Every participant — caller and each worker — runs [wrap] exactly
   once per job, then claims chunks until the shared cursor runs out.
   Exceptions (from the body or from a broken [wrap]) are parked in
   [failed]; the job still drains so the chunk accounting stays
   simple, and the caller re-raises the first one. *)
let participate slot job =
  let claim () =
    let mine = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add job.next 1 in
      if i >= job.nchunks then continue_ := false
      else begin
        incr mine;
        let lo = i * job.chunk_len in
        let hi = min job.n (lo + job.chunk_len) in
        try job.body lo hi
        with e -> ignore (Atomic.compare_and_set job.failed None (Some e))
      end
    done;
    job.claimed.(slot) <- !mine
  in
  try job.wrap claim
  with e -> ignore (Atomic.compare_and_set job.failed None (Some e))

let worker t slot =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while (not t.stop) && t.generation = !last do
      Condition.wait t.wake t.m
    done;
    if t.generation = !last then begin
      (* [stop] set with no fresh job: exit. *)
      Mutex.unlock t.m;
      running := false
    end
    else begin
      last := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.m;
      participate slot job;
      Mutex.lock t.m;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.drained;
      Mutex.unlock t.m
    end
  done

(* Below this many work items, waking the workers costs more than the
   loop itself: every row of the pre-threshold BENCH_parallel.json had
   speedup < 1 at the 20k-vertex scale the bench drives, so the default
   is deliberately high — a pool only helps once the per-item work
   dwarfs the condition-variable round trip. *)
let default_sequential_below = 65536

let create ?(sequential_below = default_sequential_below) size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  if sequential_below < 0 then
    invalid_arg "Pool.create: sequential_below must be >= 0";
  {
    size;
    sequential_below;
    workers = [||];
    m = Mutex.create ();
    wake = Condition.create ();
    drained = Condition.create ();
    job = None;
    generation = 0;
    active = 0;
    stop = false;
    alive = true;
    busy = Atomic.make false;
  }

(* Only ever called from [run] while [busy] is held, so at most one
   caller can race to spawn. *)
let ensure_workers t =
  if Array.length t.workers = 0 && t.size > 1 then
    t.workers <-
      Array.init (t.size - 1) (fun i ->
          Domain.spawn (fun () -> worker t (i + 1)))

let size t = t.size
let sequential_below t = t.sequential_below

let parallel_width t ~n =
  if t.size = 1 || n < t.sequential_below then 1 else t.size

let shutdown t =
  if not t.alive then invalid_arg "Pool.shutdown: already shut down";
  if Atomic.get t.busy then invalid_arg "Pool.shutdown: pool is running a job";
  t.alive <- false;
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?sequential_below size f =
  let t = create ?sequential_below size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run t job =
  if not t.alive then invalid_arg "Pool: used after shutdown";
  if not (Atomic.compare_and_set t.busy false true) then raise Nested;
  (* Small jobs run inline on the caller: chunk boundaries, merge order
     and exception parking are untouched, only the workers stay asleep. *)
  if t.size = 1 || job.nchunks <= 1 || job.n < t.sequential_below then
    participate 0 job
  else begin
    ensure_workers t;
    Mutex.lock t.m;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    t.active <- t.size - 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    participate 0 job;
    Mutex.lock t.m;
    while t.active > 0 do
      Condition.wait t.drained t.m
    done;
    t.job <- None;
    Mutex.unlock t.m
  end;
  Atomic.set t.busy false;
  !job_reporter ~chunks:job.nchunks ~claimed:job.claimed;
  match Atomic.get job.failed with Some e -> raise e | None -> ()

let default_wrap f = f ()

(* Default granularity: several chunks per domain so the shared cursor
   load-balances skewed work, but coarse enough that the atomic claim
   is noise.  Callers whose per-chunk setup allocates (e.g. a scratch
   array per chunk) pass an explicitly coarser [chunk].  A job that
   will fall back to the inline path gets size-1 chunking: splitting
   it per the pool width would multiply any per-chunk setup cost for
   workers that never see the job. *)
let chunk_len_for t ?chunk n =
  match chunk with
  | Some c ->
    if c < 1 then invalid_arg "Pool: chunk must be >= 1";
    c
  | None ->
    let width = if n < t.sequential_below then 1 else t.size in
    max 1 (n / (8 * width))

let parallel_for t ?chunk ?(wrap = default_wrap) ~n body =
  if n < 0 then invalid_arg "Pool.parallel_for: n must be >= 0";
  if n = 0 then ()
  else begin
    let chunk_len = chunk_len_for t ?chunk n in
    let nchunks = (n + chunk_len - 1) / chunk_len in
    run t
      {
        n;
        chunk_len;
        nchunks;
        next = Atomic.make 0;
        body;
        wrap;
        failed = Atomic.make None;
        claimed = Array.make t.size 0;
      }
  end

let map_chunks t ?chunk ?(wrap = default_wrap) ~n f =
  if n < 0 then invalid_arg "Pool.map_chunks: n must be >= 0";
  if n = 0 then [||]
  else begin
    let chunk_len = chunk_len_for t ?chunk n in
    let nchunks = (n + chunk_len - 1) / chunk_len in
    let slots = Array.make nchunks None in
    let body lo hi = slots.(lo / chunk_len) <- Some (f lo hi) in
    run t
      {
        n;
        chunk_len;
        nchunks;
        next = Atomic.make 0;
        body;
        wrap;
        failed = Atomic.make None;
        claimed = Array.make t.size 0;
      };
    Array.map
      (function
        | Some x -> x
        | None -> invalid_arg "Pool.map_chunks: missing chunk result")
      slots
  end

let fold_chunks t ?chunk ?wrap ~n ~init ~merge f =
  Array.fold_left merge init (map_chunks t ?chunk ?wrap ~n f)
