(* Flat-arena layout: instance members and per-vertex postings both
   live in single contiguous int arrays addressed through CSR-style
   offset tables, so the peel's posting walks and member runs stream
   contiguous ranges instead of chasing one heap block per
   vertex/instance. *)

type t = {
  n : int;
  total : int;
  arity : int;                 (* uniform member count *)
  inst_mem : int array;        (* adopted: instance i at [i*arity, (i+1)*arity) *)
  post_off : int array;        (* n + 1 offsets into [post] *)
  post : int array;            (* vertex -> ids of instances containing it *)
  live : Bytes.t;              (* instance -> 1 if live *)
  deg : int array;             (* vertex -> live instance count *)
  mutable live_count : int;
}

let check_range ~where ~n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Instance_store.%s: vertex out of range" where)

let create ~n (insts : Instances.t) =
  let total = insts.count and arity = insts.arity in
  let inst_mem = insts.members in
  let counts = Array.make (n + 1) 0 in
  Array.iter
    (fun v ->
      check_range ~where:"create" ~n v;
      counts.(v) <- counts.(v) + 1)
    inst_mem;
  let post_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    post_off.(v + 1) <- post_off.(v) + counts.(v)
  done;
  let post = Array.make post_off.(n) 0 in
  let fill = Array.sub post_off 0 (max 1 (n + 1)) in
  for i = 0 to total - 1 do
    for p = i * arity to ((i + 1) * arity) - 1 do
      let v = inst_mem.(p) in
      post.(fill.(v)) <- i;
      fill.(v) <- fill.(v) + 1
    done
  done;
  {
    n;
    total;
    arity;
    inst_mem;
    post_off;
    post;
    live = Bytes.make total '\001';
    deg = Array.sub counts 0 (max 1 n);
    live_count = total;
  }

let total t = t.total
let live_total t = t.live_count
let is_live t i = Bytes.get t.live i = '\001'
let degree t v = t.deg.(v)
let degrees t = t.deg

let kill_instance_internal t i ~skip ~on_comember =
  Bytes.set t.live i '\000';
  t.live_count <- t.live_count - 1;
  let base = i * t.arity in
  for j = 0 to t.arity - 1 do
    let u = t.inst_mem.(base + j) in
    if u <> skip then begin
      t.deg.(u) <- t.deg.(u) - 1;
      on_comember u
    end
  done

let kill_vertex t v ~on_comember =
  let killed = ref 0 in
  for p = t.post_off.(v) to t.post_off.(v + 1) - 1 do
    let i = t.post.(p) in
    if is_live t i then begin
      incr killed;
      kill_instance_internal t i ~skip:v ~on_comember
    end
  done;
  t.deg.(v) <- 0;
  !killed

let kill_instance t i =
  if is_live t i then
    kill_instance_internal t i ~skip:(-1) ~on_comember:(fun _ -> ())

let iter_live_of_vertex t v ~f =
  for p = t.post_off.(v) to t.post_off.(v + 1) - 1 do
    let i = t.post.(p) in
    if is_live t i then f i
  done

let reset t =
  Bytes.fill t.live 0 (Bytes.length t.live) '\001';
  t.live_count <- t.total;
  Array.fill t.deg 0 t.n 0;
  Array.iter (fun v -> t.deg.(v) <- t.deg.(v) + 1) t.inst_mem

(* Growable variant for the incremental subsystem: instances are
   appended as edge inserts discover them and retired (tombstoned) as
   deletes destroy them.  Members share one flat stride-[arity] arena
   (the static layout above, grown by doubling; [create] adopts the
   initial list's member array and the first append copies it out);
   postings are append-only vectors that may contain dead ids —
   consumers filter through [is_live] — and dead slots are never
   reused, so instance ids are stable for the lifetime of the store
   (the flow arena keys its per-instance arcs by them). *)
module Dyn = struct
  type store = {
    n : int;
    arity : int;
    mutable count : int;
    mutable mem : int array;             (* instance i at [i*arity, (i+1)*arity) *)
    posting : Dsd_util.Vec.Int.t array;  (* vertex -> ids (may be dead) *)
    mutable live : Bytes.t;
    deg : int array;                     (* vertex -> live instance count *)
    mutable live_count : int;
  }

  let total t = t.count
  let live_total t = t.live_count
  let is_live t i = i >= 0 && i < t.count && Bytes.get t.live i = '\001'
  let degree t v = t.deg.(v)

  let iter_members t i ~f =
    for p = i * t.arity to ((i + 1) * t.arity) - 1 do
      f t.mem.(p)
    done

  (* Registers instance [t.count], whose members are already in the
     arena. *)
  let index t =
    let id = t.count in
    if id >= Bytes.length t.live then begin
      let grown = Bytes.make (max 16 (2 * Bytes.length t.live)) '\000' in
      Bytes.blit t.live 0 grown 0 (Bytes.length t.live);
      t.live <- grown
    end;
    Bytes.set t.live id '\001';
    t.count <- id + 1;
    t.live_count <- t.live_count + 1;
    iter_members t id ~f:(fun v ->
        Dsd_util.Vec.Int.push t.posting.(v) id;
        t.deg.(v) <- t.deg.(v) + 1);
    id

  let append t ms =
    if Array.length ms <> t.arity then
      invalid_arg "Instance_store.Dyn.append: wrong member count";
    Array.iter (check_range ~where:"Dyn.append" ~n:t.n) ms;
    let base = t.count * t.arity in
    if base + t.arity > Array.length t.mem then begin
      let grown = Array.make (max (16 * t.arity) (2 * Array.length t.mem)) 0 in
      Array.blit t.mem 0 grown 0 base;
      t.mem <- grown
    end;
    Array.blit ms 0 t.mem base t.arity;
    index t

  let retire t i =
    if not (is_live t i) then false
    else begin
      Bytes.set t.live i '\000';
      t.live_count <- t.live_count - 1;
      iter_members t i ~f:(fun v -> t.deg.(v) <- t.deg.(v) - 1);
      true
    end

  let iter_live_of_vertex t v ~f =
    Dsd_util.Vec.Int.iter (fun i -> if is_live t i then f i) t.posting.(v)

  let mem_vertex t i w =
    let hi = (i + 1) * t.arity in
    let rec go p = p < hi && (t.mem.(p) = w || go (p + 1)) in
    go (i * t.arity)

  (* Retire every live instance containing both endpoints of a deleted
     edge.  Scans the shorter posting list; membership of the other
     endpoint is a linear probe of the (small, h-sized) member run. *)
  let retire_edge t u v ~f =
    check_range ~where:"Dyn.retire_edge" ~n:t.n u;
    check_range ~where:"Dyn.retire_edge" ~n:t.n v;
    let scan, other =
      if
        Dsd_util.Vec.Int.length t.posting.(u)
        <= Dsd_util.Vec.Int.length t.posting.(v)
      then (u, v)
      else (v, u)
    in
    let retired = ref 0 in
    let hits = ref [] in
    iter_live_of_vertex t scan ~f:(fun i ->
        if mem_vertex t i other then hits := i :: !hits);
    List.iter
      (fun i ->
        if retire t i then begin
          incr retired;
          f i
        end)
      !hits;
    !retired

  (* All live instances in id (append) order — the canonical input for
     rebuilding a compacted store or arena. *)
  let live_members t =
    let h = t.arity in
    let out = Array.make (t.live_count * h) 0 in
    let pos = ref 0 in
    for i = 0 to t.count - 1 do
      if is_live t i then begin
        Array.blit t.mem (i * h) out !pos h;
        pos := !pos + h
      end
    done;
    Instances.of_members ~arity:h out

  let create ~n (insts : Instances.t) =
    Array.iter (check_range ~where:"Dyn.create" ~n) insts.members;
    let t =
      {
        n;
        arity = insts.arity;
        count = 0;
        mem = insts.members;
        posting =
          Array.init (max 1 n) (fun _ ->
              Dsd_util.Vec.Int.create ~capacity:4 ());
        live = Bytes.make (max 16 (2 * insts.count)) '\000';
        deg = Array.make (max 1 n) 0;
        live_count = 0;
      }
    in
    for _ = 1 to insts.count do
      ignore (index t)
    done;
    t
end
