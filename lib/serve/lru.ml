(* A clock-stamped LRU: every entry carries the logical time of its
   last use, and eviction removes the minimum stamp.  Lookups and
   inserts are O(1); eviction scans the (at most [capacity]) resident
   entries.  The caches this backs hold solver results behind
   [--max-cached] — dozens to hundreds of entries — so the scan is
   noise next to the solves it saves, and the representation stays
   simple enough to property-test against a reference model. *)

type 'a entry = { mutable value : 'a; mutable stamp : int }

type 'a t = {
  cap : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { cap = capacity;
    tbl = Hashtbl.create (max 16 capacity);
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    e.stamp <- tick t;
    t.hits <- t.hits + 1;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.stamp -> acc
        | _ -> Some (key, e.stamp))
      t.tbl None
  in
  match victim with
  | None -> None
  | Some (key, _) ->
    Hashtbl.remove t.tbl key;
    t.evictions <- t.evictions + 1;
    Some key

let add t key v =
  if t.cap = 0 then None
  else
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      e.value <- v;
      e.stamp <- tick t;
      None
    | None ->
      let evicted = if length t >= t.cap then evict_lru t else None in
      Hashtbl.add t.tbl key { value = v; stamp = tick t };
      evicted

let keys_by_recency t =
  Hashtbl.fold (fun key e acc -> (e.stamp, key) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.map snd

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let clear t =
  Hashtbl.reset t.tbl;
  t.clock <- 0

let remove_where t ~f =
  let victims =
    Hashtbl.fold (fun key _ acc -> if f key then key :: acc else acc) t.tbl []
  in
  List.iter (Hashtbl.remove t.tbl) victims;
  List.length victims
