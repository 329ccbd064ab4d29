(* Binary heap of (key, item) pairs in two parallel plain int arrays
   of which the first [len] slots are the heap, grown by doubling; the
   authoritative key of an item lives in [keys], so any heap entry
   whose key disagrees is stale and dropped on pop. *)

type t = {
  mutable hkeys : int array;
  mutable hitems : int array;
  mutable len : int;
  keys : int array;
  present : bool array;
  mutable card : int;
}

let create ~n =
  {
    hkeys = Array.make (max 16 n) 0;
    hitems = Array.make (max 16 n) 0;
    len = 0;
    keys = Array.make (max 1 n) 0;
    present = Array.make (max 1 n) false;
    card = 0;
  }

let mem t item = t.present.(item)

let key t item =
  if not t.present.(item) then invalid_arg "Lazy_heap.key: absent item";
  t.keys.(item)

let cardinal t = t.card

let swap t i j =
  let hk = t.hkeys and hi = t.hitems in
  let k = hk.(i) and it = hi.(i) in
  hk.(i) <- hk.(j);
  hi.(i) <- hi.(j);
  hk.(j) <- k;
  hi.(j) <- it

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.hkeys.(i) < t.hkeys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let len = t.len and hk = t.hkeys in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < len && hk.(l) < hk.(!smallest) then smallest := l;
  if r < len && hk.(r) < hk.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let cap = 2 * Array.length t.hkeys in
  let hkeys = Array.make cap 0 and hitems = Array.make cap 0 in
  Array.blit t.hkeys 0 hkeys 0 t.len;
  Array.blit t.hitems 0 hitems 0 t.len;
  t.hkeys <- hkeys;
  t.hitems <- hitems

let push_entry t ~item ~key =
  if t.len = Array.length t.hkeys then grow t;
  let i = t.len in
  t.hkeys.(i) <- key;
  t.hitems.(i) <- item;
  t.len <- i + 1;
  sift_up t i

let add t ~item ~key =
  if t.present.(item) then invalid_arg "Lazy_heap.add: duplicate item";
  t.present.(item) <- true;
  t.keys.(item) <- key;
  t.card <- t.card + 1;
  push_entry t ~item ~key

let update t ~item ~key =
  if not t.present.(item) then invalid_arg "Lazy_heap.update: absent item";
  if t.keys.(item) <> key then begin
    t.keys.(item) <- key;
    push_entry t ~item ~key
  end

let remove t item =
  if not t.present.(item) then invalid_arg "Lazy_heap.remove: absent item";
  t.present.(item) <- false;
  t.card <- t.card - 1

let pop_heap_top t =
  let last = t.len - 1 in
  let k = t.hkeys.(0) and it = t.hitems.(0) in
  swap t 0 last;
  t.len <- last;
  if last > 0 then sift_down t 0;
  (it, k)

let rec pop_min t =
  if t.card = 0 then None
  else begin
    let item, k = pop_heap_top t in
    if t.present.(item) && t.keys.(item) = k then begin
      t.present.(item) <- false;
      t.card <- t.card - 1;
      Some (item, k)
    end
    else pop_min t
  end
