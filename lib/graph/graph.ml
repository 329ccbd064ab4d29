type t = {
  n : int;
  m : int;
  row : int array;   (* row.(v) .. row.(v+1) - 1 index into col *)
  col : int array;   (* concatenated sorted neighbour lists *)
}

let n g = g.n
let m g = g.m

let degree g v = g.row.(v + 1) - g.row.(v)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !d then d := degree g v
  done;
  !d

let neighbors g v = Array.sub g.col g.row.(v) (degree g v)

let iter_neighbors g v ~f =
  for i = g.row.(v) to g.row.(v + 1) - 1 do
    f g.col.(i)
  done

let fold_neighbors g v ~init ~f =
  let acc = ref init in
  for i = g.row.(v) to g.row.(v + 1) - 1 do
    acc := f !acc g.col.(i)
  done;
  !acc

let iter_common_neighbors g u v ~f =
  let i = ref g.row.(u) and j = ref g.row.(v) in
  let iend = g.row.(u + 1) and jend = g.row.(v + 1) in
  while !i < iend && !j < jend do
    let x = g.col.(!i) and y = g.col.(!j) in
    if x = y then begin
      f x;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done

let mem_edge g u v =
  let lo = ref g.row.(u) and hi = ref (g.row.(u + 1) - 1) in
  let found = ref false in
  while not !found && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.col.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_edges g ~f =
  for u = 0 to g.n - 1 do
    for i = g.row.(u) to g.row.(u + 1) - 1 do
      let v = g.col.(i) in
      if u < v then f u v
    done
  done

let edges g =
  let out = Array.make g.m (0, 0) in
  let k = ref 0 in
  iter_edges g ~f:(fun u v ->
      out.(!k) <- (u, v);
      incr k);
  out

let degrees g = Array.init g.n (fun v -> degree g v)

(* Build CSR from an arbitrary (possibly dirty) edge array: two counting
   passes plus a per-row sort-dedup.  O(m log d). *)
let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range")
    edges;
  let deg = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      if u <> v then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    edges;
  let row = Array.make (n + 1) 0 in
  for v = 1 to n do
    row.(v) <- row.(v - 1) + deg.(v - 1)
  done;
  let col = Array.make row.(n) 0 in
  let fill = Array.copy row in
  Array.iter
    (fun (u, v) ->
      if u <> v then begin
        col.(fill.(u)) <- v;
        fill.(u) <- fill.(u) + 1;
        col.(fill.(v)) <- u;
        fill.(v) <- fill.(v) + 1
      end)
    edges;
  (* Sort each row and squeeze out duplicates in place, then compact. *)
  let new_row = Array.make (n + 1) 0 in
  let write = ref 0 in
  for v = 0 to n - 1 do
    new_row.(v) <- !write;
    let lo = row.(v) and hi = row.(v + 1) in
    let slice = Array.sub col lo (hi - lo) in
    Array.sort compare slice;
    let last = ref (-1) in
    Array.iter
      (fun w ->
        if w <> !last then begin
          col.(!write) <- w;
          incr write;
          last := w
        end)
      slice
  done;
  new_row.(n) <- !write;
  let col = Array.sub col 0 !write in
  { n; m = !write / 2; row = new_row; col }

let of_edge_list ~n edges = of_edges ~n (Array.of_list edges)

(* Adopt already-built CSR arrays (the binary-snapshot load path).
   Every invariant [of_edges] establishes is re-checked here — row
   monotonicity, strictly increasing loop-free rows, symmetry — so a
   corrupted or hand-forged snapshot cannot smuggle in a graph the
   algorithms would misbehave on.  O(m log d) for the symmetry pass. *)
let of_csr ~n ~row ~col =
  if n < 0 then invalid_arg "Graph.of_csr: negative n";
  if Array.length row <> n + 1 then
    invalid_arg "Graph.of_csr: row must have n + 1 entries";
  if row.(0) <> 0 || row.(n) <> Array.length col then
    invalid_arg "Graph.of_csr: row must span col exactly";
  for v = 0 to n - 1 do
    if row.(v + 1) < row.(v) then
      invalid_arg "Graph.of_csr: row offsets must be monotone"
  done;
  let g = { n; m = Array.length col / 2; row; col } in
  if Array.length col land 1 <> 0 then
    invalid_arg "Graph.of_csr: col length must be even (symmetric edges)";
  for v = 0 to n - 1 do
    let prev = ref (-1) in
    for i = row.(v) to row.(v + 1) - 1 do
      let w = col.(i) in
      if w < 0 || w >= n then invalid_arg "Graph.of_csr: neighbour out of range";
      if w = v then invalid_arg "Graph.of_csr: self loop";
      if w <= !prev then
        invalid_arg "Graph.of_csr: neighbours must be strictly increasing";
      prev := w;
      if not (mem_edge g w v) then
        invalid_arg "Graph.of_csr: adjacency is not symmetric"
    done
  done;
  g

let empty n = of_edges ~n [||]

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  of_edge_list ~n !edges

let induced g vs =
  (* Deduplicate while keeping ascending old-id order. *)
  let vs = Array.copy vs in
  Array.sort Int.compare vs;
  let k = ref 0 in
  Array.iter
    (fun v ->
      if !k = 0 || vs.(!k - 1) <> v then begin
        vs.(!k) <- v;
        incr k
      end)
    vs;
  let old_of_new = Array.sub vs 0 !k in
  let n = !k in
  let new_of_old = Array.make g.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  (* The old -> new map is monotone, so an old row filtered to the kept
     vertices and renamed is still sorted and duplicate-free: count the
     rows, then copy them straight into the CSR. *)
  let row = Array.make (n + 1) 0 in
  Array.iteri
    (fun i v ->
      let d = ref 0 in
      for p = g.row.(v) to g.row.(v + 1) - 1 do
        if new_of_old.(g.col.(p)) >= 0 then incr d
      done;
      row.(i + 1) <- row.(i) + !d)
    old_of_new;
  let col = Array.make row.(n) 0 in
  Array.iteri
    (fun i v ->
      let q = ref row.(i) in
      for p = g.row.(v) to g.row.(v + 1) - 1 do
        let j = new_of_old.(g.col.(p)) in
        if j >= 0 then begin
          col.(!q) <- j;
          incr q
        end
      done)
    old_of_new;
  ({ n; m = row.(n) / 2; row; col }, old_of_new)

let induced_mask g keep =
  let vs = Dsd_util.Vec.Int.create () in
  Array.iteri (fun v k -> if k then Dsd_util.Vec.Int.push vs v) keep;
  induced g (Dsd_util.Vec.Int.to_array vs)

let equal a b =
  a.n = b.n && a.m = b.m && a.row = b.row && a.col = b.col

let pp fmt g =
  Format.fprintf fmt "@[graph n=%d m=%d@]" g.n g.m
