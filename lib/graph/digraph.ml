type t = {
  n : int;
  m : int;
  out_row : int array;
  out_col : int array;
  in_row : int array;
  in_col : int array;
}

let n g = g.n
let m g = g.m

let out_degree g v = g.out_row.(v + 1) - g.out_row.(v)
let in_degree g v = g.in_row.(v + 1) - g.in_row.(v)

let out_neighbors g v = Array.sub g.out_col g.out_row.(v) (out_degree g v)
let in_neighbors g v = Array.sub g.in_col g.in_row.(v) (in_degree g v)

let iter_out g v ~f =
  for i = g.out_row.(v) to g.out_row.(v + 1) - 1 do
    f g.out_col.(i)
  done

let mem_arc g ~src ~dst =
  let lo = ref g.out_row.(src) and hi = ref (g.out_row.(src + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.out_col.(mid) in
    if w = dst then found := true
    else if w < dst then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_arcs g ~f =
  for u = 0 to g.n - 1 do
    for i = g.out_row.(u) to g.out_row.(u + 1) - 1 do
      f u g.out_col.(i)
    done
  done

(* Build one CSR direction from (src, dst) pairs, sorting and deduping
   per row. *)
let build_csr n pairs key other =
  let deg = Array.make (n + 1) 0 in
  Array.iter (fun p -> deg.(key p) <- deg.(key p) + 1) pairs;
  let row = Array.make (n + 1) 0 in
  for v = 1 to n do
    row.(v) <- row.(v - 1) + deg.(v - 1)
  done;
  let col = Array.make row.(n) 0 in
  let fill = Array.copy row in
  Array.iter
    (fun p ->
      col.(fill.(key p)) <- other p;
      fill.(key p) <- fill.(key p) + 1)
    pairs;
  let new_row = Array.make (n + 1) 0 in
  let write = ref 0 in
  for v = 0 to n - 1 do
    new_row.(v) <- !write;
    let slice = Array.sub col row.(v) (row.(v + 1) - row.(v)) in
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
  (new_row, Array.sub col 0 !write)

let of_edges ~n arcs =
  if n < 0 then invalid_arg "Digraph.of_edges: negative n";
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.of_edges: endpoint out of range")
    arcs;
  let clean = Array.of_list (List.filter (fun (u, v) -> u <> v) (Array.to_list arcs)) in
  let out_row, out_col = build_csr n clean fst snd in
  let in_row, in_col = build_csr n clean snd fst in
  { n; m = Array.length out_col; out_row; out_col; in_row; in_col }

let of_edge_list ~n arcs = of_edges ~n (Array.of_list arcs)

let edges_between g ~s ~t_side =
  let in_t = Array.make g.n false in
  Array.iter (fun v -> in_t.(v) <- true) t_side;
  let count = ref 0 in
  Array.iter
    (fun u -> iter_out g u ~f:(fun v -> if in_t.(v) then incr count))
    s;
  !count

let pp fmt g = Format.fprintf fmt "@[digraph n=%d m=%d@]" g.n g.m
