module Counter = Dsd_obs.Counter

type op =
  | Add of int * int
  | Remove of int * int

type t = {
  n : int;
  nbr : (int, unit) Hashtbl.t array;  (* adjacency sets, symmetric *)
  mutable m : int;
  mutable snap : Graph.t option;      (* cached CSR snapshot *)
}

let n t = t.n
let m t = t.m

let check_vertex t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Dynamic.%s: vertex out of range" name)

let mem_edge t u v = u <> v && Hashtbl.mem t.nbr.(u) v

let neighbors t v =
  check_vertex t v "neighbors";
  let out = Array.make (Hashtbl.length t.nbr.(v)) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun w () ->
      out.(!i) <- w;
      incr i)
    t.nbr.(v);
  Array.sort compare out;
  out

let common_neighbors t u v =
  check_vertex t u "common_neighbors";
  check_vertex t v "common_neighbors";
  let small, big =
    if Hashtbl.length t.nbr.(u) <= Hashtbl.length t.nbr.(v) then (u, v)
    else (v, u)
  in
  let acc = ref [] in
  Hashtbl.iter
    (fun w () -> if Hashtbl.mem t.nbr.(big) w then acc := w :: !acc)
    t.nbr.(small);
  let out = Array.of_list !acc in
  Array.sort compare out;
  out

let snapshot t =
  match t.snap with
  | Some g -> g
  | None ->
    let edges = ref [] in
    for u = 0 to t.n - 1 do
      Hashtbl.iter (fun v () -> if u < v then edges := (u, v) :: !edges) t.nbr.(u)
    done;
    let g = Graph.of_edges ~n:t.n (Array.of_list !edges) in
    t.snap <- Some g;
    g

let add_edge t u v =
  check_vertex t u "add_edge";
  check_vertex t v "add_edge";
  if u = v || Hashtbl.mem t.nbr.(u) v then false
  else begin
    Hashtbl.replace t.nbr.(u) v ();
    Hashtbl.replace t.nbr.(v) u ();
    t.m <- t.m + 1;
    t.snap <- None;
    Counter.incr Counter.Delta_edges_added;
    true
  end

let remove_edge t u v =
  check_vertex t u "remove_edge";
  check_vertex t v "remove_edge";
  if u = v || not (Hashtbl.mem t.nbr.(u) v) then false
  else begin
    Hashtbl.remove t.nbr.(u) v;
    Hashtbl.remove t.nbr.(v) u;
    t.m <- t.m - 1;
    t.snap <- None;
    Counter.incr Counter.Delta_edges_removed;
    true
  end

let apply t ops =
  Array.fold_left
    (fun applied op ->
      let changed =
        match op with
        | Add (u, v) -> add_edge t u v
        | Remove (u, v) -> remove_edge t u v
      in
      if changed then applied + 1 else applied)
    0 ops

let of_graph g =
  let n = Graph.n g in
  let nbr = Array.init (max 1 n) (fun _ -> Hashtbl.create 4) in
  Array.iter
    (fun (u, v) ->
      Hashtbl.replace nbr.(u) v ();
      Hashtbl.replace nbr.(v) u ())
    (Graph.edges g);
  { n; nbr; m = Graph.m g; snap = Some g }

let create ~n edges = of_graph (Graph.of_edges ~n edges)
