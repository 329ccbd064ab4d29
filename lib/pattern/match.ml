module G = Dsd_graph.Graph

(* Static matching order: BFS from a maximum-degree pattern vertex so
   every position after the first has at least one earlier
   pattern-neighbour to anchor its candidate list on. *)
let matching_order (p : Pattern.t) =
  let k = p.size in
  let start = ref 0 in
  for v = 1 to k - 1 do
    if Pattern.degree p v > Pattern.degree p !start then start := v
  done;
  let order = Array.make k (-1) in
  let placed = Array.make k false in
  order.(0) <- !start;
  placed.(!start) <- true;
  for i = 1 to k - 1 do
    (* Next: an unplaced vertex adjacent to a placed one, max degree
       first (fail-fast). *)
    let best = ref (-1) in
    for v = 0 to k - 1 do
      if not placed.(v) then begin
        let anchored = ref false in
        for u = 0 to k - 1 do
          if placed.(u) && p.adj.(u).(v) then anchored := true
        done;
        if !anchored
           && (!best < 0 || Pattern.degree p v > Pattern.degree p !best)
        then best := v
      end
    done;
    order.(i) <- !best;
    placed.(!best) <- true
  done;
  (* earlier_nbrs.(i) = positions j < i with order.(j) ~ order.(i). *)
  let earlier_nbrs =
    Array.init k (fun i ->
        let acc = ref [] in
        for j = i - 1 downto 0 do
          if p.adj.(order.(j)).(order.(i)) then acc := j :: !acc
        done;
        Array.of_list !acc)
  in
  (order, earlier_nbrs)

(* Enumerate injective edge-preserving embeddings; [f] receives the
   mapping indexed by pattern vertex. *)
let iter_embeddings g (p : Pattern.t) ~f =
  let k = p.size in
  let order, earlier_nbrs = matching_order p in
  let image = Array.make k (-1) in       (* pattern vertex -> data vertex *)
  let used = Hashtbl.create 16 in
  let rec extend i =
    if i = k then f image
    else begin
      let pv = order.(i) in
      let pdeg = Pattern.degree p pv in
      let try_candidate v =
        if (not (Hashtbl.mem used v)) && G.degree g v >= pdeg then begin
          let ok = ref true in
          Array.iter
            (fun j ->
              if !ok && not (G.mem_edge g image.(order.(j)) v) then ok := false)
            earlier_nbrs.(i);
          if !ok then begin
            image.(pv) <- v;
            Hashtbl.add used v ();
            extend (i + 1);
            Hashtbl.remove used v;
            image.(pv) <- -1
          end
        end
      in
      if Array.length earlier_nbrs.(i) = 0 then
        for v = 0 to G.n g - 1 do
          try_candidate v
        done
      else begin
        (* Anchor on the earlier neighbour with the fewest data
           neighbours. *)
        let anchor = ref earlier_nbrs.(i).(0) in
        Array.iter
          (fun j ->
            if G.degree g image.(order.(j)) < G.degree g image.(order.(!anchor))
            then anchor := j)
          earlier_nbrs.(i);
        G.iter_neighbors g image.(order.(!anchor)) ~f:try_candidate
      end
    end
  in
  extend 0

let embeddings_count g p =
  let c = ref 0 in
  iter_embeddings g p ~f:(fun _ -> incr c);
  !c

let iter g (p : Pattern.t) ~f =
  let n = G.n g in
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 1024 in
  iter_embeddings g p ~f:(fun image ->
      (* Identity of an instance is its image edge set (Definition 8 +
         the automorphism remark). *)
      let key =
        Array.map
          (fun (a, b) ->
            let u = image.(a) and v = image.(b) in
            (min u v * n) + max u v)
          p.edges
      in
      Array.sort compare key;
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let members = Array.copy image in
        Array.sort compare members;
        f members
      end)

let instances g (p : Pattern.t) =
  Dsd_clique.Instances.build ~arity:p.size (fun add -> iter g p ~f:add)

let count g p =
  let c = ref 0 in
  iter g p ~f:(fun _ -> incr c);
  !c

let degrees g p =
  let deg = Array.make (G.n g) 0 in
  iter g p ~f:(fun members ->
      Array.iter (fun v -> deg.(v) <- deg.(v) + 1) members);
  deg
