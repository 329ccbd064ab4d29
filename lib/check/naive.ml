module G = Dsd_graph.Graph

let iter g ~h ~f =
  if h < 1 then invalid_arg "Naive.iter: h must be >= 1";
  let buf = Array.make h 0 in
  (* Members are chosen in strictly increasing id order, so instances
     come out sorted and deduplicated for free. *)
  let rec extend depth lowest =
    if depth = h then f buf
    else
      for v = lowest to G.n g - 1 do
        let ok = ref true in
        for i = 0 to depth - 1 do
          if !ok && not (G.mem_edge g buf.(i) v) then ok := false
        done;
        if !ok then begin
          buf.(depth) <- v;
          extend (depth + 1) (v + 1)
        end
      done
  in
  extend 0 0

let count g ~h =
  let c = ref 0 in
  iter g ~h ~f:(fun _ -> incr c);
  !c

let list g ~h = Dsd_clique.Instances.build ~arity:h (fun add -> iter g ~h ~f:add)
