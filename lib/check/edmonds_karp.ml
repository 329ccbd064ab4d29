module F = Dsd_flow.Flow_network

let max_flow net ~s ~t =
  if s = t then invalid_arg "Edmonds_karp.max_flow: s = t";
  let n = F.node_count net in
  let parent_arc = Array.make n (-1) in
  let visited = Array.make n false in
  let queue = Queue.create () in
  let find_path () =
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_level_builds;
    Array.fill visited 0 n false;
    Array.fill parent_arc 0 n (-1);
    Queue.clear queue;
    visited.(s) <- true;
    Queue.add s queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      F.iter_arcs_from net u ~f:(fun e ->
          let v = F.arc_dst net e in
          if (not visited.(v)) && F.residual net e > F.eps then begin
            visited.(v) <- true;
            parent_arc.(v) <- e;
            if v = t then found := true else Queue.add v queue
          end)
    done;
    !found
  in
  let arc_src e =
    (* The twin arc points back at the source of [e]. *)
    F.arc_dst net (e lxor 1)
  in
  let total = ref 0. in
  while find_path () do
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_augmentations;
    (* Bottleneck along the stored path. *)
    let bottleneck = ref infinity in
    let v = ref t in
    while !v <> s do
      let e = parent_arc.(!v) in
      bottleneck := min !bottleneck (F.residual net e);
      v := arc_src e
    done;
    let v = ref t in
    while !v <> s do
      let e = parent_arc.(!v) in
      F.push net e !bottleneck;
      v := arc_src e
    done;
    total := !total +. !bottleneck
  done;
  !total
