module F = Flow_network

let source_side net ~s =
  let { F.nodes = n; start; arcs; dst; cap; flow; cursor = queue; _ } =
    F.view net
  in
  let side = Array.make n false in
  side.(s) <- true;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = start.(u) to start.(u + 1) - 1 do
      let e = arcs.(i) in
      let v = dst.(e) in
      if (not side.(v)) && cap.(e) -. flow.(e) > F.eps then begin
        side.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  side

let solve net ~s ~t =
  (* [Dinic.max_flow] returns only the flow pushed by this call; under
     a warm start the network already carries flow from earlier probes,
     so report the total committed value instead of the delta. *)
  let (_ : float) = Dinic.max_flow net ~s ~t in
  (F.flow_value net ~s, source_side net ~s)

let cut_capacity net side =
  let total = ref 0. in
  for u = 0 to F.node_count net - 1 do
    if side.(u) then
      F.iter_arcs_from net u ~f:(fun e ->
          (* Only original forward arcs carry capacity; twins have cap 0
             and contribute nothing. *)
          let v = F.arc_dst net e in
          if not side.(v) then total := !total +. F.arc_cap net e)
  done;
  !total
