module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network

type t = {
  net : F.t;
  source : int;
  sink : int;
  n_vertices : int;
  node_count : int;
}

(* The probes of a parametric search change only the alpha-dependent
   arc class (Goldberg's parametric observation), so each constructor
   records those arcs together with their capacity law
   cap(alpha) = max(base + coef * alpha, 0) and [retarget] re-points
   the same arena at a new alpha in O(V). *)
type prepared = {
  network : t;
  alpha_arcs : int array;
  alpha_base : float array;
  alpha_coef : float array;
}

let vertex_node v = v + 1

let solve t =
  Dsd_obs.Span.with_ Dsd_obs.Phase.flow @@ fun () ->
  let aug0 = Dsd_obs.Counter.get Dsd_obs.Counter.Flow_augmentations in
  let (_ : float) = Dsd_flow.Dinic.max_flow t.net ~s:t.source ~t:t.sink in
  let side = Dsd_flow.Min_cut.source_side t.net ~s:t.source in
  Dsd_obs.Probe.record
    (Dsd_obs.Counter.get Dsd_obs.Counter.Flow_augmentations - aug0);
  let out = Dsd_util.Vec.Int.create () in
  for v = 0 to t.n_vertices - 1 do
    if side.(vertex_node v) then Dsd_util.Vec.Int.push out v
  done;
  Dsd_util.Vec.Int.to_array out

let alpha_cap ~base ~coef alpha = Float.max (base +. (coef *. alpha)) 0.

(* Collects the alpha-dependent arcs a constructor emits. *)
let alpha_recorder () =
  let arcs = Dsd_util.Vec.Int.create () in
  let bases = Dsd_util.Vec.Float.create () in
  let coefs = Dsd_util.Vec.Float.create () in
  let record net ~src ~dst ~base ~coef ~alpha =
    let id = F.add_edge net ~src ~dst ~cap:(alpha_cap ~base ~coef alpha) in
    Dsd_util.Vec.Int.push arcs id;
    Dsd_util.Vec.Float.push bases base;
    Dsd_util.Vec.Float.push coefs coef
  in
  let finish network =
    { network;
      alpha_arcs = Dsd_util.Vec.Int.to_array arcs;
      alpha_base = Dsd_util.Vec.Float.to_array bases;
      alpha_coef = Dsd_util.Vec.Float.to_array coefs }
  in
  (record, finish)

let retarget ?(warm = true) p ~alpha =
  Dsd_obs.Span.with_ Dsd_obs.Phase.retarget @@ fun () ->
  Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_retargets;
  let net = p.network.net in
  if warm then begin
    (* Keep the previous probe's flow: rewrite every alpha capacity
       first (alpha may move either direction), then repair the arcs
       whose new capacity fell below their committed flow by draining
       the excess back to the source.  The solver then only has to
       augment the difference. *)
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_warm_starts;
    for i = 0 to Array.length p.alpha_arcs - 1 do
      F.set_cap_carry net p.alpha_arcs.(i)
        (alpha_cap ~base:p.alpha_base.(i) ~coef:p.alpha_coef.(i) alpha)
    done;
    let s = p.network.source in
    Array.iter (fun e -> ignore (F.restore_arc net ~s e)) p.alpha_arcs
  end
  else begin
    F.reset_flow net;
    for i = 0 to Array.length p.alpha_arcs - 1 do
      F.set_cap net p.alpha_arcs.(i)
        (alpha_cap ~base:p.alpha_base.(i) ~coef:p.alpha_coef.(i) alpha)
    done
  end;
  p.network

let eds_prepared g ~alpha =
  let n = G.n g in
  let m = float_of_int (G.m g) in
  let size = n + 2 in
  let net = F.create size in
  let source = 0 and sink = size - 1 in
  let record, finish = alpha_recorder () in
  for v = 0 to n - 1 do
    ignore (F.add_edge net ~src:source ~dst:(vertex_node v) ~cap:m);
    (* cap = m + 2 alpha - deg(v), clamped at 0. *)
    record net ~src:(vertex_node v) ~dst:sink
      ~base:(m -. float_of_int (G.degree g v)) ~coef:2. ~alpha
  done;
  G.iter_edges g ~f:(fun u v ->
      ignore (F.add_edge net ~src:(vertex_node u) ~dst:(vertex_node v) ~cap:1.);
      ignore (F.add_edge net ~src:(vertex_node v) ~dst:(vertex_node u) ~cap:1.));
  finish { net; source; sink; n_vertices = n; node_count = size }

(* Shared degree computation from an instance list.  With a pool the
   per-chunk partial counts fan out across domains; integer addition
   commutes, so the merged array is exactly the sequential one. *)
let degrees_of_instances ?pool n instances =
  match pool with
  | Some pool when Array.length instances > 0 && n > 0 ->
    let len = Array.length instances in
    let chunk = max 1024 (len / (2 * Dsd_util.Pool.parallel_width pool ~n:len)) in
    let parts =
      Dsd_util.Pool.map_chunks pool ~chunk ~n:len (fun lo hi ->
          let deg = Array.make n 0 in
          for i = lo to hi - 1 do
            Array.iter (fun v -> deg.(v) <- deg.(v) + 1) instances.(i)
          done;
          deg)
    in
    let first = parts.(0) in
    for p = 1 to Array.length parts - 1 do
      let part = parts.(p) in
      for v = 0 to n - 1 do
        first.(v) <- first.(v) + part.(v)
      done
    done;
    first
  | _ ->
    let deg = Array.make n 0 in
    Array.iter
      (fun inst -> Array.iter (fun v -> deg.(v) <- deg.(v) + 1) inst)
      instances;
    deg

let instance_degrees = degrees_of_instances

let clique_prepared ?pool ?(pinned = [||]) g ~h ~instances ~alpha =
  let n = G.n g in
  let ninst = Array.length instances in
  (* For every h-clique and every member v, an arc v -> (clique minus
     v) is needed.  Materialising the (member, subset) pairs is the
     allocation-heavy part, and each pair depends on one instance
     only, so it stripes across the pool; chunks concatenate back to
     the forward generation order. *)
  let pairs_chunk lo hi =
    let out = Array.make ((hi - lo) * h) (0, [||]) in
    let p = ref 0 in
    for ii = lo to hi - 1 do
      let inst = instances.(ii) in
      for i = 0 to h - 1 do
        let psi = Array.make (h - 1) 0 in
        let k = ref 0 in
        for j = 0 to h - 1 do
          if j <> i then begin
            psi.(!k) <- inst.(j);
            incr k
          end
        done;
        out.(!p) <- (inst.(i), psi);
        incr p
      done
    done;
    out
  in
  let pairs =
    if ninst = 0 then [||]
    else
      match pool with
      | None -> pairs_chunk 0 ninst
      | Some pool ->
        let chunk =
          max 512 (ninst / (8 * Dsd_util.Pool.parallel_width pool ~n:ninst))
        in
        Array.concat
          (Array.to_list
             (Dsd_util.Pool.map_chunks pool ~chunk ~n:ninst pairs_chunk))
  in
  (* Node each (h-1)-subset of some h-clique, keyed by the sorted
     member array.  Ids are assigned sequentially in forward pair
     order: the hash table sees the same insertions in the same order
     as a fully sequential build, so its iteration order — and with it
     every arc of the network — is bit-identical for any pool size. *)
  let sub_ids : (int array, int) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  let arcs = ref [] in
  Array.iter
    (fun (v, psi) ->
      let id =
        match Hashtbl.find_opt sub_ids psi with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          Hashtbl.add sub_ids psi id;
          id
      in
      arcs := (v, id) :: !arcs)
    pairs;
  let lambda = !next in
  let size = n + lambda + 2 in
  let net = F.create size in
  let source = 0 and sink = size - 1 in
  let sub_node id = n + 1 + id in
  let deg = degrees_of_instances ?pool n instances in
  let record, finish = alpha_recorder () in
  for v = 0 to n - 1 do
    if deg.(v) > 0 then
      ignore (F.add_edge net ~src:source ~dst:(vertex_node v)
                ~cap:(float_of_int deg.(v)));
    record net ~src:(vertex_node v) ~dst:sink
      ~base:0. ~coef:(float_of_int h) ~alpha
  done;
  Array.iter
    (fun q ->
      ignore (F.add_edge net ~src:source ~dst:(vertex_node q) ~cap:infinity))
    pinned;
  List.iter
    (fun (v, id) ->
      ignore (F.add_edge net ~src:(vertex_node v) ~dst:(sub_node id) ~cap:1.))
    !arcs;
  Hashtbl.iter
    (fun psi id ->
      Array.iter
        (fun u ->
          ignore
            (F.add_edge net ~src:(sub_node id) ~dst:(vertex_node u)
               ~cap:infinity))
        psi)
    sub_ids;
  finish { net; source; sink; n_vertices = n; node_count = size }

let pds_prepared ?pool ?(pinned = [||]) ~grouped g (psi : P.t) ~instances
    ~alpha =
  let n = G.n g in
  let p = psi.size in
  (* construct+ groups instances sharing a vertex set; the ungrouped
     network is the degenerate case where every group has size 1. *)
  let groups =
    if grouped then begin
      let tbl : (int array, int) Hashtbl.t = Hashtbl.create 256 in
      Array.iter
        (fun inst ->
          let c = try Hashtbl.find tbl inst with Not_found -> 0 in
          Hashtbl.replace tbl inst (c + 1))
        instances;
      Hashtbl.fold (fun members count acc -> (members, count) :: acc) tbl []
      |> Array.of_list
    end
    else Array.map (fun inst -> (inst, 1)) instances
  in
  let lambda = Array.length groups in
  let size = n + lambda + 2 in
  let net = F.create size in
  let source = 0 and sink = size - 1 in
  let group_node id = n + 1 + id in
  let deg = degrees_of_instances ?pool n instances in
  let record, finish = alpha_recorder () in
  for v = 0 to n - 1 do
    if deg.(v) > 0 then
      ignore (F.add_edge net ~src:source ~dst:(vertex_node v)
                ~cap:(float_of_int deg.(v)));
    record net ~src:(vertex_node v) ~dst:sink
      ~base:0. ~coef:(float_of_int p) ~alpha
  done;
  Array.iter
    (fun q ->
      ignore (F.add_edge net ~src:source ~dst:(vertex_node q) ~cap:infinity))
    pinned;
  Array.iteri
    (fun id (members, count) ->
      let cf = float_of_int count in
      Array.iter
        (fun v ->
          ignore (F.add_edge net ~src:(vertex_node v) ~dst:(group_node id) ~cap:cf);
          ignore
            (F.add_edge net ~src:(group_node id) ~dst:(vertex_node v)
               ~cap:(cf *. float_of_int (p - 1))))
        members)
    groups;
  finish { net; source; sink; n_vertices = n; node_count = size }

type family = Eds | Clique_flow | Pds | Pds_grouped

let auto_family (psi : P.t) =
  match psi.kind with
  | P.Clique when psi.size = 2 -> Eds
  | P.Clique -> Clique_flow
  | P.Star _ | P.Cycle4 | P.Generic -> Pds

let prepare ?pool ?pinned family g (psi : P.t) ~instances ~alpha =
  (match (family, pinned) with
   | Eds, Some pins when Array.length pins > 0 ->
     (* The Goldberg construction has no pinning analysis. *)
     invalid_arg "Flow_build.prepare: the Eds network cannot pin vertices"
   | _ -> ());
  Dsd_obs.Span.with_ Dsd_obs.Phase.build_network @@ fun () ->
  Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_networks_built;
  match family with
  | Eds -> eds_prepared g ~alpha
  | Clique_flow -> clique_prepared ?pool ?pinned g ~h:psi.size ~instances ~alpha
  | Pds -> pds_prepared ?pool ?pinned ~grouped:false g psi ~instances ~alpha
  | Pds_grouped ->
    pds_prepared ?pool ?pinned ~grouped:true g psi ~instances ~alpha
