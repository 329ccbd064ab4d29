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

let vertex_node v = v + 1

(* The vertices with a source arc: those in at least one instance. *)
let sourced deg = Array.fold_left (fun c d -> if d > 0 then c + 1 else c) 0 deg

let cut t ~f =
  Dsd_obs.Span.with_ Dsd_obs.Phase.flow @@ fun () ->
  let aug0 = Dsd_obs.Counter.get Dsd_obs.Counter.Flow_augmentations in
  let (_ : float) = Dsd_flow.Dinic.max_flow t.net ~s:t.source ~t:t.sink in
  let side = Dsd_flow.Min_cut.source_side t.net ~s:t.source in
  Dsd_obs.Probe.record
    (Dsd_obs.Counter.get Dsd_obs.Counter.Flow_augmentations - aug0);
  f t side

let vertices_of_side t side =
  let k = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    if side.(vertex_node v) then incr k
  done;
  let out = Array.make !k 0 in
  k := 0;
  for v = 0 to t.n_vertices - 1 do
    if side.(vertex_node v) then begin
      out.(!k) <- v;
      incr k
    end
  done;
  out

let solve t = cut t ~f:vertices_of_side

(* The h = 2 instance network with its one-vertex subset layer
   contracted, read off the CSR: the subset node {v} of an edge uv has
   the one member v, so its infinite arc merges it into v, and u's unit
   arc to it becomes a unit arc u -> v.  A source side S then cuts
   2m - 2 (c(S) - alpha |S|). *)
let edge_network ?(pinned = [||]) g =
  let n = G.n g in
  let size = n + 2 in
  let isolated = ref 0 in
  for v = 0 to n - 1 do
    if G.degree g v = 0 then incr isolated
  done;
  let net =
    F.create size
      ~edges:((2 * n) - !isolated + Array.length pinned + (2 * G.m g))
  in
  let source = 0 and sink = size - 1 in
  for v = 0 to n - 1 do
    let d = G.degree g v in
    if d > 0 then
      ignore
        (F.add_edge net ~src:source ~dst:(vertex_node v) ~cap:(float_of_int d));
    ignore (F.add_edge net ~coef:2. ~src:(vertex_node v) ~dst:sink ~cap:0.)
  done;
  Array.iter
    (fun q ->
      ignore (F.add_edge net ~src:source ~dst:(vertex_node q) ~cap:infinity))
    pinned;
  G.iter_edges g ~f:(fun u v ->
      ignore (F.add_edge net ~src:(vertex_node u) ~dst:(vertex_node v) ~cap:1.);
      ignore (F.add_edge net ~src:(vertex_node v) ~dst:(vertex_node u) ~cap:1.));
  { net; source; sink; n_vertices = n; node_count = size }

(* The (h-1)-subsets of the clique network, read in place: pair
   [p = i * h + j] names instance [i] without its member [j], and since
   an instance's members are sorted, two pairs name the same subset iff
   their remaining members agree position by position.  [subset_ids]
   gives every pair its subset's id from a linear-probing table of
   pair indices (slot -1 = empty) with at least two slots per pair, so
   it is at most half full; ids are assigned in pair order, first seen
   first, and nothing is allocated per pair. *)
let subset_hash mem ~h p =
  let j = p mod h in
  let base = p - j in
  let x = ref 0 in
  for k = 0 to h - 1 do
    if k <> j then x := (!x lxor mem.(base + k)) * 0x2545F4914F6CDD1D
  done;
  !x lxor (!x lsr 29)

let same_subset mem ~h p q =
  let jp = p mod h and jq = q mod h in
  let bp = p - jp and bq = q - jq in
  let same = ref true and k = ref 0 in
  while !same && !k < h - 1 do
    let a = if !k < jp then !k else !k + 1 in
    let b = if !k < jq then !k else !k + 1 in
    same := mem.(bp + a) = mem.(bq + b);
    incr k
  done;
  !same

let subset_ids mem ~h ~pairs =
  let ids = Array.make pairs 0 in
  let size = ref 16 in
  while !size < 2 * pairs do
    size := 2 * !size
  done;
  let table = Array.make !size (-1) and mask = !size - 1 in
  let lambda = ref 0 in
  for p = 0 to pairs - 1 do
    let x = ref (subset_hash mem ~h p land mask) in
    while table.(!x) >= 0 && not (same_subset mem ~h p table.(!x)) do
      x := (!x + 1) land mask
    done;
    let q = table.(!x) in
    if q >= 0 then ids.(p) <- ids.(q)
    else begin
      table.(!x) <- p;
      ids.(p) <- !lambda;
      incr lambda
    end
  done;
  (ids, !lambda)

let clique_network ?(pinned = [||]) g ~h
    ~(instances : Dsd_clique.Instances.t) =
  let n = G.n g in
  let mem = instances.members in
  (* For every h-clique and every member v, an arc v -> (clique minus
     v); each (h-1)-subset of some h-clique is one node. *)
  let pairs = instances.count * h in
  let ids, lambda = subset_ids mem ~h ~pairs in
  let size = n + lambda + 2 in
  let deg = Dsd_clique.Instances.degrees ~n instances in
  let net =
    F.create size
      ~edges:
        (sourced deg + n + Array.length pinned + pairs + (lambda * (h - 1)))
  in
  let source = 0 and sink = size - 1 in
  let sub_node id = n + 1 + id in
  for v = 0 to n - 1 do
    if deg.(v) > 0 then
      ignore (F.add_edge net ~src:source ~dst:(vertex_node v)
                ~cap:(float_of_int deg.(v)));
    ignore
      (F.add_edge net ~coef:(float_of_int h) ~src:(vertex_node v) ~dst:sink
         ~cap:0.)
  done;
  Array.iter
    (fun q ->
      ignore (F.add_edge net ~src:source ~dst:(vertex_node q) ~cap:infinity))
    pinned;
  (* The v -> subset arcs in descending pair order (Dinic tries a
     vertex's arcs in insertion order, so this order fixes its
     augmenting paths), then every subset's arcs to its members, by
     id. *)
  for p = pairs - 1 downto 0 do
    ignore
      (F.add_edge net ~src:(vertex_node mem.(p)) ~dst:(sub_node ids.(p)) ~cap:1.)
  done;
  let next = ref 0 in
  for p = 0 to pairs - 1 do
    if ids.(p) = !next then begin
      let j = p mod h in
      for k = p - j to p - j + h - 1 do
        if k <> p then
          ignore
            (F.add_edge net ~src:(sub_node !next) ~dst:(vertex_node mem.(k))
               ~cap:infinity)
      done;
      incr next
    end
  done;
  { net; source; sink; n_vertices = n; node_count = size }

let pds_network ?(pinned = [||]) ~grouped g (psi : P.t)
    ~(instances : Dsd_clique.Instances.t) =
  let n = G.n g in
  let p = psi.size in
  (* construct+ groups instances sharing a vertex set; the ungrouped
     network is the degenerate case where every group is one instance,
     read in place.  [iter_group id f] calls [f v count] per member. *)
  let lambda, iter_group =
    if grouped then begin
      let tbl : (int array, int) Hashtbl.t = Hashtbl.create 256 in
      for i = 0 to instances.count - 1 do
        let inst = Dsd_clique.Instances.get instances i in
        let c = try Hashtbl.find tbl inst with Not_found -> 0 in
        Hashtbl.replace tbl inst (c + 1)
      done;
      let groups =
        Hashtbl.fold (fun members count acc -> (members, count) :: acc) tbl []
        |> Array.of_list
      in
      ( Array.length groups,
        fun id f ->
          let members, count = groups.(id) in
          Array.iter (fun v -> f v count) members )
    end
    else
      let a = instances.arity in
      ( instances.count,
        fun id f ->
          for q = id * a to ((id + 1) * a) - 1 do
            f instances.members.(q) 1
          done )
  in
  let size = n + lambda + 2 in
  let deg = Dsd_clique.Instances.degrees ~n instances in
  let net =
    F.create size
      ~edges:(sourced deg + n + Array.length pinned + (2 * lambda * p))
  in
  let source = 0 and sink = size - 1 in
  let group_node id = n + 1 + id in
  for v = 0 to n - 1 do
    if deg.(v) > 0 then
      ignore (F.add_edge net ~src:source ~dst:(vertex_node v)
                ~cap:(float_of_int deg.(v)));
    ignore
      (F.add_edge net ~coef:(float_of_int p) ~src:(vertex_node v) ~dst:sink
         ~cap:0.)
  done;
  Array.iter
    (fun q ->
      ignore (F.add_edge net ~src:source ~dst:(vertex_node q) ~cap:infinity))
    pinned;
  for id = 0 to lambda - 1 do
    iter_group id (fun v count ->
        let cf = float_of_int count in
        ignore (F.add_edge net ~src:(vertex_node v) ~dst:(group_node id) ~cap:cf);
        ignore
          (F.add_edge net ~src:(group_node id) ~dst:(vertex_node v)
             ~cap:(cf *. float_of_int (p - 1))))
  done;
  { net; source; sink; n_vertices = n; node_count = size }

type family = Eds | Clique_flow | Pds | Pds_grouped

let auto_family (psi : P.t) =
  match psi.kind with
  | P.Clique when psi.size = 2 -> Eds
  | P.Clique -> Clique_flow
  | P.Star _ | P.Cycle4 | P.Generic -> Pds

let prepare ?pinned family g (psi : P.t) ~instances =
  Dsd_obs.Span.with_ Dsd_obs.Phase.build_network @@ fun () ->
  Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_networks_built;
  match family with
  | Eds -> edge_network ?pinned g
  | Clique_flow -> clique_network ?pinned g ~h:psi.size ~instances
  | Pds -> pds_network ?pinned ~grouped:false g psi ~instances
  | Pds_grouped -> pds_network ?pinned ~grouped:true g psi ~instances
