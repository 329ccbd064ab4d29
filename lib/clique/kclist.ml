module G = Dsd_graph.Graph

(* The degeneracy DAG in CSR form: the out-neighbours of v (the
   neighbours peeled after it) are targets.(off.(v)) ..
   targets.(off.(v + 1) - 1), sorted by vertex id so candidate sets
   can be intersected by linear merges. *)
type dag = { off : int array; targets : int array; max_out : int }

let dag g =
  let rank = (Dsd_graph.Degeneracy.compute g).rank in
  let n = G.n g in
  let off = Array.make (n + 1) 0 in
  let max_out = ref 0 in
  for v = 0 to n - 1 do
    let d =
      G.fold_neighbors g v ~init:0 ~f:(fun acc w ->
          if rank.(w) > rank.(v) then acc + 1 else acc)
    in
    if d > !max_out then max_out := d;
    off.(v + 1) <- off.(v) + d
  done;
  let targets = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    let i = ref off.(v) in
    G.iter_neighbors g v ~f:(fun w ->
        if rank.(w) > rank.(v) then begin
          targets.(!i) <- w;
          incr i
        end)
  done;
  { off; targets; max_out = !max_out }

(* [dst] := cand.(lo .. hi - 1) ∩ out(u), in order; returns its
   length. *)
let intersect_into dag cand lo hi u dst =
  let t = dag.targets in
  let i = ref lo and j = ref dag.off.(u) and k = ref 0 in
  let jend = dag.off.(u + 1) in
  while !i < hi && !j < jend do
    let x = cand.(!i) and y = t.(!j) in
    if x = y then begin
      dst.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !k

(* The one recursion behind [iter], [count] and [list]: for every root
   vertex and every chain of h - 1 DAG vertices from it,
   [last chain cand clo chi] receives the chain in chain.(0 .. h - 2)
   and the candidates for its last member in cand.(clo .. chi - 1) (at
   h = 1 the chain is empty and the root is the one candidate).
   Candidate sets live in one buffer per depth, sized to the DAG's
   maximum out-degree, so the walk allocates nothing after its set-up.  Roots ascend and candidates ascend by
   id, which fixes the instance order. *)
let walk dag ~h ~last =
  let n = Array.length dag.off - 1 in
  let chain = Array.make h 0 in
  if h = 1 then begin
    let root = Array.make 1 0 in
    for v = 0 to n - 1 do
      root.(0) <- v;
      last chain root 0 1
    done
  end
  else begin
    let bufs =
      Array.init h (fun d -> if d >= 2 then Array.make dag.max_out 0 else [||])
    in
    let rec extend depth cand clo chi =
      if depth = h - 1 then last chain cand clo chi
      else begin
        let next = bufs.(depth + 1) in
        for p = clo to chi - 1 do
          let u = cand.(p) in
          chain.(depth) <- u;
          let len = intersect_into dag cand clo chi u next in
          extend (depth + 1) next 0 len
        done
      end
    in
    for v = 0 to n - 1 do
      chain.(0) <- v;
      extend 1 dag.targets dag.off.(v) dag.off.(v + 1)
    done
  end

(* chain.(0 .. h - 2) into sorted.(0 .. h - 2), ascending, by
   insertion sort. *)
let sort_prefix chain sorted h =
  for i = 0 to h - 2 do
    let x = chain.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && sorted.(!j) > x do
      sorted.(!j + 1) <- sorted.(!j);
      decr j
    done;
    sorted.(!j + 1) <- x
  done

(* dst.(0 .. h - 1) := the sorted prefix with [x] inserted. *)
let insert_into sorted h x dst =
  let i = ref 0 in
  while !i < h - 1 && sorted.(!i) < x do
    dst.(!i) <- sorted.(!i);
    incr i
  done;
  dst.(!i) <- x;
  for j = !i to h - 2 do
    dst.(j + 1) <- sorted.(j)
  done

(* Tally locally, publish once per call: one atomic add instead of
   one per instance. *)
let publish emitted =
  Dsd_obs.Counter.add Dsd_obs.Counter.Clique_instances emitted

let check_h h = if h < 1 then invalid_arg "Kclist: h must be >= 1"

let iter g ~h ~f =
  check_h h;
  let sorted = Array.make h 0 and emit = Array.make h 0 in
  let emitted = ref 0 in
  walk (dag g) ~h ~last:(fun chain cand clo chi ->
      sort_prefix chain sorted h;
      for p = clo to chi - 1 do
        insert_into sorted h cand.(p) emit;
        f emit
      done;
      emitted := !emitted + (chi - clo));
  publish !emitted

let count g ~h =
  check_h h;
  let emitted = ref 0 in
  walk (dag g) ~h ~last:(fun _ _ clo chi -> emitted := !emitted + (chi - clo));
  publish !emitted;
  !emitted

let list g ~h = Instances.build ~arity:h (fun add -> iter g ~h ~f:add)
