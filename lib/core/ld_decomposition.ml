module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type level = {
  vertices : int array;
  marginal_density : float;
  prefix_size : int;
}

type t = {
  levels : level list;
  iterations : int;
  elapsed_s : float;
}

(* A chain set: its sorted vertices and its instance count c. *)
type chain = { set : int array; c : int }

let size x = Array.length x.set

let decompose g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.ld @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let instances = Enumerate.instances g psi in
  let arena =
    Parametric.arena (Parametric.pinned_family psi) g psi ~instances
  in
  let inside = Array.make (max 1 n) false in
  let mark set flag = Array.iter (fun v -> inside.(v) <- flag) set in
  let chain set =
    mark set true;
    let c = Dsd_clique.Instances.count_inside instances inside in
    mark set false;
    { set; c }
  in
  (* [b \ a] for sorted [a ⊆ b], sorted. *)
  let minus b a =
    mark a true;
    let x = List.filter (fun v -> not inside.(v)) (Array.to_list b) in
    mark a false;
    Array.of_list x
  in
  let probes = ref 0 in
  let levels = ref [] in
  let emit vertices marginal_density prefix_size =
    Dsd_obs.Counter.incr Dsd_obs.Counter.Ld_levels;
    levels := { vertices; marginal_density; prefix_size } :: !levels
  in
  (* [a] ⊂ [b] are chain sets.  Their chord alpha* = p / q is the
     weighted mean of the marginals between them, so the minimal
     maximiser S of c(S) - alpha* |S| — the min cut's source side — is
     a chain set with A ⊆ S ⊊ B, and S = A exactly when B \ A is a
     single level of marginal alpha*.  Every probe either splits the
     chord or emits a level: 2L - 1 probes for L levels. *)
  let rec split a b =
    let p = b.c - a.c and q = size b - size a in
    incr probes;
    Dsd_obs.Counter.incr Dsd_obs.Counter.Ld_probes;
    let s = chain (Parametric.probe_rational arena ~num:p ~den:q) in
    if (s.c - a.c) * q > p * (size s - size a) then begin
      split a s;
      split s b
    end
    else
      emit (minus b.set a.set) (float_of_int p /. float_of_int q) (size b)
  in
  (* The positive levels cover exactly the vertices in some instance;
     the rest of the graph is the zero level. *)
  mark instances.Dsd_clique.Instances.members true;
  let support, rest = List.partition (Array.get inside) (List.init n Fun.id) in
  let support = Array.of_list support in
  mark support false;
  if instances.count > 0 then
    split { set = [||]; c = 0 } { set = support; c = instances.count };
  if rest <> [] then emit (Array.of_list rest) 0. n;
  { levels = List.rev !levels;
    iterations = !probes;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }

let prefix t i =
  (* Out-of-range indices used to fall through the recursion and
     silently return the full vertex set — for i < 0 as well, which is
     never what the caller meant. *)
  if i < 0 || i > List.length t.levels then
    invalid_arg
      (Printf.sprintf "Ld_decomposition.prefix: index %d not in [0, %d]" i
         (List.length t.levels));
  let rec take acc k = function
    | [] -> acc
    | _ when k = 0 -> acc
    | level :: rest -> take (Array.to_list level.vertices @ acc) (k - 1) rest
  in
  (* Each level block is sorted, but blocks interleave in general, so
     the prefix still merges by sorting the concatenation. *)
  let vs = Array.of_list (take [] i t.levels) in
  Array.sort compare vs;
  vs
