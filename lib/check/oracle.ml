(* Naive re-derivations of ground truth; shared by the unit suites and
   the fuzz engine so there is exactly one oracle implementation. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

(* Instances of psi inside g, by the slow generic matcher. *)
let slow_count g psi =
  match psi.P.kind with
  | P.Clique -> Naive.count g ~h:psi.P.size
  | _ -> Dsd_pattern.Match.count g psi

let density_of_subset g psi vs =
  if Array.length vs = 0 then 0.
  else begin
    let sub, _ = G.induced g vs in
    float_of_int (slow_count sub psi) /. float_of_int (Array.length vs)
  end

(* kClist's recursion in its plainest form: degeneracy rank, one
   out-neighbour row per vertex, a fresh array from every merge, and
   each clique sorted by Array.sort.  Its order (by root id, then by
   candidate id at each depth) fixes instance ids, so the library's
   allocation-free walk must reproduce it instance for instance. *)
let reference_clique_instances g ~h =
  let rank = (Dsd_graph.Degeneracy.compute g).Dsd_graph.Degeneracy.rank in
  let n = G.n g in
  let out =
    Array.init n (fun v ->
        Array.of_list
          (List.filter
             (fun w -> rank.(w) > rank.(v))
             (Array.to_list (G.neighbors g v))))
  in
  let intersect a b =
    let acc = ref [] and i = ref 0 and j = ref 0 in
    while !i < Array.length a && !j < Array.length b do
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin
        acc := x :: !acc;
        incr i;
        incr j
      end
      else if x < y then incr i
      else incr j
    done;
    Array.of_list (List.rev !acc)
  in
  Dsd_clique.Instances.build ~arity:h (fun add ->
      let buf = Array.make h 0 in
      let emit () =
        let inst = Array.copy buf in
        Array.sort compare inst;
        add inst
      in
      let rec extend depth cand =
        Array.iter
          (fun u ->
            buf.(depth) <- u;
            if depth = h - 1 then emit ()
            else extend (depth + 1) (intersect cand out.(u)))
          cand
      in
      for v = 0 to n - 1 do
        buf.(0) <- v;
        if h = 1 then emit () else extend 1 out.(v)
      done)

(* Exhaustive densest subgraph over all non-empty vertex subsets.
   Only for n <= ~14. *)
let brute_force_densest g psi =
  let n = G.n g in
  assert (n <= 16);
  let best_density = ref 0. and best_set = ref [||] in
  for mask = 1 to (1 lsl n) - 1 do
    let vs = ref [] in
    for v = n - 1 downto 0 do
      if mask land (1 lsl v) <> 0 then vs := v :: !vs
    done;
    let vs = Array.of_list !vs in
    let d = density_of_subset g psi vs in
    if d > !best_density +. 1e-12 then begin
      best_density := d;
      best_set := vs
    end
  done;
  (!best_density, !best_set)

(* Union of ALL maximum-density subsets — the canonical maximal
   densest subgraph.  Exact float comparisons are sound here: every
   density is an int/int quotient with denominator <= 16, and distinct
   such rationals differ by far more than a ulp, so float equality is
   rational equality. *)
let brute_force_maximal_densest g psi =
  let n = G.n g in
  assert (n <= 16);
  let best_density = ref 0. in
  let union = Array.make (max 1 n) false in
  for mask = 1 to (1 lsl n) - 1 do
    let vs = ref [] in
    for v = n - 1 downto 0 do
      if mask land (1 lsl v) <> 0 then vs := v :: !vs
    done;
    let vs = Array.of_list !vs in
    let d = density_of_subset g psi vs in
    if d > !best_density then begin
      best_density := d;
      Array.fill union 0 n false;
      Array.iter (fun v -> union.(v) <- true) vs
    end
    else if d = !best_density && d > 0. then
      Array.iter (fun v -> union.(v) <- true) vs
  done;
  let members =
    Array.of_list (List.filter (fun v -> union.(v)) (List.init n Fun.id))
  in
  (!best_density, members)

(* Ground truth for Topk_lds: iterate the canonical maximal densest
   subgraph on the remaining induced subgraph, mapping back to original
   ids, until k regions are out or the density hits zero. *)
let brute_force_topk ~k g psi =
  let n = G.n g in
  assert (n <= 16 && k >= 1);
  let remaining = Array.make (max 1 n) true in
  let rec go acc j =
    if j = 0 then List.rev acc
    else begin
      let live =
        Array.of_list
          (List.filter (fun v -> remaining.(v)) (List.init n Fun.id))
      in
      if Array.length live = 0 then List.rev acc
      else begin
        let sub, map = G.induced g live in
        let d, members = brute_force_maximal_densest sub psi in
        if d = 0. then List.rev acc
        else begin
          let members = Array.map (fun v -> map.(v)) members in
          Array.iter (fun v -> remaining.(v) <- false) members;
          go ((d, members) :: acc) (j - 1)
        end
      end
    end
  in
  go [] k

(* Ground truth for Ld_decomposition: peel off maximal max-marginal
   augmentations greedily.  Each round enumerates every non-empty
   X ⊆ V \ B, ranks the marginal (mu(B ∪ X) - mu(B)) / |X| as an exact
   int pair (cross-multiplied, never through floats), and augments B by
   the union of all argmax X's — max-marginal augmentations are closed
   under union (instance counts are supermodular), so the union is
   itself an argmax and the canonical level set.  When the best
   marginal is 0 the remaining vertices form one final zero level.
   The reported floats are the same int divisions the library performs,
   so agreement is bit-exact, not approximate. *)
let brute_force_ld_decomposition g psi =
  let n = G.n g in
  assert (n <= 12);
  let inst_masks =
    let insts =
      match psi.P.kind with
      | P.Clique -> Naive.list g ~h:psi.P.size
      | _ -> Dsd_pattern.Match.instances g psi
    in
    Array.init insts.Dsd_clique.Instances.count (fun i ->
        Array.fold_left
          (fun m v -> m lor (1 lsl v))
          0 (Dsd_clique.Instances.get insts i))
  in
  let mu_of mask =
    Array.fold_left
      (fun acc im -> if im land mask = im then acc + 1 else acc)
      0 inst_masks
  in
  let members mask =
    Array.of_list (List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id))
  in
  let popcount mask =
    let c = ref 0 in
    for v = 0 to n - 1 do
      if mask land (1 lsl v) <> 0 then incr c
    done;
    !c
  in
  let full = (1 lsl n) - 1 in
  let b = ref 0 and mu_b = ref 0 in
  let levels = ref [] in
  let finished = ref (n = 0) in
  while not !finished do
    let comp = full land lnot !b in
    (* best marginal so far as the exact rational bn / bd *)
    let bn = ref 0 and bd = ref 1 in
    let union = ref 0 in
    let x = ref comp in
    while !x <> 0 do
      let dmu = mu_of (!b lor !x) - !mu_b in
      let dcard = popcount !x in
      let cmp = compare (dmu * !bd) (!bn * dcard) in
      if cmp > 0 then begin
        bn := dmu;
        bd := dcard;
        union := !x
      end
      else if cmp = 0 && dmu > 0 then union := !union lor !x;
      x := (!x - 1) land comp
    done;
    if !bn = 0 then begin
      (* no strictly positive marginal remains *)
      if comp <> 0 then levels := (0., members comp) :: !levels;
      finished := true
    end
    else begin
      let s = !b lor !union in
      let s_mu = mu_of s in
      levels :=
        ( float_of_int (s_mu - !mu_b) /. float_of_int (popcount !union),
          members !union )
        :: !levels;
      b := s;
      mu_b := s_mu;
      if s = full then finished := true
    end
  done;
  List.rev !levels

(* One exact probe the way every probe ran before the grid: a fresh
   network on G[within] with the pins in local ids, re-aimed cold at
   num/den itself, solved by Dinic, and its residual source side read
   back in caller ids. *)
let reference_probe ?within ?pinned family g psi ~num ~den =
  let module FB = Dsd_core.Flow_build in
  let sub, map =
    match within with
    | None -> (g, Array.init (G.n g) Fun.id)
    | Some vs -> G.induced g vs
  in
  let local = Array.make (G.n g) (-1) in
  Array.iteri (fun i v -> local.(v) <- i) map;
  let pinned = Option.map (Array.map (Array.get local)) pinned in
  if Option.fold ~none:false ~some:(Array.exists (fun v -> v < 0)) pinned then
    invalid_arg "Oracle.reference_probe: a pinned vertex lies outside [within]";
  let instances =
    match family with
    | FB.Eds -> Dsd_clique.Instances.empty ~arity:psi.P.size
    | _ -> Dsd_core.Enumerate.instances sub psi
  in
  let t = FB.prepare ?pinned family sub psi ~instances in
  if Dsd_flow.Flow_network.recapacitate t.FB.net ~den ~num >= 0x1p53 then
    invalid_arg "Oracle.reference_probe: the scaled capacities reach 2^53";
  Array.map (Array.get map) (FB.solve t)

(* The float searches the exact solvers ran before their exact
   Dinkelbach search, kept as references.  They share the flow layer
   with the code under test but none of its search: every probe is a
   float alpha on a network built at the first probe and warm-retargeted
   ({!Dsd_flow.Flow_network.retarget}), inside a bisection that stops
   below stop_gap, half the least distance between two densities over
   the searched vertex set. *)
let float_probe ?pinned family g psi ~instances =
  let module FB = Dsd_core.Flow_build in
  let network = lazy (FB.prepare ?pinned family g psi ~instances) in
  fun alpha ->
    let t = Lazy.force network in
    Dsd_flow.Flow_network.retarget t.FB.net ~s:t.FB.source ~sink:t.FB.sink
      ~alpha;
    FB.solve t

(* Exact's bisection: [0, max instance degree) on the whole graph, the
   last non-empty source side is the answer. *)
let reference_cds g psi =
  let module FB = Dsd_core.Flow_build in
  let module D = Dsd_core.Density in
  let n = G.n g in
  let family = FB.auto_family psi in
  let instances =
    match family with
    | FB.Eds -> Dsd_clique.Instances.empty ~arity:2
    | _ -> Dsd_core.Enumerate.instances g psi
  in
  let mu, max_deg =
    match family with
    | FB.Eds -> (G.m g, G.max_degree g)
    | _ ->
      ( instances.count,
        Array.fold_left max 0 (Dsd_clique.Instances.degrees ~n instances) )
  in
  if n = 0 || mu = 0 then (D.empty, 0)
  else begin
    let probe = float_probe family g psi ~instances in
    let best = ref [||] and probes = ref 0 in
    Dsd_core.Parametric.bisect
      ~gap:(Fun.const (D.stop_gap n))
      ~l:0. ~u:(float_of_int max_deg)
      (fun alpha ->
        incr probes;
        let side = probe alpha in
        if Array.length side = 0 then None
        else begin
          best := side;
          Some alpha
        end);
    ((if Array.length !best = 0 then D.empty else D.of_vertices g psi !best),
     !probes)
  end

(* The query variant's pinned bisection on the
   min(ceil(rho(x-core)), x)-core, from the x-core witness up to the
   largest core number there; l rises to the density of every side
   that beats its probe. *)
let reference_query g psi ~query =
  let module CC = Dsd_core.Clique_core in
  let module D = Dsd_core.Density in
  let decomp = CC.decompose ~track_density:false g psi in
  if decomp.CC.mu_total = 0 then (D.of_vertices g psi query, 0)
  else begin
    let x =
      Array.fold_left (fun acc q -> min acc decomp.CC.core.(q)) max_int query
    in
    let witness = D.of_vertices g psi (CC.core_vertices decomp ~k:x) in
    let k_loc =
      min x
        (int_of_float
           (Float.ceil (witness.D.density -. Dsd_util.Float_guard.eps)))
    in
    let candidates = CC.core_vertices decomp ~k:k_loc in
    let u0 =
      Array.fold_left (fun acc v -> max acc decomp.CC.core.(v)) 0 candidates
    in
    let gc, map = G.induced g candidates in
    let back = Array.make (G.n g) (-1) in
    Array.iteri (fun i v -> back.(v) <- i) map;
    let pinned = Array.map (Array.get back) query in
    let probe =
      float_probe ~pinned (Dsd_core.Parametric.pinned_family psi) gc psi
        ~instances:(Dsd_core.Enumerate.instances gc psi)
    in
    let best = ref witness and probes = ref 0 in
    Dsd_core.Parametric.bisect
      ~gap:(Fun.const (D.stop_gap (G.n gc)))
      ~l:witness.D.density ~u:(float_of_int u0)
      (fun alpha ->
        incr probes;
        let side = probe alpha in
        let cand = D.of_vertices g psi (Array.map (Array.get map) side) in
        if cand.D.density > alpha then begin
          best := cand;
          Some cand.D.density
        end
        else None);
    (!best, !probes)
  end

(* Top-k's iterated extraction with every round's candidate set the
   whole remaining graph: the same exact search as Dsd_core.Topk_lds,
   from the remaining graph's own density; the last accepted side, or
   the remaining graph itself, is the round's region. *)
let reference_topk ~k g psi =
  let module Pm = Dsd_core.Parametric in
  let module T = Dsd_core.Topk_lds in
  if k < 1 then invalid_arg "Oracle.reference_topk: k must be >= 1";
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let iterations = ref 0 and rounds = ref 0 in
  let remaining = Array.make n true in
  let regions = ref [] in
  let stop = ref (n = 0) in
  while (not !stop) && List.length !regions < k do
    incr rounds;
    let rest =
      Array.of_list (List.filter (Array.get remaining) (List.init n Fun.id))
    in
    let arena = Pm.arena ~within:rest (Pm.pinned_family psi) g psi in
    let total = Pm.total arena in
    if total = 0 then stop := true
    else begin
      let side, c = Pm.dinkelbach arena (rest, total) in
      iterations := !iterations + Pm.probes arena;
      let region = Dsd_core.Density.of_count side c in
      regions := region :: !regions;
      Array.iter (fun v -> remaining.(v) <- false) region.vertices;
      if Array.length region.vertices = Array.length rest then stop := true
    end
  done;
  { T.regions = List.rev !regions;
    stats =
      { T.rounds = !rounds;
        iterations = !iterations;
        elapsed_s = Dsd_util.Timer.now_s () -. t0 } }

(* The hierarchy's reference search, per level on a fresh network with
   the prefix B pinned: the min cut maximises mu(S) - alpha |S| over
   S ⊇ B, so a marginal above alpha exists iff the cut beats B.  The
   best marginal the bisection sees is exact, and one more cut just
   below it returns the union of all max-marginal sets: the canonical
   level. *)
let reference_ld_decomposition g psi =
  let module LD = Dsd_core.Ld_decomposition in
  let module Pm = Dsd_core.Parametric in
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let instances = Dsd_core.Enumerate.instances g psi in
  let mask set =
    let m = Array.make (max 1 n) false in
    Array.iter (fun v -> m.(v) <- true) set;
    m
  in
  let count set =
    let m = mask set in
    let c = ref 0 in
    for i = 0 to instances.count - 1 do
      if Array.for_all (Array.get m) (Dsd_clique.Instances.get instances i)
      then incr c
    done;
    !c
  in
  let gap = Dsd_core.Density.stop_gap n in
  let probes = ref 0 in
  (* Levels above the prefix [b] (with [mu_b] instances), whose
     marginals lie below [upper]. *)
  let rec levels b mu_b upper =
    let nb = Array.length b in
    let cut = float_probe ~pinned:b (Pm.pinned_family psi) g psi ~instances in
    let probe alpha =
      incr probes;
      cut alpha
    in
    let best = ref None in
    Pm.bisect ~gap:(Fun.const gap) ~l:0. ~u:upper (fun alpha ->
        let side = probe alpha in
        let size = Array.length side in
        let m = float_of_int (count side - mu_b) /. float_of_int (size - nb) in
        if size > nb && m > alpha then begin
          best := Some m;
          Some m
        end
        else None);
    let in_b = mask b in
    let outside vs = Array.of_list (List.filter (fun v -> not in_b.(v)) vs) in
    match !best with
    | None ->
      (* No positive marginal: B is a proper prefix (the recursion stops
         at V), and the rest is the zero level. *)
      [ { LD.vertices = outside (List.init n Fun.id);
          marginal_density = 0.;
          prefix_size = n } ]
    | Some m ->
      let s = probe (m -. gap) in
      { LD.vertices = outside (Array.to_list s);
        marginal_density = m;
        prefix_size = Array.length s }
      :: (if Array.length s = n then [] else levels s (count s) m)
  in
  (* rho <= max_v deg(v, Psi) / h bounds the first marginal. *)
  let degrees = Dsd_clique.Instances.degrees ~n instances in
  let upper = float_of_int (Array.fold_left max 0 degrees) in
  let levels = if n = 0 then [] else levels [||] 0 upper in
  { LD.levels; iterations = !probes; elapsed_s = Dsd_util.Timer.now_s () -. t0 }

(* Naive (k, Psi)-core: threshold peeling with full re-enumeration
   after every deletion. *)
let survivors g psi k =
  let alive = Array.make (G.n g) true in
  let changed = ref true in
  while !changed do
    changed := false;
    let live =
      Array.of_list
        (List.filter (fun v -> alive.(v)) (List.init (G.n g) Fun.id))
    in
    let sub, map = G.induced g live in
    let insts =
      match psi.P.kind with
      | P.Clique -> Naive.list sub ~h:psi.P.size
      | _ -> Dsd_pattern.Match.instances sub psi
    in
    let deg = Array.make (G.n sub) 0 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) insts.Dsd_clique.Instances.members;
    Array.iteri
      (fun i d ->
        if d < k && alive.(map.(i)) then begin
          alive.(map.(i)) <- false;
          changed := true
        end)
      deg
  done;
  alive

let naive_core_numbers g psi =
  let n = G.n g in
  let core = Array.make n 0 in
  let k = ref 1 in
  let continue_ = ref true in
  while !continue_ do
    let alive = survivors g psi !k in
    let any = ref false in
    Array.iteri
      (fun v a ->
        if a then begin
          core.(v) <- !k;
          any := true
        end)
      alive;
    if !any then incr k else continue_ := false
  done;
  core

(* The round-synchronous peel by brute force: instances from the slow
   listers, every live degree recounted from scratch.  At level k the
   sub-round takes every live vertex of degree <= k, removes them one
   at a time in ascending id and charges each its live degree at that
   moment; with none left at or below k, k rises to the minimum live
   degree.  The residual densities follow every removal. *)
let reference_peel g psi =
  let n = G.n g in
  let insts =
    match psi.P.kind with
    | P.Clique -> Naive.list g ~h:psi.P.size
    | _ -> Dsd_pattern.Match.instances g psi
  in
  let h = insts.Dsd_clique.Instances.arity and mu = insts.count in
  let alive = Array.make n true in
  let live i =
    let ok = ref true in
    for p = i * h to ((i + 1) * h) - 1 do
      if not alive.(insts.members.(p)) then ok := false
    done;
    !ok
  in
  let count f =
    let c = ref 0 in
    for i = 0 to mu - 1 do
      if live i && f i then incr c
    done;
    !c
  in
  let degree v =
    count (fun i ->
        let hit = ref false in
        for p = i * h to ((i + 1) * h) - 1 do
          if insts.members.(p) = v then hit := true
        done;
        !hit)
  in
  let core = Array.make n 0 and order = Array.make n 0 in
  let initial = if n = 0 then 0. else float_of_int mu /. float_of_int n in
  let residuals = Array.make (max 1 n) initial in
  let best = ref (initial, 0, mu) in
  let charges = ref [] and pos = ref 0 and k = ref 0 in
  let kmax_count = ref mu in
  while !pos < n do
    let lives = List.filter (fun v -> alive.(v)) (List.init n Fun.id) in
    match List.filter (fun v -> degree v <= !k) lives with
    | [] ->
      k := List.fold_left (fun m v -> min m (degree v)) max_int lives;
      kmax_count := count (fun _ -> true)
    | frontier ->
      List.iter
        (fun v ->
          charges := (v, degree v) :: !charges;
          alive.(v) <- false;
          core.(v) <- !k;
          order.(!pos) <- v;
          incr pos;
          if !pos < n then begin
            let c = count (fun _ -> true) in
            let d = float_of_int c /. float_of_int (n - !pos) in
            residuals.(!pos) <- d;
            let bd, _, _ = !best in
            if d > bd then best := (d, !pos, c)
          end)
        frontier
  done;
  let best_density, best_start, best_count = !best in
  ( { Dsd_core.Clique_core.core;
      kmax = !k;
      kmax_count = !kmax_count;
      order;
      mu_total = mu;
      best_residual_density = best_density;
      best_residual_start = best_start;
      best_residual_count = best_count;
      residual_densities = residuals },
    Array.of_list (List.rev !charges) )
