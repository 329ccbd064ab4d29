module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network

type arena = {
  prepare : alpha:float -> Flow_build.prepared;
  warm : bool;
  slot : Flow_build.prepared option ref;
  (* Every arc capacity as built, copied by the first rational probe;
     empty until then (and for ever in an arena of float probes). *)
  mutable unscaled : float array;
}

let arena ?pool ?pinned ?(warm = true) ?(slot = ref None) family g psi
    ~instances =
  { prepare = Flow_build.prepare ?pool ?pinned family g psi ~instances;
    warm;
    slot;
    unscaled = [||] }

let probe a alpha =
  if Array.length a.unscaled > 0 then
    invalid_arg "Parametric.probe: the arena takes rational probes";
  let network =
    match !(a.slot) with
    | Some p -> Flow_build.retarget ~warm:a.warm p ~alpha
    | None ->
      let p = a.prepare ~alpha in
      a.slot := Some p;
      p.Flow_build.network
  in
  Flow_build.solve network

let probe_rational a ~num ~den =
  let p =
    match !(a.slot) with
    | Some p ->
      Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_retargets;
      p
    | None ->
      let p = a.prepare ~alpha:0. in
      a.slot := Some p;
      p
  in
  let { Flow_build.network; alpha_arcs; alpha_base; alpha_coef } = p in
  let net = network.Flow_build.net in
  if Array.length a.unscaled = 0 then
    a.unscaled <- Array.init (F.arc_count net) (F.arc_cap net);
  (* Cold and scaled by [den]: the law base + coef * alpha becomes
     base * den + coef * num, an integer like every other capacity. *)
  Dsd_obs.Span.with_ Dsd_obs.Phase.retarget (fun () ->
      let q = float_of_int den and num = float_of_int num in
      F.reset_flow net;
      Array.iteri (fun e cap -> F.set_cap net e (cap *. q)) a.unscaled;
      Array.iteri
        (fun i e ->
          F.set_cap net e
            (Float.max ((alpha_base.(i) *. q) +. (alpha_coef.(i) *. num)) 0.))
        alpha_arcs);
  Flow_build.solve network

let nodes a =
  match !(a.slot) with
  | Some p -> p.Flow_build.network.Flow_build.node_count
  | None -> 0

let bisect ~gap ~l ~u decide =
  let l = ref l and u = ref u in
  while !u -. !l >= gap () do
    let alpha = (!l +. !u) /. 2. in
    match decide alpha with
    | Some l' -> l := l'
    | None -> u := alpha
  done

let pinned_family (psi : P.t) =
  match psi.kind with
  | P.Clique -> Flow_build.Clique_flow
  | P.Star _ | P.Cycle4 | P.Generic -> Flow_build.Pds_grouped

let striped ?pool n (f : ?pool:Dsd_util.Pool.t -> int -> unit) =
  match pool with
  | Some pl when n > 1 ->
    (* One component per chunk, [eager]: a handful of components each
       hide a full search of flow solves. *)
    Dsd_util.Pool.parallel_for pl ~eager:true ~chunk:1 ~n (fun lo hi ->
        for i = lo to hi - 1 do
          f i
        done)
  | _ ->
    for i = 0 to n - 1 do
      f ?pool i
    done

let raise_to best x =
  let rec go () =
    let cur = Atomic.get best in
    if x > cur && not (Atomic.compare_and_set best cur x) then go ()
  in
  go ()
