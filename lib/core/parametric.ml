module P = Dsd_pattern.Pattern

type arena = {
  prepare : alpha:float -> Flow_build.prepared;
  warm : bool;
  slot : Flow_build.prepared option ref;
}

let arena ?pool ?pinned ?(warm = true) ?(slot = ref None) family g psi
    ~instances =
  { prepare = Flow_build.prepare ?pool ?pinned family g psi ~instances;
    warm;
    slot }

let probe a alpha =
  let network =
    match !(a.slot) with
    | Some p -> Flow_build.retarget ~warm:a.warm p ~alpha
    | None ->
      let p = a.prepare ~alpha in
      a.slot := Some p;
      p.Flow_build.network
  in
  Flow_build.solve network

let built a = Option.is_some !(a.slot)

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
