module G = Dsd_graph.Graph
module Pool = Dsd_util.Pool

let recommended_domains () =
  let hardware = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "DSD_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some d when d >= 1 -> d
     | Some _ | None -> hardware)
  | None -> hardware

(* Past ~4 domains the CLI's graphs rarely have enough independent
   work per phase to amortise the extra workers, and oversubscribing
   small boxes actively hurts — so the CLI default caps the hardware
   count at 4 unless the user (or DSD_DOMAINS) says otherwise. *)
let default_domains () =
  let hardware = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "DSD_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some d when d >= 1 -> d
     | Some _ | None -> min hardware 4)
  | None -> min hardware 4

(* Each domain's participation in an enumeration job runs under one
   clique_stripe span, so the obs table reads as aggregate stripe CPU
   time with one entry per domain — the same shape the old
   spawn-per-call code reported. *)
let stripe_wrap f = Dsd_obs.Span.with_ Dsd_obs.Phase.clique_stripe f

(* Chunks coarse enough that per-chunk setup (candidate buffers, one
   atomic counter flush inside Kclist) is noise, fine enough that work
   stealing evens out skewed recursion trees.  [parallel_width] keeps
   inline-fallback jobs from being split as if the workers were
   coming. *)
let chunk_for pool n = max 16 (n / (8 * Pool.parallel_width pool ~n))

let count_in pool g ~h =
  let dag = Kclist.prepare g in
  let n = G.n g in
  Pool.fold_chunks pool ~chunk:(chunk_for pool n) ~wrap:stripe_wrap ~n ~init:0
    ~merge:( + ) (fun lo hi -> Kclist.count_prepared dag ~h ~lo ~hi)

let degrees_in pool g ~h =
  let dag = Kclist.prepare g in
  let n = G.n g in
  if n = 0 then [||]
  else begin
    (* Coarser chunks here: every chunk allocates an n-slot
       accumulator, so bound the count by the effective pool width
       rather than the stealing granularity. *)
    let chunk = max 1024 (n / (2 * Pool.parallel_width pool ~n)) in
    let parts =
      Pool.map_chunks pool ~chunk ~wrap:stripe_wrap ~n (fun lo hi ->
          let deg = Array.make n 0 in
          Kclist.iter_prepared dag ~h ~lo ~hi ~f:(fun inst ->
              Array.iter (fun v -> deg.(v) <- deg.(v) + 1) inst);
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
  end

let list_in pool g ~h =
  let dag = Kclist.prepare g in
  let n = G.n g in
  let parts =
    Pool.map_chunks pool ~chunk:(chunk_for pool n) ~wrap:stripe_wrap ~n
      (fun lo hi -> (Kclist.list_prepared dag ~h ~lo ~hi).Instances.members)
  in
  (* Chunks cover roots 0..n-1 in order and arrive in chunk order, so
     this concatenation is exactly the sequential Kclist.list order. *)
  Instances.of_members ~arity:h (Array.concat (Array.to_list parts))

let count g ~h ~domains =
  if domains < 1 then invalid_arg "Parallel: domains must be >= 1";
  Pool.with_pool domains (fun pool -> count_in pool g ~h)

let degrees g ~h ~domains =
  if domains < 1 then invalid_arg "Parallel: domains must be >= 1";
  Pool.with_pool domains (fun pool -> degrees_in pool g ~h)
