(* Canonical span names, one per pipeline phase, so the CLI, bench
   harness and tests agree on spelling.  Each name is opened by exactly
   one layer of the stack (see Span's no-recursive-nesting rule):

   - algorithm wrappers:  exact / core_exact / peel_app / core_app
   - inside them:         decompose, enumerate, build_network, retarget, flow *)

let decompose = "decompose"
let enumerate = "enumerate"
let build_network = "build_network"
let retarget = "retarget"
let flow = "flow"
let exact = "exact"
let core_exact = "core_exact"
let peel_app = "peel_app"
let core_app = "core_app"

(* One span per request handled by the serving layer (`dsd serve`);
   the algorithm spans above nest underneath it. *)
let serve_request = "serve_request"

(* One span per incremental operation (a delta batch applied to a live
   session, or a query answered from a patched arena). *)
let incremental = "incremental"

(* One span per top-k locally-densest solve (all extraction rounds of
   one {!Dsd_core.Topk_lds.run}); decompose/enumerate/flow nest
   underneath it. *)
let topk = "topk"

(* One span per density-friendly decomposition (all levels of one
   {!Dsd_core.Ld_decomposition.decompose}); enumerate/build_network/
   retarget/flow nest underneath it. *)
let ld = "ld"

(* The paper's Figure 8/Table 3 attribution buckets, in display
   order. *)
let breakdown = [ decompose; enumerate; build_network; retarget; flow ]
