(* Per-layer metrics of a traced run: self times rebuilt from the span
   events Dsd_obs records, and the counters it keeps.

   Layers and the spans (or counters) that stand for them:
     enumerate      span "enumerate"      Dsd_core.Enumerate -> Kclist / Match
     decompose      span "decompose"      Dsd_core.Clique_core
     build_network  span "build_network"  Flow_build.prepare / build
     retarget       span "retarget"       Flow_build.retarget, Inc_dsd arc surgery
     flow           span "flow"           Dinic / Min_cut on Flow_network
     search         probe-loop counters in Core_exact, Exact, Query_dsd,
                    Topk_lds, Ld_decomposition
     incremental    delta counters        Inc_dsd, Dsd_graph.Dynamic
   A layer's self time is its span's duration minus the part its child
   spans cover. *)

module Counter = Dsd_obs.Counter
module Trace = Dsd_obs.Trace

let span_layers =
  Dsd_obs.Phase.[ enumerate; decompose; build_network; retarget; flow ]

(* The span the benchmark opens around each operation, so time spent
   outside every library span is still attributed to something. *)
let op_span = "perfbench.op"

(* Adds each span's self time from one operation's event stream into
   [tally].  Runs are sequential (no pool), so one stack rebuilds the
   nesting. *)
let fold_self tally events =
  let add name s =
    Hashtbl.replace tally name
      (s +. Option.value ~default:0. (Hashtbl.find_opt tally name))
  in
  let stack = ref [] in
  List.iter
    (function
      | Trace.Span_enter { name; _ } -> stack := (name, ref 0.) :: !stack
      | Trace.Span_exit { name; elapsed_s; _ } -> (
        match !stack with
        | (top, children) :: rest when top = name ->
          add name (elapsed_s -. !children);
          stack := rest;
          (match rest with
           | (_, parent) :: _ -> parent := !parent +. elapsed_s
           | [] -> ())
        | _ -> failwith ("unbalanced span exit " ^ name))
      | Trace.Message _ -> ())
    events

(* [traced tally f] runs [f] with recording on and a fresh in-memory
   sink (passed to [enable]: enabling resets any sink set before it),
   inside the benchmark's own op span, and folds the events into
   [tally].  Returns the result and the seconds [f] took with tracing
   on. *)
let traced tally f =
  let sink = Trace.memory () in
  let t0 = Measure.now () in
  Dsd_obs.Control.enable ~sink ();
  let r =
    Fun.protect ~finally:Dsd_obs.Control.disable (fun () ->
        Dsd_obs.Span.with_ op_span f)
  in
  let dt = Measure.now () -. t0 in
  fold_self tally (Trace.memory_events sink);
  (r, dt)

(* Self time per layer span, and [other.self_s] for everything outside
   them: probe loops, algorithm wrappers and the op span itself. *)
let self_times tally =
  let other =
    Hashtbl.fold
      (fun span s acc -> if List.mem span span_layers then acc else acc +. s)
      tally 0.
  in
  List.map
    (fun span ->
      ( span ^ ".self_s",
        Option.value ~default:0. (Hashtbl.find_opt tally span) ))
    span_layers
  @ [ ("other.self_s", other) ]

(* Counter-derived metrics.  [get] reads a counter's delta over the
   traced script; [probes] is the number of min-cut solves.  Every
   value here is a count or a ratio of counts, so at pool width 1 two
   runs of one script must agree exactly. *)
let counts ~probes get =
  let f n = float_of_int (get n) in
  let built = f Counter.Flow_networks_built
  and retargets = f Counter.Flow_retargets in
  [ ("enumerate.instances", f Counter.Clique_instances);
    ("decompose.peeled", f Counter.Peeled_vertices);
    ("build_network.count", built);
    ("build_network.per_probe", Measure.ratio built (float_of_int probes));
    ("retarget.count", retargets);
    ("retarget.warm_ratio", Measure.ratio (f Counter.Flow_warm_starts) retargets);
    ("retarget.drained", f Counter.Flow_excess_drained);
    ("flow.augmentations", f Counter.Flow_augmentations);
    ("flow.level_builds", f Counter.Flow_level_builds);
    ("search.probes", float_of_int probes);
    ("ld.probes", f Counter.Ld_probes);
    ("ld.levels", f Counter.Ld_levels);
    ("topk.rounds", f Counter.Topk_rounds);
    ("topk.components_pruned", f Counter.Topk_components_pruned);
    ("delta.core_repairs", f Counter.Delta_core_repairs);
    ("delta.instances_added", f Counter.Delta_instances_added);
    ("delta.instances_retired", f Counter.Delta_instances_retired);
    ("delta.arena_rebuilds", f Counter.Delta_arena_rebuilds) ]
