(* Named, nestable timed regions.

   Each domain keeps its own enter/exit stack (domain-local storage),
   so spans opened inside [Domain.spawn] nest independently of the
   parent; totals accumulate into one global table under a mutex, so
   concurrent runs of the same region sum across domains.  Exits
   are rare relative to the work inside a span, so the mutex is not a
   contention point. *)

type acc = { mutable total_s : float; mutable entries : int }

let table : (string, acc) Hashtbl.t = Hashtbl.create 32
let lock = Mutex.create ()

let stack_key : (string * float) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

type token = { name : string; start_s : float; live : bool }

(* Shared token for the disabled path: entering costs one atomic read
   and no allocation. *)
let dead = { name = ""; start_s = 0.; live = false }

let depth_of stack = List.length !stack

let enter name =
  if not (Atomic.get State.enabled) then dead
  else begin
    let stack = Domain.DLS.get stack_key in
    let t = State.now_s () in
    let depth = depth_of stack in
    stack := (name, t) :: !stack;
    Trace.emit (fun () ->
        Trace.Span_enter
          { name; t_s = t; domain = (Domain.self () :> int); depth });
    { name; start_s = t; live = true }
  end

let exit tok =
  if tok.live then begin
    let t = State.now_s () in
    let stack = Domain.DLS.get stack_key in
    (match !stack with
     | (n, _) :: rest when n = tok.name -> stack := rest
     | _ ->
       (* Unbalanced exit (an exception unwound past intermediate
          spans, say): drop frames down to ours if present. *)
       let rec unwind = function
         | (n, _) :: rest -> if n = tok.name then rest else unwind rest
         | [] -> []
       in
       stack := unwind !stack);
    let elapsed = t -. tok.start_s in
    Mutex.lock lock;
    (match Hashtbl.find_opt table tok.name with
     | Some a ->
       a.total_s <- a.total_s +. elapsed;
       a.entries <- a.entries + 1
     | None -> Hashtbl.add table tok.name { total_s = elapsed; entries = 1 });
    Mutex.unlock lock;
    Trace.emit (fun () ->
        Trace.Span_exit
          { name = tok.name;
            t_s = t;
            elapsed_s = elapsed;
            domain = (Domain.self () :> int);
            depth = depth_of (Domain.DLS.get stack_key) })
  end

let with_ name f =
  if not (Atomic.get State.enabled) then f ()
  else begin
    let tok = enter name in
    match f () with
    | x ->
      exit tok;
      x
    | exception e ->
      exit tok;
      raise e
  end

let total_s name =
  Mutex.lock lock;
  let t =
    match Hashtbl.find_opt table name with Some a -> a.total_s | None -> 0.
  in
  Mutex.unlock lock;
  t

let entries name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt table name with Some a -> a.entries | None -> 0
  in
  Mutex.unlock lock;
  c

let snapshot () =
  Mutex.lock lock;
  let rows =
    Hashtbl.fold (fun name a acc -> (name, a.total_s, a.entries) :: acc) table []
  in
  Mutex.unlock lock;
  List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock
