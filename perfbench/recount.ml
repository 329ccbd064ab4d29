(* An independent h-clique recount for the answer checks on large
   vertex sets, where the oracle's naive backtracking lister
   (Dsd_check.Oracle.density_of_subset) takes seconds to minutes.

   Edges are oriented from lower to higher (degree, id) rank, and
   cliques are listed by merging sorted out-neighbour arrays: a lister
   written apart from the library's kClist and backtracking code, so a
   defect there cannot cancel out here. *)

module G = Dsd_graph.Graph

let inter a b =
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out := x :: !out;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)

(* [degrees g vs h] is, for each position of [vs], the number of
   h-cliques (2 <= h <= 4) of G[vs] containing that vertex. *)
let degrees g vs h =
  if h < 2 || h > 4 then invalid_arg "Recount.degrees: 2 <= h <= 4";
  let sub, _ = G.induced g vs in
  let n = G.n sub in
  let above u w =
    let du = G.degree sub u and dw = G.degree sub w in
    dw > du || (dw = du && w > u)
  in
  let out =
    Array.init n (fun u ->
        G.neighbors sub u |> Array.to_list |> List.filter (above u) |> Array.of_list)
  in
  let deg = Array.make n 0 in
  let bump = List.iter (fun v -> deg.(v) <- deg.(v) + 1) in
  for u = 0 to n - 1 do
    Array.iter
      (fun v ->
        if h = 2 then bump [ u; v ]
        else begin
          let uv = inter out.(u) out.(v) in
          Array.iter
            (fun w ->
              if h = 3 then bump [ u; v; w ]
              else Array.iter (fun x -> bump [ u; v; w; x ]) (inter uv out.(w)))
            uv
        end)
      out.(u)
  done;
  deg

(* Psi-density of G[vs] for an h-clique Psi, as the library computes
   it: instance count over vertex count, one float division. *)
let density g vs h =
  if Array.length vs = 0 then 0.
  else
    let total = Array.fold_left ( + ) 0 (degrees g vs h) in
    float_of_int (total / h) /. float_of_int (Array.length vs)
