module G = Dsd_graph.Graph

type subgraph = {
  vertices : int array;
  density : float;
}

let edge_density g =
  if G.n g = 0 then 0. else float_of_int (G.m g) /. float_of_int (G.n g)

let pattern_density g psi =
  if G.n g = 0 then 0.
  else float_of_int (Enumerate.count g psi) /. float_of_int (G.n g)

let of_vertices g psi vs =
  if Array.length vs = 0 then { vertices = [||]; density = 0. }
  else begin
    let sub, vertices = G.induced g vs in
    { vertices; density = pattern_density sub psi }
  end

let empty = { vertices = [||]; density = 0. }

let better a b = if b.density > a.density then b else a

let min_gap n =
  if n < 2 then 1. else 1. /. (float_of_int n *. float_of_int (n - 1))

let stop_gap n = min_gap n /. 2.
