module G = Dsd_graph.Graph

type subgraph = {
  vertices : int array;
  density : float;
}

let empty = { vertices = [||]; density = 0. }

let of_count vertices c =
  if Array.length vertices = 0 then empty
  else
    { vertices;
      density = float_of_int c /. float_of_int (Array.length vertices) }

let ceil_ratio c n = (c + n - 1) / n

let count g psi vs = Enumerate.count (fst (G.induced g vs)) psi

let of_vertices g psi vs =
  if Array.length vs = 0 then empty
  else begin
    let sub, vertices = G.induced g vs in
    of_count vertices (Enumerate.count sub psi)
  end

let better a b = if b.density > a.density then b else a

let min_gap n =
  if n < 2 then 1. else 1. /. (float_of_int n *. float_of_int (n - 1))

let stop_gap n = min_gap n /. 2.
