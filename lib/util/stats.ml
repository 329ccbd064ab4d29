let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let median a =
  if Array.length a = 0 then 0.
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    let n = Array.length b in
    if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.
  end

let max_int_arr a = Array.fold_left max min_int a

let power_law_alpha degrees =
  let n = ref 0 and sum_log = ref 0. in
  Array.iter
    (fun d ->
      if d >= 1 then begin
        incr n;
        sum_log := !sum_log +. log (float_of_int d)
      end)
    degrees;
  if !n = 0 || !sum_log <= 0. then infinity
  else 1. +. (float_of_int !n /. !sum_log)

let histogram xs =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun x ->
      let c = try Hashtbl.find tbl x with Not_found -> 0 in
      Hashtbl.replace tbl x (c + 1))
    xs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
