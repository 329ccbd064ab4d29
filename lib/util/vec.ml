module Int = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 8) () =
    { data = Array.make (max capacity 1) 0; len = 0 }

  let length t = t.len

  let check t i =
    if i < 0 || i >= t.len then invalid_arg "Vec.Int: index out of bounds"

  let get t i = check t i; t.data.(i)
  let set t i v = check t i; t.data.(i) <- v

  let grow t =
    let cap = Array.length t.data in
    let data = Array.make (2 * cap) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data

  let push t v =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let pop t =
    if t.len = 0 then invalid_arg "Vec.Int.pop: empty";
    t.len <- t.len - 1;
    t.data.(t.len)

  let clear t = t.len <- 0
  let to_array t = Array.sub t.data 0 t.len

  let iter f t =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let fold f acc t =
    let acc = ref acc in
    for i = 0 to t.len - 1 do
      acc := f !acc t.data.(i)
    done;
    !acc
end
