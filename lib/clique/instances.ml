type t = { arity : int; count : int; members : int array }

let of_members ~arity members =
  if arity < 1 then invalid_arg "Instances.of_members: arity must be >= 1";
  let len = Array.length members in
  if len mod arity <> 0 then
    invalid_arg "Instances.of_members: length is not a multiple of arity";
  { arity; count = len / arity; members }

let empty ~arity = of_members ~arity [||]

(* Rows accumulate in blocks that double from 64 rows up to [max_rows]
   rows and then stay that size; the blocks are copied once, at the
   end, into the exact-size member array.  No row moves while rows
   arrive, and the garbage left behind is one copy of the members,
   where one doubling array would leave the trimmed buffer plus every
   buffer it outgrew (on approx_large that cost 6 MB of peak RSS). *)
let max_rows = 16384

let build ~arity fill =
  if arity < 1 then invalid_arg "Instances.build: arity must be >= 1";
  let full = ref [] and filled = ref 0 in
  let cur = ref (Array.make (64 * arity) 0) and len = ref 0 in
  fill (fun row ->
      if !len = Array.length !cur then begin
        full := !cur :: !full;
        filled := !filled + !len;
        cur := Array.make (min (2 * !len) (max_rows * arity)) 0;
        len := 0
      end;
      let b = !cur and base = !len in
      for j = 0 to arity - 1 do
        b.(base + j) <- row.(j)
      done;
      len := base + arity);
  let members = Array.make (!filled + !len) 0 in
  Array.blit !cur 0 members !filled !len;
  ignore
    (List.fold_left
       (fun hi b ->
         let lo = hi - Array.length b in
         Array.blit b 0 members lo (Array.length b);
         lo)
       !filled !full);
  of_members ~arity members

let get t i = Array.sub t.members (i * t.arity) t.arity

let filter t ~keep =
  let h = t.arity in
  let kept = Bytes.create t.count in
  let c = ref 0 in
  for i = 0 to t.count - 1 do
    let k = keep i in
    Bytes.set kept i (if k then '\001' else '\000');
    if k then incr c
  done;
  let members = Array.make (!c * h) 0 in
  let pos = ref 0 in
  for i = 0 to t.count - 1 do
    if Bytes.get kept i = '\001' then begin
      Array.blit t.members (i * h) members !pos h;
      pos := !pos + h
    end
  done;
  { arity = h; count = !c; members }

let count_inside t inside =
  let h = t.arity and mem = t.members in
  let c = ref 0 in
  for i = 0 to t.count - 1 do
    let base = i * h in
    let j = ref 0 in
    while !j < h && inside.(mem.(base + !j)) do
      incr j
    done;
    if !j = h then incr c
  done;
  !c

let degrees ~n t =
  let deg = Array.make n 0 in
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) t.members;
  deg
