exception Error of string

let version = 1
let max_frame = 16 * 1024 * 1024

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---- body codec ---- *)

(* Bodies are built and parsed with a tiny writer/reader pair.  The
   reader trusts nothing: every length prefix is checked against the
   bytes actually remaining before anything is allocated, so a frame
   whose payload lies about its own sizes is rejected as cheaply as a
   well-formed one is accepted. *)

module Enc = struct
  let create () = Buffer.create 64

  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let int b v =
    let bytes = Bytes.create 8 in
    Bytes.set_int64_be bytes 0 (Int64.of_int v);
    Buffer.add_bytes b bytes

  let float b v =
    let bytes = Bytes.create 8 in
    Bytes.set_int64_be bytes 0 (Int64.bits_of_float v);
    Buffer.add_bytes b bytes

  let str b s =
    int b (String.length s);
    Buffer.add_string b s

  let ints b a =
    int b (Array.length a);
    Array.iter (int b) a

  let contents = Buffer.contents
end

module Dec = struct
  type t = { body : string; mutable pos : int }

  let of_string body = { body; pos = 0 }
  let remaining t = String.length t.body - t.pos

  let u8 t =
    if remaining t < 1 then err "truncated body";
    let v = Char.code t.body.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let int64 t =
    if remaining t < 8 then err "truncated body";
    let v = String.get_int64_be t.body t.pos in
    t.pos <- t.pos + 8;
    v

  let int t =
    let v = int64 t in
    if Int64.compare v (Int64.of_int min_int) < 0
       || Int64.compare v (Int64.of_int max_int) > 0
    then err "integer out of range";
    Int64.to_int v

  let float t = Int64.float_of_bits (int64 t)

  let str t =
    let len = int t in
    if len < 0 || len > remaining t then err "corrupt string length";
    let s = String.sub t.body t.pos len in
    t.pos <- t.pos + len;
    s

  let ints t =
    let len = int t in
    if len < 0 || len > remaining t / 8 then err "corrupt array length";
    Array.init len (fun _ -> int t)

  let finish t = if remaining t <> 0 then err "trailing bytes in body"
end

(* ---- frame I/O ---- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let w = Unix.write fd bytes off len in
    write_all fd bytes (off + w) (len - w)
  end

(* [read_exact] returns the bytes read before end-of-stream, retrying
   on EINTR; callers distinguish "closed between frames" (0 bytes of a
   header) from "closed mid-frame" (anything else). *)
let read_exact fd bytes len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    match Unix.read fd bytes !got (len - !got) with
    | 0 -> eof := true
    | r -> got := !got + r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  !got

let read_frame fd =
  let header = Bytes.create 4 in
  match read_exact fd header 4 with
  | 0 -> None
  | h when h < 4 -> err "truncated frame header"
  | _ ->
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len < 2 then err "frame too short (%d bytes)" len;
    if len > max_frame then err "oversized frame (%d bytes, max %d)" len max_frame;
    let payload = Bytes.create len in
    let got = read_exact fd payload len in
    if got < len then err "truncated frame body (%d of %d bytes)" got len;
    let v = Char.code (Bytes.get payload 0) in
    if v <> version then err "protocol version mismatch (%d, expected %d)" v version;
    Some (Char.code (Bytes.get payload 1), Bytes.sub_string payload 2 (len - 2))

let write_frame fd ~tag body =
  let len = String.length body + 2 in
  if len > max_frame then err "frame too large to send (%d bytes)" len;
  let bytes = Bytes.create (4 + len) in
  Bytes.set_int32_be bytes 0 (Int32.of_int len);
  Bytes.set bytes 4 (Char.chr version);
  Bytes.set bytes 5 (Char.chr tag);
  Bytes.blit_string body 0 bytes 6 (String.length body);
  write_all fd bytes 0 (4 + len)

(* ---- typed layer ---- *)

type request =
  | Ping
  | Stats
  | Density of { graph : string; psi : string; algorithm : string }
  | Cds of { graph : string; psi : string; algorithm : string }
  | Decompose of { graph : string; psi : string }
  | Query of { graph : string; psi : string; vertices : int array }
  | Apply_delta of {
      graph : string;
      adds : (int * int) array;
      removes : (int * int) array;
    }
  | Topk of { graph : string; psi : string; k : int }
  | Hierarchy of { graph : string; psi : string; levels : int }
  | Shutdown

type response =
  | Pong
  | Stats_r of {
      counters : (string * int) list;
      cache : (string * int) list;
      graphs : string list;
    }
  | Density_r of float
  | Cds_r of { density : float; vertices : int array }
  | Decompose_r of { kmax : int; core : int array }
  | Query_r of { density : float; vertices : int array }
  | Apply_delta_r of { n : int; m : int; added : int; removed : int }
  | Topk_r of { regions : (float * int array) list }
  | Hierarchy_r of { levels : (float * int array) list }
  | Shutdown_r
  | Error_r of string

(* ---- body codecs ---- *)

(* A codec writes and reads one value of a body.  Bodies are sequences
   of the Enc/Dec scalars above, so every codec is built from a handful
   of combinators and inherits the reader's length checks. *)
type 'a codec = { enc : Buffer.t -> 'a -> unit; dec : Dec.t -> 'a }

let unit = { enc = (fun _ () -> ()); dec = (fun _ -> ()) }
let str = { enc = Enc.str; dec = Dec.str }
let int = { enc = Enc.int; dec = Dec.int }
let float = { enc = Enc.float; dec = Dec.float }
let ints = { enc = Enc.ints; dec = Dec.ints }

(* Edge pairs travel as a flat int array of even length. *)
let pairs =
  { enc =
      (fun b pairs ->
        Enc.int b (2 * Array.length pairs);
        Array.iter (fun (u, v) -> Enc.int b u; Enc.int b v) pairs);
    dec =
      (fun d ->
        let flat = Dec.ints d in
        if Array.length flat mod 2 <> 0 then err "odd edge-pair array length";
        Array.init (Array.length flat / 2) (fun i ->
            (flat.(2 * i), flat.((2 * i) + 1)))) }

let list c =
  { enc =
      (fun b items ->
        Enc.int b (List.length items);
        List.iter (c.enc b) items);
    dec =
      (fun d ->
        let len = Dec.int d in
        if len < 0 || len > Dec.remaining d then err "corrupt list length";
        List.init len (fun _ -> c.dec d)) }

(* [a ** b] is [a]'s field, then [b]'s. *)
let ( ** ) a b =
  { enc = (fun buf (x, y) -> a.enc buf x; b.enc buf y);
    dec = (fun d -> let x = a.dec d in (x, b.dec d)) }

(* ---- one row per endpoint ---- *)

(* A case ties a constructor to its body: the codec of its fields, the
   constructor itself, and the projection that recognises it. *)
type 'v case = Case : 'a codec * ('a -> 'v) * ('v -> 'a option) -> 'v case

(* A constructor without fields has an empty body. *)
let const v =
  Case (unit, (fun () -> v), fun x -> if x = v then Some () else None)

(* [tag] is both the request's frame tag and its OK response's kind
   byte.  [cached] marks the query endpoints whose answers the result
   LRU may hold; each of their request bodies starts with the graph
   name, which [key_graph] relies on. *)
type row = {
  tag : int;
  cached : bool;
  req : request case;
  resp : response case;
}

let rows =
  [ { tag = 0x01; cached = false; req = const Ping; resp = const Pong };
    { tag = 0x02; cached = false; req = const Stats;
      resp = Case (list (str ** int) ** list (str ** int) ** list str,
        (fun (counters, (cache, graphs)) ->
          Stats_r { counters; cache; graphs }),
        function
        | Stats_r r -> Some (r.counters, (r.cache, r.graphs))
        | _ -> None) };
    { tag = 0x03; cached = true;
      req = Case (str ** str ** str,
        (fun (graph, (psi, algorithm)) -> Density { graph; psi; algorithm }),
        function Density r -> Some (r.graph, (r.psi, r.algorithm)) | _ -> None);
      resp = Case (float,
        (fun density -> Density_r density),
        function Density_r density -> Some density | _ -> None) };
    { tag = 0x04; cached = true;
      req = Case (str ** str ** str,
        (fun (graph, (psi, algorithm)) -> Cds { graph; psi; algorithm }),
        function Cds r -> Some (r.graph, (r.psi, r.algorithm)) | _ -> None);
      resp = Case (float ** ints,
        (fun (density, vertices) -> Cds_r { density; vertices }),
        function Cds_r r -> Some (r.density, r.vertices) | _ -> None) };
    { tag = 0x05; cached = true;
      req = Case (str ** str,
        (fun (graph, psi) -> Decompose { graph; psi }),
        function Decompose r -> Some (r.graph, r.psi) | _ -> None);
      resp = Case (int ** ints,
        (fun (kmax, core) -> Decompose_r { kmax; core }),
        function Decompose_r r -> Some (r.kmax, r.core) | _ -> None) };
    { tag = 0x06; cached = true;
      req = Case (str ** str ** ints,
        (fun (graph, (psi, vertices)) -> Query { graph; psi; vertices }),
        function Query r -> Some (r.graph, (r.psi, r.vertices)) | _ -> None);
      resp = Case (float ** ints,
        (fun (density, vertices) -> Query_r { density; vertices }),
        function Query_r r -> Some (r.density, r.vertices) | _ -> None) };
    { tag = 0x07; cached = false;
      req = const Shutdown; resp = const Shutdown_r };
    { tag = 0x08; cached = false;
      req = Case (str ** pairs ** pairs,
        (fun (graph, (adds, removes)) -> Apply_delta { graph; adds; removes }),
        function
        | Apply_delta r -> Some (r.graph, (r.adds, r.removes))
        | _ -> None);
      resp = Case (int ** int ** int ** int,
        (fun (n, (m, (added, removed))) ->
          Apply_delta_r { n; m; added; removed }),
        function
        | Apply_delta_r r -> Some (r.n, (r.m, (r.added, r.removed)))
        | _ -> None) };
    { tag = 0x09; cached = true;
      req = Case (str ** str ** int,
        (fun (graph, (psi, k)) -> Topk { graph; psi; k }),
        function Topk r -> Some (r.graph, (r.psi, r.k)) | _ -> None);
      resp = Case (list (float ** ints),
        (fun regions -> Topk_r { regions }),
        function Topk_r r -> Some r.regions | _ -> None) };
    { tag = 0x0a; cached = true;
      req = Case (str ** str ** int,
        (fun (graph, (psi, levels)) -> Hierarchy { graph; psi; levels }),
        function Hierarchy r -> Some (r.graph, (r.psi, r.levels)) | _ -> None);
      resp = Case (list (float ** ints),
        (fun levels -> Hierarchy_r { levels }),
        function Hierarchy_r r -> Some r.levels | _ -> None) } ]

(* OK responses carry their row's tag as a kind byte so the decoder
   needs no context; errors travel under their own tag, outside the
   table. *)
let tag_ok = 0x40
let tag_error = 0x7f

(* ---- the codec, derived from the rows ---- *)

(* The row whose constructor [v] is (every constructor but [Error_r]
   has one), with the writer of [v]'s body. *)
let row_of case v =
  let writer row =
    match case row with
    | Case (c, _, project) ->
      Option.map (fun a -> (row, fun b -> c.enc b a)) (project v)
  in
  match List.find_map writer rows with
  | Some found -> found
  | None -> invalid_arg "Protocol: constructor without a row"

let contents ?kind write =
  let b = Enc.create () in
  Option.iter (Enc.u8 b) kind;
  write b;
  Enc.contents b

(* Decode a whole body with [f], rejecting trailing bytes. *)
let parse body f =
  let d = Dec.of_string body in
  let v = f d in
  Dec.finish d;
  v

let read (Case (c, inject, _)) d = inject (c.dec d)
let find_tag tag = List.find_opt (fun row -> row.tag = tag) rows

let encode_request req =
  let row, write = row_of (fun row -> row.req) req in
  (row.tag, contents write)

let decode_request tag body =
  match find_tag tag with
  | None -> err "unknown request tag 0x%02x" tag
  | Some row -> parse body (read row.req)

let encode_response = function
  | Error_r msg -> (tag_error, contents (fun b -> Enc.str b msg))
  | resp ->
    let row, write = row_of (fun row -> row.resp) resp in
    (tag_ok, contents ~kind:row.tag write)

let decode_response tag body =
  parse body (fun d ->
      if tag = tag_error then Error_r (Dec.str d)
      else if tag = tag_ok then begin
        let kind = Dec.u8 d in
        match find_tag kind with
        | None -> err "unknown response kind 0x%02x" kind
        | Some row -> read row.resp d
      end
      else err "unknown response tag 0x%02x" tag)

(* The canonical key is simply the request's own wire encoding — two
   requests are the same query iff they serialise identically. *)
let request_key req =
  let row, write = row_of (fun row -> row.req) req in
  if row.cached then Some (Printf.sprintf "%d:%s" row.tag (contents write))
  else None

(* Recover the graph name a cached result key refers to, for targeted
   invalidation after a delta.  Every cached row's body starts with the
   graph string, so decoding one string from the key's body suffices;
   keys that fail to parse return None (and are left alone by
   invalidation — they cannot exist, but be conservative). *)
let key_graph key =
  match String.index_opt key ':' with
  | None -> None
  | Some i -> (
    match Option.bind (int_of_string_opt (String.sub key 0 i)) find_tag with
    | Some { cached = true; _ } -> (
      let body = String.sub key (i + 1) (String.length key - i - 1) in
      try Some (Dec.str (Dec.of_string body)) with Error _ -> None)
    | _ -> None)
