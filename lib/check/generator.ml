module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Prng = Dsd_util.Prng
module Gen = Dsd_data.Gen

type case = {
  graph : G.t;
  psi : P.t;
  cert : int array option;
  label : string;
}

type t = {
  name : string;
  sample : Prng.t -> case;
}

(* Seed-based Gen functions are re-seeded from the case stream so one
   Prng.t drives the whole sample. *)
let draw_seed rng = Int64.to_int (Prng.bits64 rng) land max_int

(* Weighted psi choice.  Cliques dominate (they exercise the paper's
   main path); stars and the 4-cycle take the Appendix-D closed-form
   decompositions; h = 4 keeps enumeration honest. *)
let pick_psi rng =
  match Prng.int rng 10 with
  | 0 | 1 | 2 | 3 -> P.edge
  | 4 | 5 | 6 -> P.triangle
  | 7 -> P.clique 4
  | 8 -> P.star 2
  | _ -> P.diamond

let gnp =
  { name = "gnp";
    sample =
      (fun rng ->
        let psi = pick_psi rng in
        let n = 4 + Prng.int rng 12 in
        let p = 0.15 +. Prng.float rng 0.35 in
        let graph = Gen.er_gnp ~seed:(draw_seed rng) ~n ~p in
        { graph; psi; cert = None;
          label = Printf.sprintf "gnp(n=%d,p=%.2f)" n p }) }

let chung_lu =
  { name = "chung-lu";
    sample =
      (fun rng ->
        let psi = pick_psi rng in
        let n = 8 + Prng.int rng 10 in
        let avg_deg = 2. +. Prng.float rng 3. in
        let graph =
          Gen.power_law_chung_lu ~seed:(draw_seed rng) ~n ~alpha:2.5 ~avg_deg
        in
        { graph; psi; cert = None;
          label = Printf.sprintf "chung-lu(n=%d,deg=%.1f)" n avg_deg }) }

let union_of_gnp =
  { name = "union";
    sample =
      (fun rng ->
        let psi = pick_psi rng in
        let half rng =
          let n = 3 + Prng.int rng 7 in
          let p = 0.2 +. Prng.float rng 0.4 in
          Gen.er_gnp ~seed:(draw_seed rng) ~n ~p
        in
        let a = half rng and b = half rng in
        { graph = Gen.disjoint_union a b; psi; cert = None;
          label = Printf.sprintf "union(%d+%d)" (G.n a) (G.n b) }) }

let planted_block =
  { name = "planted";
    sample =
      (fun rng ->
        let h = 2 + Prng.int rng 2 in
        let psi = P.clique h in
        let n = 8 + Prng.int rng 10 in
        let block = h + 1 + Prng.int rng (min 3 (n - h - 1)) in
        let graph, members =
          Gen.planted_clique_subset ~seed:(draw_seed rng) ~n ~p:0.1 ~block
        in
        { graph; psi; cert = Some members;
          label = Printf.sprintf "planted(n=%d,block=%d,h=%d)" n block h }) }

let sparse =
  { name = "sparse";
    sample =
      (fun rng ->
        let psi = pick_psi rng in
        let n = 1 + Prng.int rng 12 in
        let m = if n < 2 then 0 else Prng.int rng n in
        let graph =
          Gen.random_graph_for_tests (Prng.create (draw_seed rng))
            ~max_n:n ~max_m:m
        in
        { graph; psi; cert = None;
          label = Printf.sprintf "sparse(n<=%d,m<=%d)" n m }) }

let all = [ gnp; chung_lu; union_of_gnp; planted_block; sparse ]

(* ---- malformed wire frames for the serve fault-injection tests ----

   Each sample is (label, bytes) where the bytes are NOT a well-formed
   protocol frame: the server must answer with a structured error or
   close the connection, never crash or hang.  Built by hand rather
   than via Dsd_serve.Protocol so a codec bug cannot accidentally
   "agree" with its own corruption. *)

let frame_of ~len payload =
  let b = Buffer.create (4 + String.length payload) in
  Buffer.add_uint8 b ((len lsr 24) land 0xff);
  Buffer.add_uint8 b ((len lsr 16) land 0xff);
  Buffer.add_uint8 b ((len lsr 8) land 0xff);
  Buffer.add_uint8 b (len land 0xff);
  Buffer.add_string b payload;
  Buffer.contents b

let random_bytes rng n = String.init n (fun _ -> Char.chr (Prng.int rng 256))

let malformed_frame rng =
  match Prng.int rng 8 with
  | 0 ->
    (* header cut short: fewer than the 4 length bytes *)
    ("truncated-header", random_bytes rng (1 + Prng.int rng 3))
  | 1 ->
    (* announces more body than it sends *)
    let sent = Prng.int rng 8 in
    ("truncated-body", frame_of ~len:(sent + 2 + Prng.int rng 64)
                         (random_bytes rng sent))
  | 2 ->
    (* length prefix far beyond max_frame *)
    ("oversized-length",
     frame_of ~len:(0x4000_0000 lor Prng.int rng 0x3fff_ffff) "")
  | 3 ->
    (* too short to even hold version + tag *)
    ("undersized-length", frame_of ~len:(Prng.int rng 2)
                            (random_bytes rng (Prng.int rng 2)))
  | 4 ->
    (* well-formed frame, wrong protocol version *)
    let body = random_bytes rng (Prng.int rng 16) in
    let version = Char.chr (2 + Prng.int rng 250) in
    ("bad-version",
     frame_of ~len:(2 + String.length body)
       (Printf.sprintf "%c%c%s" version (Char.chr (Prng.int rng 256)) body))
  | 5 ->
    (* correct version, unknown request tag *)
    let body = random_bytes rng (Prng.int rng 16) in
    ("unknown-tag",
     frame_of ~len:(2 + String.length body)
       (Printf.sprintf "\x01%c%s" (Char.chr (0x60 + Prng.int rng 0x1f)) body))
  | 6 ->
    (* correct version + tag, garbage body — every body-carrying
       request tag, including apply-delta (0x08), topk (0x09) and
       hierarchy (0x0a) *)
    let tags = [| 0x03; 0x04; 0x05; 0x06; 0x08; 0x09; 0x0a |] in
    let body = random_bytes rng (1 + Prng.int rng 32) in
    ("garbage-body",
     frame_of ~len:(2 + String.length body)
       (Printf.sprintf "\x01%c%s"
          (Char.chr tags.(Prng.int rng (Array.length tags))) body))
  | _ ->
    (* a topk frame whose body parses as two strings but lies about k:
       a plausible-looking request the typed layer must still reject *)
    let b = Buffer.create 32 in
    let str s =
      let len = Bytes.create 8 in
      Bytes.set_int64_be len 0 (Int64.of_int (String.length s));
      Buffer.add_bytes b len;
      Buffer.add_string b s
    in
    str "g";
    str "edge";
    (* k arrives truncated: 1-7 of its 8 bytes *)
    Buffer.add_string b (random_bytes rng (1 + Prng.int rng 7));
    let body = Buffer.contents b in
    ("topk-garbage",
     frame_of ~len:(2 + String.length body)
       (Printf.sprintf "\x01\x09%s" body))

let sample rng =
  let gen = List.nth all (Prng.int rng (List.length all)) in
  gen.sample rng
