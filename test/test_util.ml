(* Unit and property tests for dsd_util: PRNG, bucket queue, lazy heap,
   binomials, union-find, vectors, stats. *)

module Prng = Dsd_util.Prng
module BQ = Dsd_util.Bucket_queue
module LH = Dsd_util.Lazy_heap
module Binom = Dsd_util.Binom

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_bounds () =
  let r = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Prng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5)
  done

let test_prng_pair_distinct () =
  let r = Prng.create 2 in
  for _ = 1 to 500 do
    let a, b = Prng.pair_distinct r 5 in
    Alcotest.(check bool) "distinct" true (a <> b && a >= 0 && a < 5 && b >= 0 && b < 5)
  done

let test_prng_split_independent () =
  let a = Prng.create 3 in
  let b = Prng.split a in
  (* Streams should differ (overwhelmingly likely for a good mix). *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split decorrelates" true (!same < 4)

let test_prng_shuffle_permutation () =
  let r = Prng.create 4 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_geometric () =
  let r = Prng.create 5 in
  Alcotest.(check int) "p=1 gives 0" 0 (Prng.geometric r 1.0);
  let total = ref 0 in
  for _ = 1 to 10_000 do
    total := !total + Prng.geometric r 0.5
  done;
  (* Mean of geometric(0.5) failures-before-success is 1. *)
  let mean = float_of_int !total /. 10_000. in
  Alcotest.(check bool) "mean near 1" true (mean > 0.9 && mean < 1.1)

let test_bucket_queue_basic () =
  let q = BQ.create ~n:5 ~max_key:10 in
  BQ.add q ~item:0 ~key:3;
  BQ.add q ~item:1 ~key:1;
  BQ.add q ~item:2 ~key:7;
  Alcotest.(check int) "cardinal" 3 (BQ.cardinal q);
  Alcotest.(check bool) "mem" true (BQ.mem q 1);
  Alcotest.(check int) "key" 7 (BQ.key q 2);
  (match BQ.pop_min q with
   | Some (item, key) ->
     Alcotest.(check int) "min item" 1 item;
     Alcotest.(check int) "min key" 1 key
   | None -> Alcotest.fail "expected pop");
  BQ.update q ~item:2 ~key:0;
  (match BQ.pop_min q with
   | Some (item, key) ->
     Alcotest.(check int) "updated min" 2 item;
     Alcotest.(check int) "updated key" 0 key
   | None -> Alcotest.fail "expected pop");
  BQ.remove q 0;
  Alcotest.(check bool) "empty" true (BQ.pop_min q = None)

let test_bucket_queue_duplicate_add () =
  let q = BQ.create ~n:2 ~max_key:3 in
  BQ.add q ~item:0 ~key:1;
  Alcotest.check_raises "duplicate add rejected"
    (Invalid_argument "Bucket_queue.add: duplicate item")
    (fun () -> BQ.add q ~item:0 ~key:2)

(* Model-based: against a reference implementation using sorted lists. *)
let bucket_queue_model_prop seed =
  let r = Prng.create seed in
  let n = 30 and max_key = 20 in
  let q = BQ.create ~n ~max_key in
  let model = Hashtbl.create 16 in
  let ok = ref true in
  for _ = 1 to 300 do
    match Prng.int r 4 with
    | 0 ->
      let item = Prng.int r n in
      if not (Hashtbl.mem model item) then begin
        let key = Prng.int r (max_key + 1) in
        BQ.add q ~item ~key;
        Hashtbl.add model item key
      end
    | 1 ->
      let item = Prng.int r n in
      if Hashtbl.mem model item then begin
        let key = Prng.int r (max_key + 1) in
        BQ.update q ~item ~key;
        Hashtbl.replace model item key
      end
    | 2 ->
      let item = Prng.int r n in
      if Hashtbl.mem model item then begin
        BQ.remove q item;
        Hashtbl.remove model item
      end
    | _ ->
      (match BQ.pop_min q with
       | None -> if Hashtbl.length model <> 0 then ok := false
       | Some (item, key) ->
         let model_min =
           Hashtbl.fold (fun _ k acc -> min k acc) model max_int
         in
         if key <> model_min || Hashtbl.find_opt model item <> Some key then
           ok := false;
         Hashtbl.remove model item)
  done;
  !ok

let test_lazy_heap_basic () =
  let h = LH.create ~n:4 in
  LH.add h ~item:0 ~key:100_000_000;
  LH.add h ~item:1 ~key:5;
  LH.add h ~item:2 ~key:50;
  LH.update h ~item:0 ~key:1;
  (match LH.pop_min h with
   | Some (item, key) ->
     Alcotest.(check int) "item" 0 item;
     Alcotest.(check int) "key" 1 key
   | None -> Alcotest.fail "expected pop");
  LH.remove h 2;
  (match LH.pop_min h with
   | Some (item, _) -> Alcotest.(check int) "next" 1 item
   | None -> Alcotest.fail "expected pop");
  Alcotest.(check bool) "drained" true (LH.pop_min h = None)

let lazy_heap_model_prop seed =
  let r = Prng.create seed in
  let n = 25 in
  let h = LH.create ~n in
  let model = Hashtbl.create 16 in
  let ok = ref true in
  for _ = 1 to 300 do
    match Prng.int r 4 with
    | 0 ->
      let item = Prng.int r n in
      if not (Hashtbl.mem model item) then begin
        let key = Prng.int r 1_000_000 in
        LH.add h ~item ~key;
        Hashtbl.add model item key
      end
    | 1 ->
      let item = Prng.int r n in
      if Hashtbl.mem model item then begin
        let key = Prng.int r 1_000_000 in
        LH.update h ~item ~key;
        Hashtbl.replace model item key
      end
    | 2 ->
      let item = Prng.int r n in
      if Hashtbl.mem model item then begin
        LH.remove h item;
        Hashtbl.remove model item
      end
    | _ ->
      (match LH.pop_min h with
       | None -> if Hashtbl.length model <> 0 then ok := false
       | Some (item, key) ->
         let model_min =
           Hashtbl.fold (fun _ k acc -> min k acc) model max_int
         in
         if key <> model_min || Hashtbl.find_opt model item <> Some key then
           ok := false;
         Hashtbl.remove model item)
  done;
  !ok

let test_binom_small () =
  Alcotest.(check int) "C(5,2)" 10 (Binom.choose 5 2);
  Alcotest.(check int) "C(10,0)" 1 (Binom.choose 10 0);
  Alcotest.(check int) "C(10,10)" 1 (Binom.choose 10 10);
  Alcotest.(check int) "C(4,7)=0" 0 (Binom.choose 4 7);
  Alcotest.(check int) "C(n,-1)=0" 0 (Binom.choose 4 (-1));
  Alcotest.(check int) "C(52,5)" 2_598_960 (Binom.choose 52 5)

let test_binom_pascal () =
  for n = 1 to 30 do
    for k = 1 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "pascal C(%d,%d)" n k)
        (Binom.choose (n - 1) (k - 1) + Binom.choose (n - 1) k)
        (Binom.choose n k)
    done
  done

let test_binom_saturates () =
  (* C(200, 100) overflows 63 bits massively; must clamp, not wrap. *)
  Alcotest.(check int) "saturated" max_int (Binom.choose 200 100);
  Alcotest.(check bool) "monotone near saturation" true
    (Binom.choose 100 50 > 0)

let test_union_find () =
  let uf = Dsd_util.Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Dsd_util.Union_find.count uf);
  Alcotest.(check bool) "union" true (Dsd_util.Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Dsd_util.Union_find.union uf 1 0);
  ignore (Dsd_util.Union_find.union uf 2 3);
  ignore (Dsd_util.Union_find.union uf 0 3);
  Alcotest.(check bool) "same" true (Dsd_util.Union_find.same uf 1 2);
  Alcotest.(check bool) "not same" false (Dsd_util.Union_find.same uf 1 4);
  Alcotest.(check int) "sets" 3 (Dsd_util.Union_find.count uf)

let test_vec_int () =
  let v = Dsd_util.Vec.Int.create () in
  for i = 0 to 99 do
    Dsd_util.Vec.Int.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dsd_util.Vec.Int.length v);
  Alcotest.(check int) "get" 49 (Dsd_util.Vec.Int.get v 7);
  Dsd_util.Vec.Int.set v 7 (-1);
  Alcotest.(check int) "set" (-1) (Dsd_util.Vec.Int.get v 7);
  Alcotest.(check int) "pop" 9801 (Dsd_util.Vec.Int.pop v);
  Alcotest.(check int) "fold" (Array.fold_left ( + ) 0 (Dsd_util.Vec.Int.to_array v))
    (Dsd_util.Vec.Int.fold ( + ) 0 v);
  Dsd_util.Vec.Int.clear v;
  Alcotest.(check int) "cleared" 0 (Dsd_util.Vec.Int.length v)

let test_stats () =
  Helpers.check_float "mean" 2.5 (Dsd_util.Stats.mean [| 1.; 2.; 3.; 4. |]);
  Helpers.check_float "median odd" 2. (Dsd_util.Stats.median [| 3.; 1.; 2. |]);
  Helpers.check_float "median even" 2.5 (Dsd_util.Stats.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.(check (list (pair int int))) "histogram"
    [ (1, 2); (2, 1) ]
    (Dsd_util.Stats.histogram [| 1; 2; 1 |]);
  let alpha = Dsd_util.Stats.power_law_alpha [| 1; 1; 1; 1 |] in
  Alcotest.(check bool) "alpha of constant-1 degrees is infinite" true
    (alpha = infinity)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng pair distinct" `Quick test_prng_pair_distinct;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng geometric" `Quick test_prng_geometric;
    Alcotest.test_case "bucket queue basic" `Quick test_bucket_queue_basic;
    Alcotest.test_case "bucket queue duplicate" `Quick test_bucket_queue_duplicate_add;
    Helpers.qtest "bucket queue vs model" QCheck.small_int bucket_queue_model_prop;
    Alcotest.test_case "lazy heap basic" `Quick test_lazy_heap_basic;
    Helpers.qtest "lazy heap vs model" QCheck.small_int lazy_heap_model_prop;
    Alcotest.test_case "binom small" `Quick test_binom_small;
    Alcotest.test_case "binom pascal" `Quick test_binom_pascal;
    Alcotest.test_case "binom saturates" `Quick test_binom_saturates;
    Alcotest.test_case "union find" `Quick test_union_find;
    Alcotest.test_case "vec int" `Quick test_vec_int;
    Alcotest.test_case "stats" `Quick test_stats;
  ]
