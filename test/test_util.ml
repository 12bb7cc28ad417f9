(* Unit and property tests for the substrate: Prng, Bitset, Vec,
   Indel. *)

module Prng = Mfsa_util.Prng
module Bitset = Mfsa_util.Bitset
module Vec = Mfsa_util.Vec
module Indel = Mfsa_paper.Indel

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------ Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_prng_int_range () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    check Alcotest.bool "in range" true (v >= 0 && v < 10)
  done

let test_prng_int_in () =
  let g = Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Prng.int_in g 5 9 in
    check Alcotest.bool "in [5,9]" true (v >= 5 && v <= 9)
  done;
  check Alcotest.int "degenerate interval" 3 (Prng.int_in g 3 3)

let test_prng_int_rejects () =
  let g = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0));
  Alcotest.check_raises "reversed" (Invalid_argument "Prng.int_in: hi < lo")
    (fun () -> ignore (Prng.int_in g 4 3))

let test_prng_float () =
  let g = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    check Alcotest.bool "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_prng_uniformity () =
  (* Coarse chi-square-free check: each of 10 buckets gets 6-14% of
     10_000 draws. *)
  let g = Prng.create 123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly uniform" true (c > 600 && c < 1400))
    buckets

let test_prng_chance () =
  let g = Prng.create 5 in
  check Alcotest.bool "p=0 never" false (Prng.chance g 0.);
  check Alcotest.bool "p=1 always" true (Prng.chance g 1.);
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.chance g 0.25 then incr hits
  done;
  check Alcotest.bool "p=0.25 plausible" true (!hits > 2000 && !hits < 3000)

let test_prng_shuffle_permutes () =
  let g = Prng.create 11 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 20 Fun.id) sorted

let test_prng_choose () =
  let g = Prng.create 12 in
  for _ = 1 to 50 do
    check Alcotest.bool "member" true
      (List.mem (Prng.choose g [| 1; 2; 3 |]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose g ([||] : int array)))

let test_prng_split_independent () =
  let g = Prng.create 77 in
  let child = Prng.split g in
  let a = Prng.next_int64 child and b = Prng.next_int64 g in
  check Alcotest.bool "parent and child diverge" true (a <> b)

let test_prng_copy () =
  let g = Prng.create 13 in
  ignore (Prng.next_int64 g);
  let h = Prng.copy g in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 g)
    (Prng.next_int64 h)

(* ---------------------------------------------------------- Bitset *)

let test_bitset_basics () =
  let s = Bitset.create 100 in
  check Alcotest.bool "empty" true (Bitset.is_empty s);
  check Alcotest.int "capacity" 100 (Bitset.capacity s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  check Alcotest.bool "mem 0" true (Bitset.mem s 0);
  check Alcotest.bool "mem 63" true (Bitset.mem s 63);
  check Alcotest.bool "mem 99" true (Bitset.mem s 99);
  check Alcotest.bool "not mem 1" false (Bitset.mem s 1);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check Alcotest.bool "removed" false (Bitset.mem s 63);
  check Alcotest.(list int) "to_list sorted" [ 0; 99 ] (Bitset.to_list s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: index 10 out of range [0,10)") (fun () ->
      Bitset.add s 10);
  check Alcotest.bool "mem out of range is false" false (Bitset.mem s 42);
  check Alcotest.bool "mem negative is false" false (Bitset.mem s (-1))

let test_bitset_word_boundaries () =
  (* 62-bit limbs: exercise indices around multiples of 62. *)
  let s = Bitset.create 200 in
  List.iter (Bitset.add s) [ 61; 62; 63; 123; 124; 185; 186 ];
  List.iter
    (fun i -> check Alcotest.bool (string_of_int i) true (Bitset.mem s i))
    [ 61; 62; 63; 123; 124; 185; 186 ];
  check Alcotest.int "cardinal" 7 (Bitset.cardinal s);
  (* The word view the flat engine tables blit: element i is bit
     i mod 62 of word i / 62. *)
  check Alcotest.int "bits per word" 62 Bitset.bits_per_word;
  check
    Alcotest.(array int)
    "words"
    [| 1 lsl 61; 0b11 lor (1 lsl 61); 1 lor (1 lsl 61); 1 |]
    (Bitset.words s);
  check Alcotest.int "empty set has one word" 1
    (Array.length (Bitset.words (Bitset.create 0)))

(* The predicates and in-place operations run inside engine step
   loops, so they must not allocate: a closure capturing the operands
   costs minor words on every call. *)
let test_bitset_no_alloc () =
  let a = Bitset.of_list 300 [ 0; 61; 62; 150; 299 ] in
  let b = Bitset.of_list 300 [ 1; 62; 200 ] in
  let dst = Bitset.create 300 in
  let run () =
    for _ = 1 to 10_000 do
      ignore (Bitset.is_empty a);
      ignore (Bitset.union_into ~dst a);
      Bitset.inter_into ~dst b;
      ignore (Bitset.disjoint a b);
      ignore (Bitset.subset a b)
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  check Alcotest.int "minor words over 10k calls" 0 (int_of_float (w1 -. w0))

let test_bitset_set_ops () =
  let a = Bitset.of_list 50 [ 1; 2; 3; 10 ] in
  let b = Bitset.of_list 50 [ 3; 10; 20 ] in
  check Alcotest.(list int) "union" [ 1; 2; 3; 10; 20 ]
    (Bitset.to_list (Bitset.union a b));
  check Alcotest.(list int) "inter" [ 3; 10 ] (Bitset.to_list (Bitset.inter a b));
  check Alcotest.(list int) "diff" [ 1; 2 ] (Bitset.to_list (Bitset.diff a b));
  check Alcotest.bool "subset no" false (Bitset.subset a b);
  check Alcotest.bool "subset yes" true
    (Bitset.subset (Bitset.of_list 50 [ 1; 2 ]) a);
  check Alcotest.bool "disjoint no" false (Bitset.disjoint a b);
  check Alcotest.bool "disjoint yes" true
    (Bitset.disjoint a (Bitset.of_list 50 [ 30; 40 ]))

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 20 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset.union: capacity mismatch (10 vs 20)") (fun () ->
      ignore (Bitset.union a b))

let test_bitset_union_into () =
  let a = Bitset.of_list 30 [ 1; 5 ] in
  let b = Bitset.of_list 30 [ 5; 9 ] in
  check Alcotest.bool "changed" true (Bitset.union_into ~dst:a b);
  check Alcotest.(list int) "merged" [ 1; 5; 9 ] (Bitset.to_list a);
  check Alcotest.bool "idempotent" false (Bitset.union_into ~dst:a b)

let test_bitset_inter_into () =
  let a = Bitset.of_list 30 [ 1; 5; 9 ] in
  Bitset.inter_into ~dst:a (Bitset.of_list 30 [ 5; 9; 11 ]);
  check Alcotest.(list int) "intersected" [ 5; 9 ] (Bitset.to_list a)

let test_bitset_clear_fill () =
  let s = Bitset.of_list 70 [ 0; 69 ] in
  Bitset.clear s;
  check Alcotest.bool "cleared" true (Bitset.is_empty s);
  Bitset.fill s;
  check Alcotest.int "filled" 70 (Bitset.cardinal s);
  check Alcotest.bool "fill stays in range" true (Bitset.mem s 69)

let test_bitset_choose () =
  check Alcotest.(option int) "empty" None (Bitset.choose (Bitset.create 5));
  check Alcotest.(option int) "smallest" (Some 2)
    (Bitset.choose (Bitset.of_list 9 [ 7; 2; 5 ]))

let test_bitset_equal_compare () =
  let a = Bitset.of_list 40 [ 1; 2 ] and b = Bitset.of_list 40 [ 1; 2 ] in
  check Alcotest.bool "equal" true (Bitset.equal a b);
  check Alcotest.int "compare eq" 0 (Bitset.compare a b);
  Bitset.add b 3;
  check Alcotest.bool "not equal" false (Bitset.equal a b);
  check Alcotest.bool "ordered" true (Bitset.compare a b <> 0)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  check Alcotest.bool "original untouched" false (Bitset.mem a 2)

let test_bitset_pp () =
  check Alcotest.string "pp" "{1,4,7}"
    (Format.asprintf "%a" Bitset.pp (Bitset.of_list 10 [ 7; 1; 4 ]));
  check Alcotest.string "pp empty" "{}"
    (Format.asprintf "%a" Bitset.pp (Bitset.create 10))

let prop_bitset_union_commutes =
  QCheck2.Test.make ~name:"bitset: union commutes, inter distributes"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 30) (int_range 0 99))
        (list_size (int_range 0 30) (int_range 0 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      Bitset.equal (Bitset.union a b) (Bitset.union b a)
      && Bitset.equal (Bitset.inter a b) (Bitset.inter b a)
      && Bitset.equal
           (Bitset.diff a b)
           (Bitset.inter a (Bitset.diff (Bitset.of_list 100 (List.init 100 Fun.id)) b)))

let prop_bitset_list_roundtrip =
  QCheck2.Test.make ~name:"bitset: of_list/to_list roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 63))
    (fun xs ->
      let sorted = List.sort_uniq Int.compare xs in
      Bitset.to_list (Bitset.of_list 64 xs) = sorted)

(* ------------------------------------------------------------- Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  check Alcotest.bool "fresh empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 198 (Vec.get v 99);
  Vec.set v 5 1000;
  check Alcotest.int "set/get" 1000 (Vec.get v 5)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 2 out of range [0,2)")
    (fun () -> ignore (Vec.get v 2));
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index -1 out of range [0,2)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check Alcotest.(option int) "last" (Some 3) (Vec.last v);
  check Alcotest.(option int) "pop" (Some 3) (Vec.pop v);
  check Alcotest.int "shrunk" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  check Alcotest.(option int) "pop empty" None (Vec.pop v);
  check Alcotest.(option int) "last empty" None (Vec.last v)

let test_vec_conversions () =
  let v = Vec.of_array [| 5; 6; 7 |] in
  check Alcotest.(list int) "to_list" [ 5; 6; 7 ] (Vec.to_list v);
  check Alcotest.(array int) "to_array" [| 5; 6; 7 |] (Vec.to_array v);
  let w = Vec.map (fun x -> x * 10) v in
  check Alcotest.(list int) "map" [ 50; 60; 70 ] (Vec.to_list w)

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check Alcotest.int "iteri count" 4 (List.length !acc);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  check Alcotest.(option int) "find" (Some 2) (Vec.find_opt (fun x -> x mod 2 = 0) v);
  check Alcotest.(option int) "find_index" (Some 1)
    (Vec.find_index (fun x -> x mod 2 = 0) v)

let test_vec_append_copy_clear () =
  let a = Vec.of_list [ 1; 2 ] and b = Vec.of_list [ 3 ] in
  Vec.append a b;
  check Alcotest.(list int) "append" [ 1; 2; 3 ] (Vec.to_list a);
  let c = Vec.copy a in
  Vec.clear a;
  check Alcotest.int "cleared" 0 (Vec.length a);
  check Alcotest.(list int) "copy unaffected" [ 1; 2; 3 ] (Vec.to_list c)

let test_vec_sort () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Vec.sort Int.compare v;
  check Alcotest.(list int) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let test_vec_make () =
  let v = Vec.make 5 'x' in
  check Alcotest.int "length" 5 (Vec.length v);
  check Alcotest.char "filled" 'x' (Vec.get v 4);
  Vec.push v 'y';
  check Alcotest.char "push after make" 'y' (Vec.get v 5)

let prop_vec_list_roundtrip =
  QCheck2.Test.make ~name:"vec: of_list/to_list roundtrip" ~count:200
    QCheck2.Gen.(list small_int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

(* ----------------------------------------------------------- Indel *)

let test_indel_paper_example () =
  (* §I: lewenstein vs levenshtein, distance 3 over 21, sim 0.8571. *)
  check Alcotest.int "distance" 3 (Indel.distance "lewenstein" "levenshtein");
  let sim = Indel.similarity "lewenstein" "levenshtein" in
  check Alcotest.bool "similarity ~0.857" true (abs_float (sim -. 0.8571) < 0.001)

let test_indel_identical () =
  check Alcotest.int "distance 0" 0 (Indel.distance "abc" "abc");
  check (Alcotest.float 1e-9) "sim 1" 1. (Indel.similarity "abc" "abc")

let test_indel_disjoint () =
  check Alcotest.int "distance = sum of lengths" 7 (Indel.distance "aaa" "bbbb");
  check (Alcotest.float 1e-9) "sim 0" 0. (Indel.similarity "aaa" "bbbb")

let test_indel_empty () =
  check Alcotest.int "vs empty" 3 (Indel.distance "" "abc");
  check (Alcotest.float 1e-9) "both empty sim" 1. (Indel.similarity "" "");
  check (Alcotest.float 1e-9) "both empty normalized" 0. (Indel.normalized "" "")

let test_indel_lcs () =
  check Alcotest.int "lcs" 3 (Indel.lcs "abcde" "ace");
  check Alcotest.int "lcs none" 0 (Indel.lcs "abc" "xyz");
  check Alcotest.int "lcs full" 4 (Indel.lcs "abcd" "abcd")

let test_indel_average () =
  check (Alcotest.float 1e-9) "fewer than two" 0.
    (Indel.average_pairwise_similarity [| "a" |]);
  let v = Indel.average_pairwise_similarity [| "abc"; "abc"; "xyz" |] in
  (* pairs: (abc,abc)=1, (abc,xyz)=0, (abc,xyz)=0 → 1/3 *)
  check Alcotest.bool "exact average" true (abs_float (v -. (1. /. 3.)) < 1e-9)

let test_indel_sampled_average () =
  let strings = Array.init 50 (fun i -> String.make (1 + (i mod 5)) 'a') in
  let full = Indel.average_pairwise_similarity strings in
  let sampled = Indel.average_pairwise_similarity ~sample:400 strings in
  check Alcotest.bool "sampled close to full" true (abs_float (full -. sampled) < 0.1)

let prop_indel_metric_laws =
  QCheck2.Test.make ~name:"indel: symmetry, identity, triangle" ~count:200
    QCheck2.Gen.(
      triple (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 12))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 12))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 12)))
    (fun (a, b, c) ->
      Indel.distance a b = Indel.distance b a
      && Indel.distance a a = 0
      && Indel.distance a c <= Indel.distance a b + Indel.distance b c)

let prop_indel_bounds =
  QCheck2.Test.make ~name:"indel: similarity in [0,1]" ~count:200
    QCheck2.Gen.(
      pair (string_size ~gen:printable (int_range 0 20))
        (string_size ~gen:printable (int_range 0 20)))
    (fun (a, b) ->
      let s = Indel.similarity a b in
      s >= 0. && s <= 1.)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "rejects bad bounds" `Quick test_prng_int_rejects;
          Alcotest.test_case "float range" `Quick test_prng_float;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "chance" `Quick test_prng_chance;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "predicates allocate nothing" `Quick
            test_bitset_no_alloc;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "union_into" `Quick test_bitset_union_into;
          Alcotest.test_case "inter_into" `Quick test_bitset_inter_into;
          Alcotest.test_case "clear and fill" `Quick test_bitset_clear_fill;
          Alcotest.test_case "choose" `Quick test_bitset_choose;
          Alcotest.test_case "equal and compare" `Quick test_bitset_equal_compare;
          Alcotest.test_case "copy independence" `Quick test_bitset_copy_independent;
          Alcotest.test_case "pp" `Quick test_bitset_pp;
          qtest prop_bitset_union_commutes;
          qtest prop_bitset_list_roundtrip;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push and get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop and last" `Quick test_vec_pop_last;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
          Alcotest.test_case "iter and fold" `Quick test_vec_iter_fold;
          Alcotest.test_case "append, copy, clear" `Quick test_vec_append_copy_clear;
          Alcotest.test_case "sort" `Quick test_vec_sort;
          Alcotest.test_case "make" `Quick test_vec_make;
          qtest prop_vec_list_roundtrip;
        ] );
      ( "indel",
        [
          Alcotest.test_case "paper example" `Quick test_indel_paper_example;
          Alcotest.test_case "identical" `Quick test_indel_identical;
          Alcotest.test_case "disjoint" `Quick test_indel_disjoint;
          Alcotest.test_case "empty strings" `Quick test_indel_empty;
          Alcotest.test_case "lcs" `Quick test_indel_lcs;
          Alcotest.test_case "pairwise average" `Quick test_indel_average;
          Alcotest.test_case "sampled average" `Quick test_indel_sampled_average;
          qtest prop_indel_metric_laws;
          qtest prop_indel_bounds;
        ] );
    ]
