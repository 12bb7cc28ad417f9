(* Unit tests for the synthetic dataset generators and the stream
   generator. *)

module D = Mfsa_datasets.Datasets
module SG = Mfsa_datasets.Stream_gen
module RG = Mfsa_datasets.Rulegen
module P = Mfsa_frontend.Parser
module Prng = Mfsa_util.Prng
module Indel = Mfsa_paper.Indel

let check = Alcotest.check

(* --------------------------------------------------------- Rulegen *)

let test_escape_literal_roundtrip () =
  List.iter
    (fun s ->
      let pattern = RG.escape_literal s in
      match P.parse pattern with
      | Error e ->
          Alcotest.failf "escaped %S does not parse: %s" s (P.error_to_string e)
      | Ok rule ->
          let a = Mfsa_automata.Thompson.build rule in
          check Alcotest.bool
            (Printf.sprintf "%S accepted" s)
            true
            (Mfsa_automata.Simulate.accepts a s);
          check Alcotest.bool
            (Printf.sprintf "%S only" s)
            false
            (Mfsa_automata.Simulate.accepts a (s ^ "!")))
    [ "abc"; "a.b*c"; "(x|y)"; "[k]{2}"; "a\\b"; "tab\there"; "\x01\xfe"; "^start$" ]

let test_word_and_vocab () =
  let g = Prng.create 3 in
  let w = RG.word g ~alphabet:"xy" ~len:10 in
  check Alcotest.int "length" 10 (String.length w);
  String.iter (fun c -> check Alcotest.bool "alphabet" true (c = 'x' || c = 'y')) w;
  let v = RG.vocab g ~n:20 ~min_len:3 ~max_len:6 ~alphabet:"ab" in
  check Alcotest.int "count" 20 (Array.length v);
  Array.iter
    (fun w ->
      check Alcotest.bool "length range" true
        (String.length w >= 3 && String.length w <= 6))
    v

let test_mutate () =
  let g = Prng.create 4 in
  let s = "abcdefgh" in
  let m = RG.mutate g ~edits:2 s in
  check Alcotest.bool "within 2 indels" true (Indel.distance s m <= 2);
  check Alcotest.bool "never empty" true (String.length (RG.mutate g ~edits:10 "a") > 0)

(* -------------------------------------------------------- Datasets *)

let all = D.all ~scale:0.1 ()

let test_six_datasets () =
  check Alcotest.int "six datasets" 6 (List.length all);
  check Alcotest.(list string) "paper order"
    [ "BRO"; "DS9"; "PEN"; "PRO"; "RG1"; "TCP" ]
    (List.map (fun d -> d.D.abbr) all)

let test_all_rules_parse () =
  List.iter
    (fun d ->
      Array.iteri
        (fun i rule ->
          match P.parse rule with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "%s rule %d %S: %s" d.D.abbr i rule
                (P.error_to_string e))
        d.D.rules)
    all

let test_determinism () =
  let a = D.bro217 ~scale:0.1 () and b = D.bro217 ~scale:0.1 () in
  check Alcotest.(array string) "same rules" a.D.rules b.D.rules

let test_scaling () =
  let full = D.poweren () and tenth = D.poweren ~scale:0.1 () in
  check Alcotest.int "full size" 300 (Array.length full.D.rules);
  check Alcotest.int "scaled size" 30 (Array.length tenth.D.rules);
  check Alcotest.int "minimum two rules" 2
    (Array.length (D.poweren ~scale:0.0001 ()).D.rules)

let test_table1_shape () =
  (* The generators must land near Table I's per-dataset averages
     (generous ±40% envelope — shape, not absolute numbers). *)
  let targets =
    [ ("BRO", 13.19); ("DS9", 43.08); ("PEN", 15.75); ("PRO", 12.34);
      ("RG1", 43.18); ("TCP", 30.35) ]
  in
  List.iter
    (fun d ->
      let target = List.assoc d.D.abbr targets in
      let fsas =
        match Mfsa_core.Pipeline.build_fsas d.D.rules with
        | Ok f -> f
        | Error e -> Alcotest.failf "%s: %s" d.D.abbr (Mfsa_core.Pipeline.error_to_string e)
      in
      let avg =
        float_of_int
          (Array.fold_left (fun acc a -> acc + a.Mfsa_automata.Nfa.n_states) 0 fsas)
        /. float_of_int (Array.length fsas)
      in
      check Alcotest.bool
        (Printf.sprintf "%s avg states %.1f vs target %.1f" d.D.abbr avg target)
        true
        (avg > target *. 0.6 && avg < target *. 1.4))
    all

let test_similarity_regime () =
  (* Fig. 1: datasets show morphological similarity well above zero
     (paper average 0.34). *)
  List.iter
    (fun d ->
      let sim = Indel.average_pairwise_similarity ~sample:500 d.D.rules in
      check Alcotest.bool
        (Printf.sprintf "%s similarity %.2f in (0.1, 0.8)" d.D.abbr sim)
        true
        (sim > 0.1 && sim < 0.8))
    all

let test_find () =
  (match D.find ~scale:0.1 "bro" with
  | Some d -> check Alcotest.string "case-insensitive" "BRO" d.D.abbr
  | None -> Alcotest.fail "BRO not found");
  check Alcotest.bool "unknown" true (D.find "nope" = None)

(* ------------------------------------------------------ Stream_gen *)

let test_stream_size_and_determinism () =
  let d = D.bro217 ~scale:0.1 () in
  let s1 = SG.generate ~seed:5 ~size:4096 d.D.rules in
  let s2 = SG.generate ~seed:5 ~size:4096 d.D.rules in
  check Alcotest.int "exact size" 4096 (String.length s1);
  check Alcotest.bool "deterministic" true (String.equal s1 s2);
  let s3 = SG.generate ~seed:6 ~size:4096 d.D.rules in
  check Alcotest.bool "seed-sensitive" false (String.equal s1 s3)

let test_stream_contains_fragments () =
  let d = D.bro217 ~scale:0.1 () in
  let stream = SG.generate ~seed:1 ~density:0.2 ~size:65536 d.D.rules in
  let fragments = SG.literals_of_rules d.D.rules in
  check Alcotest.bool "has fragments to plant" true (Array.length fragments > 0);
  (* At least one long planted fragment must appear verbatim. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn > 0 && go 0
  in
  let planted =
    Array.exists (fun f -> String.length f >= 4 && contains stream f) fragments
  in
  check Alcotest.bool "some fragment planted" true planted

let test_stream_drives_matches () =
  (* Streams must actually produce matches when run through the
     engines — that is their purpose. *)
  let d = D.bro217 ~scale:0.1 () in
  let fsas = Result.get_ok (Mfsa_core.Pipeline.build_fsas d.D.rules) in
  let z = Mfsa_model.Merge.merge fsas in
  let eng = Mfsa_engine.Imfant.compile z in
  let stream = SG.generate ~seed:2 ~density:0.2 ~size:32768 d.D.rules in
  check Alcotest.bool "matches occur" true (Mfsa_engine.Imfant.count eng stream > 0)

let test_stream_no_literals () =
  let s = SG.generate ~size:100 [| "[xyz]+" |] in
  check Alcotest.int "pure payload still sized" 100 (String.length s)

let test_literals_of_rules () =
  let lits = SG.literals_of_rules [| "abc.*def"; "(not this"; "x" |] in
  (* Unparseable rules skipped; length-1 literals dropped. *)
  check Alcotest.(list string) "extracted" [ "abc"; "def" ]
    (List.sort String.compare (Array.to_list lits))

let () =
  Alcotest.run "datasets"
    [
      ( "rulegen",
        [
          Alcotest.test_case "escape_literal roundtrip" `Quick test_escape_literal_roundtrip;
          Alcotest.test_case "word and vocab" `Quick test_word_and_vocab;
          Alcotest.test_case "mutate" `Quick test_mutate;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "six datasets" `Quick test_six_datasets;
          Alcotest.test_case "all rules parse" `Quick test_all_rules_parse;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "Table I shape" `Quick test_table1_shape;
          Alcotest.test_case "Fig. 1 similarity regime" `Quick test_similarity_regime;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "stream",
        [
          Alcotest.test_case "size and determinism" `Quick test_stream_size_and_determinism;
          Alcotest.test_case "fragments planted" `Quick test_stream_contains_fragments;
          Alcotest.test_case "drives matches" `Quick test_stream_drives_matches;
          Alcotest.test_case "no literals" `Quick test_stream_no_literals;
          Alcotest.test_case "literals_of_rules" `Quick test_literals_of_rules;
        ] );
    ]
