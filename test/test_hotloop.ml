(* Hot-loop tests: byte-class compression and iMFAnt's literal
   prefilter. Every engine, batch and streaming, must report exactly
   the matches of the activation oracle ({!Mfsa_model.Activation}),
   which uses neither. *)

module P = Mfsa_frontend.Parser
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Hy = Mfsa_engine.Hybrid
module Prefilter = Mfsa_engine.Prefilter
module Registry = Mfsa_engine.Registry
module Engine_sig = Mfsa_engine.Engine_sig
module Gen = QCheck2.Gen

let check = Alcotest.check

let fsa_of_rule rule =
  let module A = Mfsa_automata in
  A.Multiplicity.fuse
    (A.Epsilon.remove
       (A.Thompson.build
          (A.Simplify.char_classes_rule (A.Loops.expand_rule rule))))

let fsa_of src = fsa_of_rule (P.parse_exn src)

let mfsa_of srcs = Merge.merge (Array.of_list (List.map fsa_of srcs))

let event =
  Alcotest.testable
    (fun fmt e ->
      Format.fprintf fmt "{fsa=%d; end_pos=%d}" e.Engine_sig.fsa
        e.Engine_sig.end_pos)
    ( = )

(* Canonical event order for cross-engine comparison: engines agree
   on the event *set* but not on intra-position tie order (iMFAnt
   reports ties in transition-traversal order). *)
let sort_ev =
  List.sort (fun a b ->
      if a.Engine_sig.end_pos <> b.Engine_sig.end_pos then
        compare a.Engine_sig.end_pos b.Engine_sig.end_pos
      else compare a.Engine_sig.fsa b.Engine_sig.fsa)

(* The oracle's events, already in (end, fsa) order. *)
let oracle z input =
  List.map
    (fun (fsa, end_pos) -> { Engine_sig.fsa; end_pos })
    (Mfsa_model.Activation.run z input)

(* ------------------------------------------------- Byte classes *)

(* Rules "ab" and "a[0-9]": the distinct byte behaviours are 'a',
   'b', the digits, and everything else. Ids are assigned in byte
   order, so the never-mentioned bytes (starting at byte 0) get class
   0, digits class 1, 'a' class 2, 'b' class 3. *)
let test_class_of_byte_pinned () =
  let z = mfsa_of [ "ab"; "a[0-9]" ] in
  let cls = Mfsa.classes z in
  check Alcotest.int "class count" 4 cls.Mfsa.n_classes;
  let id c = Char.code (Bytes.get cls.Mfsa.class_of_byte (Char.code c)) in
  check Alcotest.int "other bytes" 0 (id '\000');
  check Alcotest.int "other bytes (x)" 0 (id 'x');
  check Alcotest.int "digit 0" 1 (id '0');
  check Alcotest.int "digit 9" 1 (id '9');
  check Alcotest.int "a" 2 (id 'a');
  check Alcotest.int "b" 3 (id 'b');
  (* The memo returns the same value and the engine inherits it. *)
  check Alcotest.int "memoised" 4 (Mfsa.classes z).Mfsa.n_classes;
  check Alcotest.int "engine class count" 4 (Im.n_classes (Im.compile z))

(* ------------------------------------------------- Prefix sets *)

let prefix_set src = Prefilter.prefix_set (P.parse_exn src).Mfsa_frontend.Ast.ast

let test_prefix_sets () =
  let sl = Alcotest.(option (list string)) in
  check sl "literal" (Some [ "abc" ]) (prefix_set "abc");
  check sl "leading star" None (prefix_set "a*bc");
  check sl "alternation" (Some [ "abx"; "cdx" ]) (prefix_set "(ab|cd)x");
  check sl "plus keeps prefix" (Some [ "hel" ]) (prefix_set "hel+o");
  check sl "1-byte prefix unusable" None (prefix_set "a(b|c*)");
  check sl "class expands" (Some [ "0a"; "1a" ]) (prefix_set "[01]a");
  check sl "nullable" None (prefix_set "(ab)?")

let test_prefilter_analyze () =
  (* Every rule carries a usable literal — the filter builds. *)
  let z = mfsa_of [ "hello"; "worl+d" ] in
  (match Prefilter.analyze z with
  | None -> Alcotest.fail "expected a prefilter"
  | Some p ->
      check Alcotest.(list int) "candidates"
        [ 2; 13 ]
        (Array.to_list (Prefilter.candidates p "xyhelloxxxxxxworld")));
  (* One rule without a mandatory literal disables the filter. *)
  check Alcotest.bool "no filter" true
    (Prefilter.analyze (mfsa_of [ "hello"; "a*b" ]) = None);
  (* Start-anchored rules need no literal: they run from position 0
     regardless, so they do not block the filter. *)
  check Alcotest.bool "anchored rule no veto" true
    (Prefilter.analyze (mfsa_of [ "hello"; "^a*b" ]) <> None)

(* ---------------------------------------------- Engines = oracle *)

let engines_equal ?(msg = "") z input =
  let base = oracle z input in
  List.iter
    (fun name ->
      let opt = sort_ev (Engine_sig.run (Registry.compile_automaton_exn name z) input) in
      check (Alcotest.list event)
        (Printf.sprintf "%s = oracle %s" name msg)
        base opt)
    (Registry.names ())

let test_known_divergence_candidates () =
  (* Hand-picked shapes that stress each optimisation's edge cases:
     odd input lengths, literals at position 0 and at
     the very end (prefilter boundaries), anchors, and overlapping
     literal owners. *)
  List.iter
    (fun (rules, inputs) ->
      let z = mfsa_of rules in
      List.iter (fun i -> engines_equal ~msg:(String.concat "," rules) z i) inputs)
    [
      ( [ "hello"; "help" ],
        [ "hellohelp"; "xhello"; "hellx"; "hel"; ""; "h"; "xxhelloxxhelpx" ] );
      ([ "ab"; "a[0-9]" ], [ "ab"; "a5"; "a"; "ba9ab"; "zzzzz" ]);
      ([ "^ab"; "cd$" ], [ "abcd"; "cdab"; "ab"; "cd"; "abxcd" ]);
      ([ "ab+c"; "abd" ], [ "abbbc"; "abdabc"; "abcabd" ]);
      ([ "aa" ], [ "aaaa"; "aaa" ]);
    ]

let prop_engines_equal_oracle =
  QCheck2.Test.make ~count:120
    ~name:"every engine = activation oracle"
    ~print:Gen_re.print_ruleset_input
    (Gen.pair (Gen_re.ruleset ()) Gen_re.input)
    (fun (rules, input) ->
      let z = Merge.merge (Array.of_list (List.map fsa_of_rule rules)) in
      let base = oracle z input in
      List.for_all
        (fun name ->
          let opt =
            sort_ev (Engine_sig.run (Registry.compile_automaton_exn name z) input)
          in
          if base = opt then true
          else
            QCheck2.Test.fail_reportf "%s diverges on %S: %d vs %d events" name
              input (List.length base) (List.length opt))
        (Registry.names ()))

(* Wide-alphabet rules: large class counts and binary bytes through
   the partition map. *)
let prop_wide_alphabet =
  QCheck2.Test.make ~count:60 ~name:"wide alphabet: imfant/hybrid = oracle"
    ~print:Gen_re.print_ruleset_input
    (Gen.pair
       (Gen.list_size (Gen.int_range 2 4) Gen_re.wide_rule)
       Gen_re.wide_input)
    (fun (rules, input) ->
      let z = Merge.merge (Array.of_list (List.map fsa_of_rule rules)) in
      let base = oracle z input in
      sort_ev (Im.run (Im.compile z) input) = base
      && sort_ev (Hy.run (Hy.compile z) input) = base)

(* ------------------------------------------------------ Streaming *)

(* NB: explicit sequencing — OCaml does not define operand order for
   [@], so chaining feeds with it would run them backwards. *)
let chunked_feed session_feed chunks =
  List.fold_left (fun acc c -> acc @ session_feed c) [] chunks

let split_at input cuts =
  let len = String.length input in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let rec go start = function
    | [] -> if start >= len then [] else [ String.sub input start (len - start) ]
    | c :: rest ->
        if c <= start then go start rest
        else String.sub input start (c - start) :: go c rest
  in
  go 0 cuts

let prop_sessions_chunked =
  QCheck2.Test.make ~count:120
    ~name:"imfant/hybrid sessions: any chunking = oracle"
    ~print:(fun ((rules, input), cuts) ->
      Printf.sprintf "%s cuts=[%s]"
        (Gen_re.print_ruleset_input (rules, input))
        (String.concat ";" (List.map string_of_int cuts)))
    (Gen.pair
       (Gen.pair (Gen_re.ruleset ()) Gen_re.input)
       (Gen.list_size (Gen.int_range 0 4) (Gen.int_bound 40)))
    (fun ((rules, input), cuts) ->
      let z = Merge.merge (Array.of_list (List.map fsa_of_rule rules)) in
      let chunks = split_at input cuts in
      let batch = oracle z input in
      let im = Im.compile z in
      let s = Im.session im in
      let fed_im = chunked_feed (Im.feed s) chunks in
      let got_im = sort_ev (fed_im @ Im.finish s) in
      let hy = Hy.compile z in
      let sh = Hy.session hy in
      let fed_hy = chunked_feed (Hy.feed sh) chunks in
      let got_hy = sort_ev (fed_hy @ Hy.finish sh) in
      if got_im <> batch then
        QCheck2.Test.fail_reportf "imfant session diverges (%d vs %d events)"
          (List.length got_im) (List.length batch)
      else if got_hy <> batch then
        QCheck2.Test.fail_reportf "hybrid session diverges (%d vs %d events)"
          (List.length got_hy) (List.length batch)
      else true)

(* A literal split across the chunk boundary, on a ruleset where
   iMFAnt's prefilter engages: the match must survive the cut. *)
let test_session_straddles_literal () =
  let z = mfsa_of [ "hello" ] in
  let hy = Hy.compile z in
  check Alcotest.bool "prefilter is on" true (Im.prefilter (Hy.imfant hy) <> None);
  List.iter
    (fun (c1, c2) ->
      let s = Hy.session hy in
      let e1 = Hy.feed s c1 in
      let e2 = Hy.feed s c2 in
      let got = e1 @ e2 @ Hy.finish s in
      check (Alcotest.list event)
        (Printf.sprintf "%S + %S" c1 c2)
        [ { Engine_sig.fsa = 0; end_pos = 7 } ]
        got)
    [
      ("xxhel", "loxx");
      ("xxh", "elloxx");
      ("xxhell", "oxx");
      ("x", "xhello");
    ]

(* Only iMFAnt's batch passes skip: the cached hybrid steps every
   byte through its memo, and a demoted hybrid's batch run is
   iMFAnt's pass and reports its skips. *)
let test_skip_counter_moves () =
  let z = mfsa_of [ "needle" ] in
  let im = Im.compile z in
  let input = String.make 4096 'x' ^ "needle" in
  ignore (Im.run im input);
  let im_skipped = Im.skipped_bytes im in
  check Alcotest.bool "imfant skipped bytes" true (im_skipped > 0);
  Im.reset_skipped im;
  check Alcotest.int "reset" 0 (Im.skipped_bytes im);
  let hy = Hy.compile z in
  ignore (Hy.run hy input);
  let st = Hy.stats hy in
  check Alcotest.int "cached hybrid skips nothing" 0 st.Hy.skipped_bytes;
  check Alcotest.int "cached hybrid steps every byte" (String.length input)
    st.Hy.steps;
  Hy.demote hy;
  Hy.reset_stats hy;
  ignore (Hy.run hy input);
  check Alcotest.int "demoted hybrid = imfant skips" im_skipped
    (Hy.stats hy).Hy.skipped_bytes

(* ------------------------------------------------- Kernel edges *)

let ev fsa end_pos = { Engine_sig.fsa; end_pos }

(* "abc" and "bc" merge so that on the 'b' of "abc" one destination
   is reached both by "bc"'s injected thread and by "abc"'s carried
   one. The kernel copies injection into the next vector before the
   live states OR into it; the other order would overwrite "abc"'s
   thread and lose its match. *)
let test_injection_meets_carried () =
  let z = mfsa_of [ "abc"; "bc" ] in
  let want = [ ev 0 3; ev 1 3 ] in
  check (Alcotest.list event) "oracle" want (oracle z "abc");
  let im = Im.compile z in
  check (Alcotest.list event) "imfant run" want (sort_ev (Im.run im "abc"));
  let s = Im.session im in
  let fed = chunked_feed (Im.feed s) [ "a"; "bc" ] in
  check (Alcotest.list event) "imfant session" want (sort_ev (fed @ Im.finish s));
  check (Alcotest.list event) "hybrid run" want (sort_ev (Hy.run (Hy.compile z) "abc"))

(* A start-anchored rule beside a literal-covered one: where position
   0 is not a literal candidate the batch pass injects only the
   anchored initial sets there, and nothing at later non-candidates. *)
let test_anchored_at_non_candidate () =
  let z = mfsa_of [ "^ab"; "hello" ] in
  let im = Im.compile z in
  let p = Option.get (Im.prefilter im) in
  List.iter
    (fun (input, want) ->
      check Alcotest.bool
        (Printf.sprintf "%S: position 0 is no candidate" input)
        false
        (Array.mem 0 (Prefilter.candidates p input));
      check (Alcotest.list event) (input ^ " oracle") want (oracle z input);
      check (Alcotest.list event) (input ^ " imfant") want (sort_ev (Im.run im input)))
    [
      ("abhello", [ ev 0 2; ev 1 7 ]);
      ("xabhello", [ ev 1 8 ]);
      ("xxab", []);
      ("ababab", [ ev 0 2 ]);
    ]

(* The SFA join: threads injected before a chunk boundary are finished
   by [carry_step] with injection off. Its matches are real ones, and
   with the two chunk passes they make up the oracle's (a match that
   both a carried and an injected thread complete is reported by
   both, so the union is deduplicated as {!Sfa} does). *)
let test_carry_step_across_boundary () =
  let z = mfsa_of [ "abcd"; "bc"; "c+d" ] in
  let im = Im.compile z in
  let input = "xxabcdxxbccd" in
  let len = String.length input and want = oracle z input in
  List.iter
    (fun cut ->
      let evs = ref [] in
      let on_match fsa end_pos = evs := ev fsa end_pos :: !evs in
      let carry, _ = Im.run_chunk im input ~start:0 ~stop:cut ~on_match in
      let carried = ref [] in
      ignore
        (Im.carry_step im carry input ~start:cut ~stop:len ~on_match:(fun f e ->
             carried := ev f e :: !carried;
             on_match f e));
      ignore (Im.run_chunk im input ~start:cut ~stop:len ~on_match);
      if cut = 4 || cut = 10 then
        check Alcotest.bool (Printf.sprintf "cut %d completes carried threads" cut)
          true (!carried <> []);
      check Alcotest.bool (Printf.sprintf "cut %d: carried matches are real" cut)
        true (List.for_all (fun e -> List.mem e want) !carried);
      check (Alcotest.list event)
        (Printf.sprintf "cut %d = oracle" cut)
        want (sort_ev (List.sort_uniq compare !evs)))
    [ 1; 3; 4; 5; 9; 10; 11 ]

(* A flat configuration's states are ascending whatever order the
   kernel reached them in ("ddab" and "aab" reach one configuration of
   this ruleset with its states found in different orders). So the two
   inputs give equal flat forms, and the hybrid interns the
   configuration once: it holds exactly the distinct configurations of
   both inputs' prefixes, compared with their states sorted here, plus
   its two built-ins (start and dead). *)
let test_configs_canonical () =
  let z = mfsa_of [ "a[a-d]*b"; "ab"; "cb" ] in
  let im = Im.compile z in
  let nw = (z.Mfsa.n_fsas + Mfsa_util.Bitset.bits_per_word - 1) / Mfsa_util.Bitset.bits_per_word in
  let sorted cfg =
    let n = Array.length cfg / (1 + nw) in
    Array.concat
      (List.sort compare (List.init n (fun i -> Array.sub cfg (i * (1 + nw)) (1 + nw))))
  in
  let configs input =
    let s = Im.session im in
    List.init (String.length input) (fun i ->
        ignore (Im.feed s (String.make 1 input.[i]));
        Im.config_of_session s)
  in
  let u = "ddab" and v = "aab" in
  let cu = configs u and cv = configs v in
  let last l = List.nth l (List.length l - 1) in
  check Alcotest.bool "a live configuration" true (Array.length (last cu) > 1 + nw);
  check (Alcotest.array Alcotest.int) "one flat form" (last cu) (last cv);
  let distinct =
    List.sort_uniq compare (List.filter_map (fun c -> if c = [||] then None else Some (sorted c)) (cu @ cv))
  in
  let hy = Hy.compile z in
  List.iter (fun input -> ignore (Hy.feed (Hy.session hy) input)) [ u; v ];
  check Alcotest.int "interned once" (List.length distinct + 2)
    (Hy.stats hy).Hy.resident_configs

let () =
  Alcotest.run "hotloop"
    [
      ( "classes",
        [
          Alcotest.test_case "pinned class map" `Quick test_class_of_byte_pinned;
        ] );
      ( "prefilter",
        [
          Alcotest.test_case "prefix sets" `Quick test_prefix_sets;
          Alcotest.test_case "analyze" `Quick test_prefilter_analyze;
          Alcotest.test_case "skip counters" `Quick test_skip_counter_moves;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "known edge shapes" `Quick
            test_known_divergence_candidates;
          QCheck_alcotest.to_alcotest prop_engines_equal_oracle;
          QCheck_alcotest.to_alcotest prop_wide_alphabet;
        ] );
      ( "streaming",
        [
          QCheck_alcotest.to_alcotest prop_sessions_chunked;
          Alcotest.test_case "straddling literal" `Quick
            test_session_straddles_literal;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "injection meets a carried thread" `Quick
            test_injection_meets_carried;
          Alcotest.test_case "anchored rule at a non-candidate" `Quick
            test_anchored_at_non_candidate;
          Alcotest.test_case "carry_step across a boundary" `Quick
            test_carry_step_across_boundary;
          Alcotest.test_case "flat configurations are canonical" `Quick
            test_configs_canonical;
        ] );
    ]
