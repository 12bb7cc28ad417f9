(* The SFA intra-input parallel wrapper: chunk/join equivalence with
   the sequential engines (fixed rulesets, boundary-straddling
   literals, anchors, degenerate inputs), the registry spec grammar,
   the table round trip, streaming sessions through the wrapper, and
   qcheck properties over random rulesets and chunk counts. *)

module P = Mfsa_frontend.Parser
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Hy = Mfsa_engine.Hybrid
module Sfa = Mfsa_engine.Sfa
module Registry = Mfsa_engine.Registry
module Engine_sig = Mfsa_engine.Engine_sig

let check = Alcotest.check

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

let merge_rules rules = Merge.merge (Array.of_list (List.map fsa_of rules))

let im_events l = List.map (fun e -> (e.Im.fsa, e.Im.end_pos)) l

let sfa_events l = List.map (fun e -> (e.Sfa.fsa, e.Sfa.end_pos)) l

let sort = List.sort compare

let contains haystack needle =
  let len = String.length needle in
  let rec scan i =
    i + len <= String.length haystack
    && (String.sub haystack i len = needle || scan (i + 1))
  in
  scan 0

let spec ?(domains = 2) ?(threshold = 1) () = { Sfa.domains; threshold }

(* Reference events are iMFAnt's; both engines order events by
   (end, fsa), so the lists must be equal as returned. *)
let check_equiv ?domains msg z inputs =
  let im = Im.compile z in
  List.iter
    (fun inner ->
      List.iter
        (fun d ->
          let sf = Sfa.compile (spec ~domains:d ()) ~inner z in
          List.iter
            (fun input ->
              check
                Alcotest.(list (pair int int))
                (Printf.sprintf "%s %s d=%d on %S" msg inner d input)
                (im_events (Im.run im input))
                (sfa_events (Sfa.run sf input)))
            inputs)
        (match domains with Some d -> [ d ] | None -> [ 1; 2; 3; 4 ]))
    [ "imfant"; "hybrid" ]

(* ----------------------------------------------------- Equivalence *)

let test_equals_sequential () =
  check_equiv "plain"
    (merge_rules [ "ab"; "a(b|c)*d"; "[0-9]{2}"; "b" ])
    [ "abcbcd12ab"; ""; "ab"; "999"; "abababab"; "xyzxyzxyzxyz" ]

let test_anchors () =
  check_equiv "anchors"
    (merge_rules [ "^ab"; "ab"; "ab$"; "^ab$"; "^a+b$" ])
    [ "abab"; "ab"; "xab"; "abx"; ""; "aaaaab"; "abxxab" ]

(* A mid-input occurrence of an end-anchored literal must not leak out
   of the chunk whose local end it touches: $ is a property of the
   stream, not the chunk. *)
let test_end_anchor_not_chunk_local () =
  let z = merge_rules [ "abc$" ] in
  let sf = Sfa.compile (spec ~domains:2 ()) ~inner:"imfant" z in
  (* 6 bytes, boundary at 3: "abc" ends exactly at the first chunk's
     local end, then again at the stream end. *)
  check
    Alcotest.(list (pair int int))
    "only the global end reports" [ (0, 6) ]
    (sfa_events (Sfa.run sf "abcabc"));
  check Alcotest.(list (pair int int)) "no match elsewhere" []
    (sfa_events (Sfa.run sf "abcxyz"))

(* The regression at the heart of satellite 2: a literal straddling
   every split point. Slide the literal across every offset of the
   input so that, for every domain count, some placement crosses each
   chunk boundary (and the boundary region is also exercised by ^/$
   variants). *)
let test_literal_straddles_every_boundary () =
  let lit = "abcdef" in
  let z = merge_rules [ lit; "^abc"; "def$" ] in
  let im = Im.compile z in
  let len = 24 in
  List.iter
    (fun inner ->
      List.iter
        (fun d ->
          let sf = Sfa.compile (spec ~domains:d ()) ~inner z in
          for p = 0 to len - String.length lit do
            let input = Bytes.make len 'x' in
            Bytes.blit_string lit 0 input p (String.length lit);
            let input = Bytes.to_string input in
            check
              Alcotest.(list (pair int int))
              (Printf.sprintf "%s d=%d literal at %d" inner d p)
              (sort (im_events (Im.run im input)))
              (sort (sfa_events (Sfa.run sf input)))
          done)
        [ 2; 3; 4 ])
    [ "imfant"; "hybrid" ]

(* More chunks than bytes: trailing chunks are empty windows and the
   carry must still thread through them. *)
let test_input_shorter_than_domains () =
  check_equiv ~domains:8 "short input" (merge_rules [ "ab"; "a$"; "^b" ])
    [ ""; "a"; "ab"; "ba"; "aba" ]

let test_threshold_gates_chunking () =
  let z = merge_rules [ "ab" ] in
  let sf = Sfa.compile (spec ~threshold:4 ()) ~inner:"imfant" z in
  check Alcotest.bool "below threshold" false (Sfa.chunked sf "abc");
  check Alcotest.bool "at threshold" true (Sfa.chunked sf "abab");
  let one = Sfa.compile (spec ~domains:1 ()) ~inner:"imfant" z in
  check Alcotest.bool "1 domain never chunks" false (Sfa.chunked one "abab");
  (* Both paths agree either way. *)
  check
    Alcotest.(list (pair int int))
    "seq path matches" [ (0, 2) ]
    (sfa_events (Sfa.run sf "abc"))

let test_count_and_per_fsa () =
  let z = merge_rules [ "a"; "aa" ] in
  let im = Im.compile z in
  let sf = Sfa.compile (spec ~domains:3 ()) ~inner:"hybrid" z in
  let input = "aaaaaa" in
  check Alcotest.int "count" (Im.count im input) (Sfa.count sf input);
  check
    Alcotest.(array int)
    "per fsa" (Im.count_per_fsa im input)
    (Sfa.count_per_fsa sf input)

let test_run_is_ordered () =
  let sf =
    Sfa.compile (spec ~domains:2 ()) ~inner:"imfant"
      (merge_rules [ "ab"; "b"; "a" ])
  in
  let events = sfa_events (Sfa.run sf "abab") in
  let by_pos =
    List.sort
      (fun (f1, e1) (f2, e2) ->
        if e1 <> e2 then Int.compare e1 e2 else Int.compare f1 f2)
      events
  in
  check Alcotest.(list (pair int int)) "sorted by (end, fsa)" by_pos events

let test_run_span_agrees () =
  let z = merge_rules [ "ab"; "a(b|c)*d" ] in
  let im = Im.compile z in
  let sf = Sfa.compile (spec ~domains:3 ()) ~inner:"imfant" z in
  let input = "abcbcdababacdxxabd" in
  let events, t = Sfa.run_span sf input in
  check
    Alcotest.(list (pair int int))
    "span path equals imfant"
    (sort (im_events (Im.run im input)))
    (sort (sfa_events events));
  check Alcotest.int "one timing per chunk" 3 (Array.length t.Sfa.chunk_s)

let test_rejects_bad_specs () =
  let z = merge_rules [ "a" ] in
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Sfa: domains must be in [1,64], got 0") (fun () ->
      ignore (Sfa.compile { Sfa.domains = 0; threshold = 1 } ~inner:"imfant" z));
  Alcotest.check_raises "zero threshold"
    (Invalid_argument "Sfa: threshold must be positive, got 0") (fun () ->
      ignore (Sfa.compile { Sfa.domains = 2; threshold = 0 } ~inner:"imfant" z));
  Alcotest.check_raises "bad inner"
    (Invalid_argument "Sfa: inner engine must be imfant or hybrid, got \"auto\"")
    (fun () -> ignore (Sfa.compile (spec ()) ~inner:"auto" z))

(* ---------------------------------------------------- Spec grammar *)

let test_split_spec () =
  check Alcotest.bool "not sfa-shaped" true
    (Option.is_none (Sfa.split_spec "imfant"));
  check Alcotest.bool "prefix but no separator" true
    (Option.is_none (Sfa.split_spec "sfanatic"));
  (match Sfa.split_spec "sfa:imfant" with
  | Some (Ok (s, "imfant")) ->
      check Alcotest.int "default domains" Sfa.default.Sfa.domains s.Sfa.domains
  | _ -> Alcotest.fail "sfa:imfant should parse with defaults");
  (match Sfa.split_spec "sfa{domains=4,threshold=2}:hybrid" with
  | Some (Ok (s, "hybrid")) ->
      check Alcotest.int "domains" 4 s.Sfa.domains;
      check Alcotest.int "threshold" 2 s.Sfa.threshold
  | _ -> Alcotest.fail "parameterised spec should parse");
  let is_error = function Some (Error _) -> true | _ -> false in
  List.iter
    (fun bad ->
      check Alcotest.bool (Printf.sprintf "%S rejected" bad) true
        (is_error (Sfa.split_spec bad)))
    [
      "sfa:";
      "sfa{domains=0}:imfant";
      "sfa{domains=65}:imfant";
      "sfa{threshold=0}:imfant";
      "sfa{threshold=x}:imfant";
      "sfa{stride=2}:imfant";
      "sfa{domains=2:imfant";
      "sfa{domains=2}imfant";
    ]

let test_registry_integration () =
  let z = merge_rules [ "ab"; "b$" ] in
  let eng =
    Registry.compile_automaton_exn "sfa{domains=2,threshold=1}:imfant" z
  in
  let im = Im.compile z in
  check
    Alcotest.(list (pair int int))
    "packed run equals imfant"
    (sort (im_events (Im.run im "abxab")))
    (sort
       (List.map
          (fun e -> (e.Engine_sig.fsa, e.Engine_sig.end_pos))
          (Engine_sig.run eng "abxab")));
  check Alcotest.string "underlying strips the wrapper" "imfant"
    (Registry.underlying "sfa{domains=2}:imfant");
  check Alcotest.string "underlying strips stacked wrappers" "hybrid"
    (Registry.underlying "sfa:faulty{seed=1}:hybrid");
  match Registry.compile "sfa:auto" (Mfsa_engine.Source.Automata [ z ]) with
  | Error msg ->
      check Alcotest.bool "inner restriction named" true
        (contains msg "imfant")
  | Ok _ -> Alcotest.fail "sfa:auto must not compile"

let test_tables_round_trip () =
  let z = merge_rules [ "ab"; "a(b|c)*d"; "ab$" ] in
  let im = Im.compile z in
  let loaded =
    Sfa.of_tables (spec ~domains:3 ()) ~inner:"hybrid" (Im.tables z)
  in
  let input = "abcbcdababdxabcd" in
  check
    Alcotest.(list (pair int int))
    "loaded engine agrees"
    (sort (im_events (Im.run im input)))
    (sort (sfa_events (Sfa.run loaded input)))

(* -------------------------------------------------------- Sessions *)

let sfa_chunked_session sf chunks =
  let s = Sfa.session sf in
  let fed = List.concat_map (fun c -> Sfa.feed s c) chunks in
  let flushed = Sfa.finish s in
  sfa_events (fed @ flushed)

let test_session_equals_whole () =
  let z = merge_rules [ "hello"; "lo wo"; "ld$" ] in
  let im = Im.compile z in
  let whole = sort (im_events (Im.run im "say hello world")) in
  List.iter
    (fun inner ->
      let sf = Sfa.compile (spec ()) ~inner z in
      check
        Alcotest.(list (pair int int))
        (inner ^ " session, split mid-match")
        whole
        (sort (sfa_chunked_session sf [ "say hel"; "lo wor"; "ld" ])))
    [ "imfant"; "hybrid" ]

let test_interleaved_sessions () =
  let z = merge_rules [ "a+b"; "ab$"; "^a" ] in
  let im = Im.compile z in
  let sf = Sfa.compile (spec ()) ~inner:"hybrid" z in
  let in1 = "aabacbdabaab" and in2 = "abbbaaabab" in
  let s1 = Sfa.session sf and s2 = Sfa.session sf in
  let acc1 = ref [] and acc2 = ref [] in
  for i = 0 to max (String.length in1) (String.length in2) - 1 do
    if i < String.length in1 then
      acc1 := List.rev_append (Sfa.feed s1 (String.make 1 in1.[i])) !acc1;
    if i < String.length in2 then
      acc2 := List.rev_append (Sfa.feed s2 (String.make 1 in2.[i])) !acc2
  done;
  check
    Alcotest.(list (pair int int))
    "session 1"
    (sort (im_events (Im.run im in1)))
    (sort (sfa_events (List.rev !acc1 @ Sfa.finish s1)));
  check
    Alcotest.(list (pair int int))
    "session 2"
    (sort (im_events (Im.run im in2)))
    (sort (sfa_events (List.rev !acc2 @ Sfa.finish s2)));
  Sfa.reset s1;
  check Alcotest.int "position reset" 0 (Sfa.position s1)

(* ------------------------------------------------------ Properties *)

let build_ruleset rules =
  Merge.merge
    (Array.of_list
       (List.map
          (fun r ->
            Mfsa_automata.Multiplicity.fuse
              (Mfsa_automata.Epsilon.remove
                 (Mfsa_automata.Thompson.build
                    (Mfsa_automata.Simplify.char_classes_rule
                       (Mfsa_automata.Loops.expand_rule r)))))
          rules))

let print_case (d, (rules, input)) =
  Printf.sprintf "domains=%d %s" d (Gen_re.print_ruleset_input (rules, input))

(* Chunk counts 1–8 (often exceeding the input length) with
   threshold=1, so every non-empty input takes the parallel path. *)
let prop_equals inner seq_run =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:(Printf.sprintf "sfa:%s run = %s run" inner inner)
       ~print:print_case
       QCheck2.Gen.(
         pair (int_range 1 8) (pair (Gen_re.ruleset ()) Gen_re.input))
       (fun (d, (rules, input)) ->
         let z = build_ruleset rules in
         let sf = Sfa.compile (spec ~domains:d ()) ~inner z in
         sort (sfa_events (Sfa.run sf input)) = sort (seq_run z input)))

let prop_sfa_imfant =
  prop_equals "imfant" (fun z input ->
      im_events (Im.run (Im.compile z) input))

let prop_sfa_hybrid =
  prop_equals "hybrid" (fun z input ->
      List.map
        (fun e -> (e.Hy.fsa, e.Hy.end_pos))
        (Hy.run (Hy.compile z) input))

let prop_sessions_equal_imfant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"interleaved sfa sessions = imfant whole-string runs"
       ~print:(fun (rules, (in1, in2)) ->
         Printf.sprintf "%s input2=%S"
           (Gen_re.print_ruleset_input (rules, in1))
           in2)
       QCheck2.Gen.(pair (Gen_re.ruleset ()) (pair Gen_re.input Gen_re.input))
       (fun (rules, (in1, in2)) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let sf = Sfa.compile (spec ()) ~inner:"imfant" z in
         let s1 = Sfa.session sf and s2 = Sfa.session sf in
         let acc1 = ref [] and acc2 = ref [] in
         for i = 0 to max (String.length in1) (String.length in2) - 1 do
           if i < String.length in1 then
             acc1 := List.rev_append (Sfa.feed s1 (String.make 1 in1.[i])) !acc1;
           if i < String.length in2 then
             acc2 := List.rev_append (Sfa.feed s2 (String.make 1 in2.[i])) !acc2
         done;
         sort (sfa_events (List.rev !acc1 @ Sfa.finish s1))
         = sort (im_events (Im.run im in1))
         && sort (sfa_events (List.rev !acc2 @ Sfa.finish s2))
            = sort (im_events (Im.run im in2))))

let () =
  Alcotest.run "sfa"
    [
      ( "equivalence",
        [
          Alcotest.test_case "equals sequential engines" `Quick
            test_equals_sequential;
          Alcotest.test_case "per-FSA anchors" `Quick test_anchors;
          Alcotest.test_case "end anchor is global" `Quick
            test_end_anchor_not_chunk_local;
          Alcotest.test_case "literal straddles every boundary" `Quick
            test_literal_straddles_every_boundary;
          Alcotest.test_case "input shorter than domains" `Quick
            test_input_shorter_than_domains;
          Alcotest.test_case "threshold gates chunking" `Quick
            test_threshold_gates_chunking;
          Alcotest.test_case "count and per-fsa" `Quick test_count_and_per_fsa;
          Alcotest.test_case "event ordering" `Quick test_run_is_ordered;
          Alcotest.test_case "span path agrees" `Quick test_run_span_agrees;
          Alcotest.test_case "rejects bad specs" `Quick test_rejects_bad_specs;
        ] );
      ( "registry",
        [
          Alcotest.test_case "spec grammar" `Quick test_split_spec;
          Alcotest.test_case "wrapper through the registry" `Quick
            test_registry_integration;
          Alcotest.test_case "table round trip" `Quick test_tables_round_trip;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "session equals whole" `Quick
            test_session_equals_whole;
          Alcotest.test_case "interleaved sessions" `Quick
            test_interleaved_sessions;
        ] );
      ( "properties",
        [ prop_sfa_imfant; prop_sfa_hybrid; prop_sessions_equal_imfant ] );
    ]
