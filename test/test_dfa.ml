(* Unit and property tests for the deterministic substrate: subset
   construction, Hopcroft minimisation, D²FA default-transition
   compression, 2-stride tables and the scanning DFA engine. *)

module Nfa = Mfsa_automata.Nfa
module Dfa = Mfsa_paper.Dfa
module D2fa = Mfsa_paper.D2fa
module Stride = Mfsa_paper.Stride
module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module De = Mfsa_paper.Dfa_engine
module In = Mfsa_paper.Infant

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let fsa_of_rule rule =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule rule))))

let fsa_of src = fsa_of_rule (P.parse_exn src)

(* The budgeted constructions on inputs far inside the budget: an
   [Over_budget] here is a test failure. *)
let get = function Ok x -> x | Error e -> Alcotest.fail (Dfa.error_message e)

let determinize a = get (Dfa.determinize a)

let de_compile ?minimize a = get (De.compile ?minimize a)

let dfa_of src = determinize (fsa_of src)

let words = [ ""; "a"; "b"; "ab"; "ba"; "abc"; "abd"; "aab"; "abab"; "cab"; "aaab" ]

(* ----------------------------------------------------- Determinize *)

let test_determinize_agrees () =
  List.iter
    (fun re ->
      let nfa = fsa_of re in
      let dfa = determinize nfa in
      List.iter
        (fun w ->
          check Alcotest.bool
            (Printf.sprintf "%S accepts %S" re w)
            (Sim.accepts nfa w) (Dfa.accepts dfa w))
        words)
    [ "ab"; "a|b"; "a*"; "(ab|ad)c?"; "[ab]+"; "a{2,3}b"; "" ]

let test_determinize_is_deterministic () =
  let d = dfa_of "(a|b)*abb" in
  (* Totality and determinism are structural in the table; check a
     walk stays in range. *)
  let q = ref d.Dfa.start in
  String.iter
    (fun c ->
      q := Dfa.step d !q c;
      check Alcotest.bool "state in range" true (!q >= 0 && !q < d.Dfa.n_states))
    "abxybba"

let test_determinize_rejects_eps () =
  Alcotest.check_raises "eps rejected"
    (Invalid_argument "Dfa.determinize: automaton must be ε-free") (fun () ->
      ignore (Dfa.determinize (Mfsa_automata.Thompson.build_pattern "a|b")))

let test_dfa_match_ends () =
  let d = dfa_of "ab" in
  check Alcotest.(list int) "same as simulator" (Sim.match_ends (fsa_of "ab") "abxab")
    (Dfa.match_ends d "abxab")

let test_dfa_create_validates () =
  Alcotest.check_raises "bad table size"
    (Invalid_argument "Dfa.create: transition table must have n_states * 256 entries")
    (fun () ->
      ignore
        (Dfa.create ~n_states:2 ~next:(Array.make 256 0) ~start:0
           ~finals:[| false; false |] ~pattern:"" ()))

let test_to_nfa_roundtrip () =
  List.iter
    (fun re ->
      let d = dfa_of re in
      let back = Dfa.to_nfa d in
      List.iter
        (fun w ->
          check Alcotest.bool
            (Printf.sprintf "%S on %S" re w)
            (Dfa.accepts d w) (Sim.accepts back w))
        words)
    [ "ab|cd"; "a*b"; "[abc]{2}" ]

(* -------------------------------------------------------- Minimize *)

let test_minimize_shrinks () =
  (* (a|b)(a|b) determinises into separate branches that minimise
     into a chain. *)
  let d = dfa_of "(a|b)(a|b)" in
  let m = Dfa.minimize d in
  check Alcotest.bool "no larger" true (m.Dfa.n_states <= d.Dfa.n_states);
  List.iter
    (fun w ->
      check Alcotest.bool ("lang " ^ w) (Dfa.accepts d w) (Dfa.accepts m w))
    words

let test_minimize_canonical () =
  (* Two syntactically different REs of the same language minimise to
     the same state count. *)
  let m1 = Dfa.minimize (dfa_of "(ab|ac)") in
  let m2 = Dfa.minimize (dfa_of "a(b|c)") in
  check Alcotest.int "same minimal size" m1.Dfa.n_states m2.Dfa.n_states

let test_minimize_drops_unreachable () =
  let d = dfa_of "abc" in
  let m = Dfa.minimize d in
  check Alcotest.int "reachable only" (Dfa.n_reachable m) m.Dfa.n_states

let test_minimize_known_size () =
  (* The minimal DFA of (a|b)*abb over a 2-letter live alphabet has 4
     live states plus the sink absorbing the other 254 bytes. *)
  let m = Dfa.minimize (dfa_of "(a|b)*abb") in
  check Alcotest.int "textbook size + sink" 5 m.Dfa.n_states

let test_minimize_empty_language () =
  let a =
    Nfa.create ~n_states:2
      ~transitions:[ { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 1 } ]
      ~start:0 ~finals:[] ~pattern:"" ()
  in
  let m = Dfa.minimize (determinize a) in
  check Alcotest.int "one sink state" 1 m.Dfa.n_states;
  check Alcotest.bool "rejects" false (Dfa.accepts m "a")

let prop_minimize_preserves_language =
  qtest
    (QCheck2.Test.make ~count:100 ~name:"dfa: minimize preserves the language"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
       (fun (rules, input) ->
         let nfa = fsa_of_rule (List.hd rules) in
         let d = determinize nfa in
         let m = Dfa.minimize d in
         Dfa.accepts d input = Dfa.accepts m input
         && m.Dfa.n_states <= d.Dfa.n_states))

let prop_determinize_equals_nfa =
  qtest
    (QCheck2.Test.make ~count:100 ~name:"dfa: determinize = NFA acceptance"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
       (fun (rules, input) ->
         let nfa = fsa_of_rule (List.hd rules) in
         Dfa.accepts (determinize nfa) input = Sim.accepts nfa input))

(* ------------------------------------------------------------ D2FA *)

let test_d2fa_compresses () =
  let d = Dfa.minimize (dfa_of "abcdef|abcxyz|abcqrs") in
  let c = D2fa.compress d in
  let full = d.Dfa.n_states * 256 in
  check Alcotest.bool "stores fewer than the full table" true
    (D2fa.n_stored_transitions c < full);
  check Alcotest.bool "substantial reduction" true
    (D2fa.n_stored_transitions c * 2 < full)

let test_d2fa_agrees () =
  List.iter
    (fun re ->
      let d = Dfa.minimize (dfa_of re) in
      let c = D2fa.compress d in
      List.iter
        (fun w ->
          check Alcotest.bool
            (Printf.sprintf "%S accepts %S" re w)
            (Dfa.accepts d w) (D2fa.accepts c w);
          check
            Alcotest.(list int)
            (Printf.sprintf "%S ends %S" re w)
            (Dfa.match_ends d w) (D2fa.match_ends c w))
        words)
    [ "ab"; "(a|b)*abb"; "a[bc]d"; "abc|abd" ]

let test_d2fa_default_chains_bounded () =
  let d = Dfa.minimize (dfa_of "(ab|cd)*(ef|gh)") in
  let c = D2fa.compress d in
  (* Defaults point to strictly smaller BFS depth, so chains are
     bounded by the automaton depth (< n_states). *)
  check Alcotest.bool "acyclic chains" true (D2fa.max_default_chain c < d.Dfa.n_states)

let prop_d2fa_equals_dfa =
  qtest
    (QCheck2.Test.make ~count:100 ~name:"d2fa: compression is lossless"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
       (fun (rules, input) ->
         let d = Dfa.minimize (determinize (fsa_of_rule (List.hd rules))) in
         let c = D2fa.compress d in
         Dfa.accepts d input = D2fa.accepts c input
         && D2fa.n_stored_transitions c <= d.Dfa.n_states * 256))

(* ---------------------------------------------------------- Stride *)

let test_stride_byte_classes () =
  let d = dfa_of "[ab]c" in
  let class_of, k = Dfa.byte_classes d in
  check Alcotest.bool "few classes" true (k <= 4);
  check Alcotest.int "a and b equivalent" class_of.(Char.code 'a')
    class_of.(Char.code 'b');
  check Alcotest.bool "a and c differ" true
    (class_of.(Char.code 'a') <> class_of.(Char.code 'c'))

let test_stride_accepts () =
  List.iter
    (fun re ->
      let d = dfa_of re in
      let s = Stride.build d in
      List.iter
        (fun w ->
          check Alcotest.bool
            (Printf.sprintf "%S accepts %S" re w)
            (Dfa.accepts d w) (Stride.accepts s w))
        words)
    [ "ab"; "abc"; "a*"; "(ab)*"; "a|bc" ]

let test_stride_match_ends () =
  List.iter
    (fun (re, w) ->
      let d = dfa_of re in
      let s = Stride.build d in
      check
        Alcotest.(list int)
        (Printf.sprintf "%S on %S" re w)
        (Dfa.match_ends d w) (Stride.match_ends s w))
    [
      ("ab", "abxabab"); ("ab", "xabxx"); ("a", "aaa"); ("abc", "zabcz");
      ("ab", "ab"); ("ab", "b"); ("ab", "");
    ]

let test_stride_table_size () =
  let d = dfa_of "[ab]c" in
  let s = Stride.build d in
  check Alcotest.int "n * k^2 entries"
    (d.Dfa.n_states * s.Stride.n_classes * s.Stride.n_classes)
    (Stride.n_table_entries s)

let prop_stride_equals_dfa =
  qtest
    (QCheck2.Test.make ~count:100 ~name:"stride: 2-stride = 1-stride matching"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
       (fun (rules, input) ->
         let rule = List.hd rules in
         let rule = { rule with Mfsa_frontend.Ast.anchored_start = false; anchored_end = false } in
         let d = determinize (fsa_of_rule rule) in
         let s = Stride.build d in
         Stride.accepts s input = Dfa.accepts d input
         && Stride.match_ends s input = Dfa.match_ends d input))

(* ---------------------------------------------------------- Budget *)

(* [.*a.{20}] needs 2^21 subsets: both constructions give up at the
   state budget, quickly, with the typed error. *)
let test_budget_stops_blowup () =
  let a = fsa_of ".*a.{20}" in
  let t0 = Unix.gettimeofday () in
  (match Dfa.determinize a with
  | Error Dfa.Over_budget -> ()
  | Ok d -> Alcotest.failf "determinized to %d states" d.Dfa.n_states);
  (match De.compile a with
  | Error Dfa.Over_budget -> ()
  | Ok _ -> Alcotest.fail "the scanning DFA compiled");
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool (Printf.sprintf "both errors in %.3f s < 1 s" dt) true
    (dt < 1.0)

(* An anchored [a]-chain of [n] arcs determinizes to [n + 2] states
   (the chain and the sink): the budget's size fits, one more does
   not. *)
let test_budget_boundary () =
  let chain n =
    Nfa.create ~n_states:(n + 1)
      ~transitions:
        (List.init n (fun i -> { Nfa.src = i; label = Nfa.label_sym 'a'; dst = i + 1 }))
      ~start:0 ~finals:[ n ] ~anchored_start:true ~pattern:"" ()
  in
  check Alcotest.int "chain + sink" Dfa.state_budget
    (determinize (chain (Dfa.state_budget - 2))).Dfa.n_states;
  check Alcotest.bool "one state more is over budget" true
    (Dfa.determinize (chain (Dfa.state_budget - 1)) = Error Dfa.Over_budget)

(* ------------------------------------------------------ Dfa_engine *)

let test_engine_agrees_with_infant () =
  List.iter
    (fun (re, inputs) ->
      let nfa = fsa_of re in
      let de = de_compile nfa in
      let infant = In.compile nfa in
      List.iter
        (fun w ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%S on %S" re w)
            (In.run infant w) (De.run de w))
        inputs)
    [
      ("ab", [ "abxab"; ""; "ab"; "ba" ]);
      ("a*", [ "aaa"; "bab"; "xx" ]);
      ("a(b|c)d", [ "abdacd"; "ad" ]);
      ("[0-9]+", [ "ab12cd345"; "9" ]);
    ]

let test_engine_anchors () =
  let de = de_compile (fsa_of "^ab") in
  check Alcotest.(list int) "start anchor" [ 2 ] (De.run de "abab");
  let de = de_compile (fsa_of "ab$") in
  check Alcotest.(list int) "end anchor" [ 4 ] (De.run de "abab")

let test_engine_count_and_size () =
  let de = de_compile (fsa_of "ab") in
  check Alcotest.int "count" 2 (De.count de "abab");
  check Alcotest.bool "has states" true (De.n_states de > 0);
  let unmin = de_compile ~minimize:false (fsa_of "(a|b)(a|b)") in
  check Alcotest.bool "minimize shrinks or equals" true
    (De.n_states (de_compile (fsa_of "(a|b)(a|b)")) <= De.n_states unmin)

let prop_engine_equals_infant =
  qtest
    (QCheck2.Test.make ~count:150 ~name:"dfa engine = iNFAnt matching"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
       (fun (rules, input) ->
         let nfa = fsa_of_rule (List.hd rules) in
         De.run (de_compile nfa) input = In.run (In.compile nfa) input))

let () =
  Alcotest.run "dfa"
    [
      ( "determinize",
        [
          Alcotest.test_case "agrees with NFA" `Quick test_determinize_agrees;
          Alcotest.test_case "total and in-range" `Quick test_determinize_is_deterministic;
          Alcotest.test_case "rejects eps" `Quick test_determinize_rejects_eps;
          Alcotest.test_case "budget stops a blow-up" `Quick test_budget_stops_blowup;
          Alcotest.test_case "budget boundary" `Quick test_budget_boundary;
          Alcotest.test_case "match ends" `Quick test_dfa_match_ends;
          Alcotest.test_case "create validates" `Quick test_dfa_create_validates;
          Alcotest.test_case "to_nfa roundtrip" `Quick test_to_nfa_roundtrip;
          prop_determinize_equals_nfa;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "shrinks" `Quick test_minimize_shrinks;
          Alcotest.test_case "canonical size" `Quick test_minimize_canonical;
          Alcotest.test_case "drops unreachable" `Quick test_minimize_drops_unreachable;
          Alcotest.test_case "textbook example" `Quick test_minimize_known_size;
          Alcotest.test_case "empty language" `Quick test_minimize_empty_language;
          prop_minimize_preserves_language;
        ] );
      ( "d2fa",
        [
          Alcotest.test_case "compresses" `Quick test_d2fa_compresses;
          Alcotest.test_case "agrees with DFA" `Quick test_d2fa_agrees;
          Alcotest.test_case "default chains bounded" `Quick test_d2fa_default_chains_bounded;
          prop_d2fa_equals_dfa;
        ] );
      ( "stride",
        [
          Alcotest.test_case "byte classes" `Quick test_stride_byte_classes;
          Alcotest.test_case "accepts" `Quick test_stride_accepts;
          Alcotest.test_case "match ends" `Quick test_stride_match_ends;
          Alcotest.test_case "table size" `Quick test_stride_table_size;
          prop_stride_equals_dfa;
        ] );
      ( "engine",
        [
          Alcotest.test_case "agrees with iNFAnt" `Quick test_engine_agrees_with_infant;
          Alcotest.test_case "anchors" `Quick test_engine_anchors;
          Alcotest.test_case "count and size" `Quick test_engine_count_and_size;
          prop_engine_equals_infant;
        ] );
    ]
