(* Unit and property tests for the automata middle-end: Nfa, Thompson,
   Loops, Epsilon, Multiplicity, Simulate. *)

module Nfa = Mfsa_automata.Nfa
module Thompson = Mfsa_automata.Thompson
module Epsilon = Mfsa_automata.Epsilon
module Loops = Mfsa_automata.Loops
module Multiplicity = Mfsa_automata.Multiplicity
module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module Ast = Mfsa_frontend.Ast
module C = Mfsa_charset.Charclass

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let nfa_of src = Thompson.build_pattern src

module Simplify = Mfsa_automata.Simplify

let optimized src =
  Multiplicity.fuse
    (Epsilon.remove
       (Thompson.build
          (Simplify.char_classes_rule (Loops.expand_rule (P.parse_exn src)))))

let accepts_t = Alcotest.bool

(* ------------------------------------------------------------- Nfa *)

let test_nfa_create_validates () =
  Alcotest.check_raises "no states"
    (Invalid_argument "Nfa.create: need at least one state") (fun () ->
      ignore (Nfa.create ~n_states:0 ~transitions:[] ~start:0 ~finals:[] ~pattern:"" ()));
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Nfa.create: start state 3 out of range [0,3)") (fun () ->
      ignore (Nfa.create ~n_states:3 ~transitions:[] ~start:3 ~finals:[] ~pattern:"" ()));
  Alcotest.check_raises "bad transition"
    (Invalid_argument "Nfa.create: destination state 9 out of range [0,2)")
    (fun () ->
      ignore
        (Nfa.create ~n_states:2
           ~transitions:[ { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 9 } ]
           ~start:0 ~finals:[] ~pattern:"" ()));
  Alcotest.check_raises "empty class"
    (Invalid_argument "Nfa.create: empty character class on a transition")
    (fun () ->
      ignore
        (Nfa.create ~n_states:2
           ~transitions:[ { Nfa.src = 0; label = Nfa.Cls C.empty; dst = 1 } ]
           ~start:0 ~finals:[] ~pattern:"" ()))

let test_nfa_accessors () =
  let a =
    Nfa.create ~n_states:3
      ~transitions:
        [
          { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 1 };
          { Nfa.src = 1; label = Nfa.Eps; dst = 2 };
          { Nfa.src = 0; label = Nfa.Cls (C.range 'x' 'z'); dst = 2 };
        ]
      ~start:0 ~finals:[ 2 ] ~pattern:"t" ()
  in
  check Alcotest.int "n_transitions" 3 (Nfa.n_transitions a);
  check Alcotest.(list int) "final_states" [ 2 ] (Nfa.final_states a);
  check Alcotest.bool "not eps free" false (Nfa.is_eps_free a);
  let out = Nfa.out a in
  check Alcotest.int "out degree 0" 2 (Array.length out.(0));
  check Alcotest.int "out degree 2" 0 (Array.length out.(2));
  let count, len = Nfa.cc_stats a in
  check Alcotest.(pair int int) "cc stats" (1, 3) (count, len)

let test_nfa_map_states () =
  let a =
    Nfa.create ~n_states:2
      ~transitions:[ { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 1 } ]
      ~start:0 ~finals:[ 1 ] ~pattern:"a" ()
  in
  let b = Nfa.map_states a (fun q -> q + 3) ~n_states:5 in
  check Alcotest.int "start moved" 3 b.Nfa.start;
  check Alcotest.(list int) "finals moved" [ 4 ] (Nfa.final_states b)

let test_nfa_equal_structure () =
  let a = nfa_of "ab" and b = nfa_of "ab" and c = nfa_of "ac" in
  check Alcotest.bool "same build equal" true (Nfa.equal_structure a b);
  check Alcotest.bool "different labels differ" false (Nfa.equal_structure a c)

let test_nfa_label_helpers () =
  check Alcotest.bool "sym equal" true
    (Nfa.label_equal (Nfa.label_sym 'a') (Nfa.Cls (C.singleton 'a')));
  check Alcotest.bool "eps not sym" false (Nfa.label_equal Nfa.Eps (Nfa.label_sym 'a'));
  check Alcotest.string "dot output nonempty" "digraph"
    (String.sub (Nfa.to_dot (nfa_of "a")) 0 7)

(* -------------------------------------------------------- Thompson *)

let test_thompson_char () =
  let a = nfa_of "a" in
  check accepts_t "accepts a" true (Sim.accepts a "a");
  check accepts_t "rejects b" false (Sim.accepts a "b");
  check accepts_t "rejects aa" false (Sim.accepts a "aa");
  check accepts_t "rejects empty" false (Sim.accepts a "")

let test_thompson_operators () =
  let cases =
    [
      ("ab", [ ("ab", true); ("a", false); ("abb", false) ]);
      ("a|b", [ ("a", true); ("b", true); ("ab", false) ]);
      ("a*", [ ("", true); ("a", true); ("aaaa", true); ("ab", false) ]);
      ("a+", [ ("", false); ("a", true); ("aaa", true) ]);
      ("a?", [ ("", true); ("a", true); ("aa", false) ]);
      ("(ab|c)*", [ ("", true); ("abc", true); ("abab", true); ("ba", false) ]);
      ("[ab]c", [ ("ac", true); ("bc", true); ("cc", false) ]);
      (".", [ ("x", true); ("\n", false) ]);
      ("a{2,3}", [ ("a", false); ("aa", true); ("aaa", true); ("aaaa", false) ]);
      ("a{2,}", [ ("a", false); ("aa", true); ("aaaaa", true) ]);
      ("a{0,1}b", [ ("b", true); ("ab", true); ("aab", false) ]);
      ("a{3}", [ ("aaa", true); ("aa", false) ]);
      ("", [ ("", true); ("a", false) ]);
    ]
  in
  List.iter
    (fun (re, inputs) ->
      let a = nfa_of re in
      List.iter
        (fun (s, expect) ->
          check accepts_t (Printf.sprintf "%S vs %S" re s) expect (Sim.accepts a s))
        inputs)
    cases

let test_thompson_single_final () =
  let a = nfa_of "a(b|c)*" in
  check Alcotest.int "one final state" 1 (List.length (Nfa.final_states a))

let test_thompson_anchors_carried () =
  let a = Thompson.build (P.parse_exn "^ab$") in
  check Alcotest.bool "start" true a.Nfa.anchored_start;
  check Alcotest.bool "end" true a.Nfa.anchored_end;
  check Alcotest.string "pattern" "^ab$" a.Nfa.pattern

(* ----------------------------------------------------------- Loops *)

let expand_pattern src = Loops.expand (P.parse_exn src).Ast.ast

let test_loops_repeat_exact () =
  check Alcotest.bool "a{3} becomes aaa" true
    (Ast.equal (expand_pattern "a{3}")
       (Ast.seq [ Ast.Char 'a'; Ast.Char 'a'; Ast.Char 'a' ]))

let test_loops_repeat_range () =
  check Alcotest.bool "a{1,3} becomes a a? a?" true
    (Ast.equal (expand_pattern "a{1,3}")
       (Ast.seq [ Ast.Char 'a'; Ast.Opt (Ast.Char 'a'); Ast.Opt (Ast.Char 'a') ]))

let test_loops_repeat_open () =
  check Alcotest.bool "a{2,} becomes a a a*" true
    (Ast.equal (expand_pattern "a{2,}")
       (Ast.seq [ Ast.Char 'a'; Ast.Char 'a'; Ast.Star (Ast.Char 'a') ]))

let test_loops_plus_expansion () =
  check Alcotest.bool "a+ becomes a a*" true
    (Ast.equal (expand_pattern "a+") (Ast.Concat (Ast.Char 'a', Ast.Star (Ast.Char 'a'))));
  check Alcotest.bool "plus kept when disabled" true
    (Ast.equal
       (Loops.expand ~expand_plus:false (P.parse_exn "a+").Ast.ast)
       (Ast.Plus (Ast.Char 'a')))

let test_loops_zero () =
  check Alcotest.bool "a{0,0} is empty" true
    (Ast.equal (expand_pattern "a{0,0}") Ast.Empty);
  check Alcotest.bool "a{0} is empty" true (Ast.equal (expand_pattern "a{0}") Ast.Empty)

let test_loops_nested () =
  (* (a{2}){2} = aaaa *)
  let e = expand_pattern "(a{2}){2}" in
  let a = Thompson.build { Ast.pattern = ""; ast = e; anchored_start = false; anchored_end = false } in
  check accepts_t "aaaa" true (Sim.accepts a "aaaa");
  check accepts_t "aaa" false (Sim.accepts a "aaa")

let test_loops_budget () =
  (* Over budget: the mandatory copies must still be produced or the
     call must fail; the residue falls back to a Repeat node. *)
  let big = Ast.Repeat (Ast.Char 'a', 0, Some 100) in
  let e = Loops.expand ~budget:20 big in
  let has_repeat = ref false in
  let rec scan = function
    | Ast.Repeat _ -> has_repeat := true
    | Ast.Concat (a, b) | Ast.Alt (a, b) ->
        scan a;
        scan b
    | Ast.Star a | Ast.Plus a | Ast.Opt a -> scan a
    | Ast.Empty | Ast.Char _ | Ast.Class _ -> ()
  in
  scan e;
  check Alcotest.bool "residue kept" true !has_repeat;
  Alcotest.check_raises "mandatory copies overflow"
    (Invalid_argument
       "Loops.expand: expanding {50,...} over a sub-pattern of size 1 exceeds the budget")
    (fun () -> ignore (Loops.expand ~budget:20 (Ast.Repeat (Ast.Char 'a', 50, None))))

let test_loops_count () =
  check Alcotest.int "loop census" 3 (Loops.loop_count (P.parse_exn "a*b+c{2}d").Ast.ast);
  check Alcotest.int "no loops" 0 (Loops.loop_count (P.parse_exn "abc").Ast.ast)

let prop_loops_preserve_language =
  QCheck2.Test.make ~name:"loops: expansion preserves the language" ~count:200
    ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let rule = List.hd rules in
      let before = Thompson.build rule in
      let after = Thompson.build (Loops.expand_rule rule) in
      Sim.accepts before input = Sim.accepts after input)

(* --------------------------------------------------------- Epsilon *)

let test_epsilon_closure () =
  let a =
    Nfa.create ~n_states:4
      ~transitions:
        [
          { Nfa.src = 0; label = Nfa.Eps; dst = 1 };
          { Nfa.src = 1; label = Nfa.Eps; dst = 2 };
          { Nfa.src = 2; label = Nfa.label_sym 'a'; dst = 3 };
        ]
      ~start:0 ~finals:[ 3 ] ~pattern:"" ()
  in
  check Alcotest.(list int) "closure of 0" [ 0; 1; 2 ] (Epsilon.closure a 0);
  check Alcotest.(list int) "closure of 3" [ 3 ] (Epsilon.closure a 3)

let test_epsilon_removes_all () =
  let a = nfa_of "(ab|c)*d?" in
  check Alcotest.bool "thompson has eps" false (Nfa.is_eps_free a);
  let b = Epsilon.remove a in
  check Alcotest.bool "eps free" true (Nfa.is_eps_free b);
  check Alcotest.int "start renumbered to 0" 0 b.Nfa.start

let test_epsilon_preserves_examples () =
  List.iter
    (fun (re, inputs) ->
      let a = nfa_of re in
      let b = Epsilon.remove a in
      List.iter
        (fun s ->
          check accepts_t
            (Printf.sprintf "%S on %S" re s)
            (Sim.accepts a s) (Sim.accepts b s))
        inputs)
    [
      ("(ab|c)*", [ ""; "ab"; "c"; "abc"; "cab"; "a"; "b" ]);
      ("a?b?c?", [ ""; "a"; "abc"; "ac"; "cb" ]);
      ("a(b|)c", [ "abc"; "ac"; "ab" ]);
      ("(a*)*", [ ""; "a"; "aaa" ]);
    ]

let test_epsilon_shrinks () =
  let a = nfa_of "(ab|c)*" in
  let b = Epsilon.remove a in
  check Alcotest.bool "fewer states" true (b.Nfa.n_states < a.Nfa.n_states)

let test_epsilon_empty_language () =
  (* [^\x00-\xff] cannot be written; craft an automaton with an
     unreachable final state instead. *)
  let a =
    Nfa.create ~n_states:3
      ~transitions:[ { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 1 } ]
      ~start:0 ~finals:[ 2 ] ~pattern:"dead" ()
  in
  let b = Epsilon.remove a in
  check Alcotest.int "collapsed to start only" 1 b.Nfa.n_states;
  check Alcotest.(list int) "no finals" [] (Nfa.final_states b);
  check accepts_t "accepts nothing" false (Sim.accepts b "a")

let test_epsilon_trims_dead_states () =
  (* In a(b|c), after the 'a' both branches stay live; but a branch
     that can never reach a final must be dropped. *)
  let a =
    Nfa.create ~n_states:4
      ~transitions:
        [
          { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 1 };
          { Nfa.src = 0; label = Nfa.label_sym 'x'; dst = 3 };
          { Nfa.src = 1; label = Nfa.label_sym 'b'; dst = 2 };
        ]
      ~start:0 ~finals:[ 2 ] ~pattern:"" ()
  in
  let b = Epsilon.remove a in
  check Alcotest.int "dead branch trimmed" 3 b.Nfa.n_states

let test_epsilon_accept_empty () =
  let b = Epsilon.remove (nfa_of "a*") in
  check accepts_t "still accepts empty" true (Sim.accepts b "");
  check accepts_t "still accepts aa" true (Sim.accepts b "aa")

let prop_epsilon_preserves_language =
  QCheck2.Test.make ~name:"epsilon: removal preserves the language" ~count:300
    ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let a = Thompson.build (List.hd rules) in
      let b = Epsilon.remove a in
      Sim.accepts a input = Sim.accepts b input)

let prop_epsilon_match_ends_agree =
  QCheck2.Test.make ~name:"epsilon: unanchored match ends preserved" ~count:300
    ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let a = Thompson.build (List.hd rules) in
      let b = Epsilon.remove a in
      Sim.match_ends a input = Sim.match_ends b input)

(* ---------------------------------------------------- Multiplicity *)

let test_multiplicity_fuses () =
  let a =
    Nfa.create ~n_states:2
      ~transitions:
        [
          { Nfa.src = 0; label = Nfa.label_sym 'k'; dst = 1 };
          { Nfa.src = 0; label = Nfa.label_sym 'h'; dst = 1 };
        ]
      ~start:0 ~finals:[ 1 ] ~pattern:"k|h" ()
  in
  check Alcotest.int "multiplicity 2" 2 (Multiplicity.max_multiplicity a);
  let b = Multiplicity.fuse a in
  check Alcotest.int "one transition" 1 (Nfa.n_transitions b);
  check Alcotest.int "multiplicity 1" 1 (Multiplicity.max_multiplicity b);
  (match b.Nfa.transitions.(0).Nfa.label with
  | Nfa.Cls c -> check Alcotest.bool "class is [hk]" true (C.equal c (C.of_string "kh"))
  | Nfa.Eps -> Alcotest.fail "unexpected eps");
  check accepts_t "k" true (Sim.accepts b "k");
  check accepts_t "h" true (Sim.accepts b "h");
  check accepts_t "x" false (Sim.accepts b "x")

let test_multiplicity_figure5b () =
  (* Fig. 5b: (k|h)bc after optimisation has a [kh] class transition,
     which must NOT merge with a plain k transition of another rule —
     checked here at the label level. *)
  let a = optimized "(k|h)bc" in
  let has_kh =
    Array.exists
      (fun t ->
        match t.Nfa.label with
        | Nfa.Cls c -> C.equal c (C.of_string "kh")
        | Nfa.Eps -> false)
      a.Nfa.transitions
  in
  check Alcotest.bool "fused [kh] label exists" true has_kh;
  check Alcotest.int "no parallel arcs" 1 (Multiplicity.max_multiplicity a)

let test_multiplicity_requires_eps_free () =
  Alcotest.check_raises "eps rejected"
    (Invalid_argument "Multiplicity.fuse: automaton must be ε-free") (fun () ->
      ignore (Multiplicity.fuse (nfa_of "a|b")))

let test_multiplicity_preserves_distinct_arcs () =
  let a = optimized "ab|ac" in
  (* two distinct 'a' destinations may remain; fusing only merges
     same-(src,dst) bundles. *)
  check accepts_t "ab" true (Sim.accepts a "ab");
  check accepts_t "ac" true (Sim.accepts a "ac");
  check accepts_t "aa" false (Sim.accepts a "aa")

let prop_multiplicity_preserves_language =
  QCheck2.Test.make ~name:"multiplicity: fuse preserves the language" ~count:300
    ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let a = Epsilon.remove (Thompson.build (List.hd rules)) in
      let b = Multiplicity.fuse a in
      Sim.accepts a input = Sim.accepts b input
      && Sim.match_ends a input = Sim.match_ends b input)

(* -------------------------------------------------------- Simplify *)

let test_simplify_basic_alt () =
  check Alcotest.bool "(k|h) becomes [hk]" true
    (Ast.equal
       (Simplify.char_classes (P.parse_exn "(k|h)").Ast.ast)
       (Ast.Class (C.of_string "kh")))

let test_simplify_nested_alt () =
  check Alcotest.bool "(a|(b|c)) becomes [abc]" true
    (Ast.equal
       (Simplify.char_classes (P.parse_exn "(a|(b|c))").Ast.ast)
       (Ast.Class (C.of_string "abc")))

let test_simplify_class_branches () =
  check Alcotest.bool "([0-9]|x) becomes class" true
    (Ast.equal
       (Simplify.char_classes (P.parse_exn "([0-9]|x)").Ast.ast)
       (Ast.Class (C.add (C.range '0' '9') 'x')))

let test_simplify_leaves_multibyte () =
  (* (ab|c) is not single-byte; only inner rewrites may happen. *)
  let t = Simplify.char_classes (P.parse_exn "(ab|c)").Ast.ast in
  check Alcotest.bool "alt kept" true
    (match t with Ast.Alt _ -> true | _ -> false)

let test_simplify_single_byte_detection () =
  check Alcotest.bool "char" true (Simplify.single_byte (Ast.Char 'x') <> None);
  check Alcotest.bool "star is not" true
    (Simplify.single_byte (Ast.Star (Ast.Char 'x')) = None);
  check Alcotest.bool "empty is not" true (Simplify.single_byte Ast.Empty = None)

let test_simplify_enables_figure5b_labels () =
  (* After simplification the optimised (k|h)bc carries a [hk] class
     arc (checked again below at the pipeline level). *)
  let a = optimized "(k|h)bc" in
  check Alcotest.bool "[hk] arc present" true
    (Array.exists
       (fun t ->
         match t.Nfa.label with
         | Nfa.Cls c -> C.equal c (C.of_string "kh")
         | Nfa.Eps -> false)
       a.Nfa.transitions)

let prop_simplify_preserves_language =
  QCheck2.Test.make ~name:"simplify: char_classes preserves the language"
    ~count:200 ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let rule = List.hd rules in
      let before = Thompson.build rule in
      let after = Thompson.build (Simplify.char_classes_rule rule) in
      Sim.accepts before input = Sim.accepts after input
      && Sim.match_ends before input = Sim.match_ends after input)

(* ----------------------------------------------------------- Bisim *)

module Bisim = Mfsa_paper.Bisim

let test_bisim_merges_parallel_tails () =
  (* ab|cb has two bisimilar b-tail states after eps-removal. *)
  let a = optimized "ab|cb" in
  let r = Bisim.reduce a in
  check Alcotest.bool "shrinks" true (r.Nfa.n_states < a.Nfa.n_states);
  check Alcotest.int "block count matches" r.Nfa.n_states (Bisim.n_blocks a);
  List.iter
    (fun w ->
      check accepts_t ("lang " ^ w) (Sim.accepts a w) (Sim.accepts r w))
    [ "ab"; "cb"; "bb"; "a"; "b"; "" ]

let test_bisim_identity_on_minimal () =
  (* A plain chain has no bisimilar pairs. *)
  let a = optimized "abc" in
  let r = Bisim.reduce a in
  check Alcotest.int "unchanged" a.Nfa.n_states r.Nfa.n_states

let test_bisim_rejects_eps () =
  Alcotest.check_raises "eps rejected"
    (Invalid_argument "Bisim: automaton must be ε-free") (fun () ->
      ignore (Bisim.reduce (nfa_of "a|b")))

let test_bisim_all_final () =
  (* Degenerate partitions: every state final. *)
  let a =
    Nfa.create ~n_states:2
      ~transitions:[ { Nfa.src = 0; label = Nfa.label_sym 'a'; dst = 1 } ]
      ~start:0 ~finals:[ 0; 1 ] ~pattern:"" ()
  in
  let r = Bisim.reduce a in
  check accepts_t "empty accepted" true (Sim.accepts r "");
  check accepts_t "a accepted" true (Sim.accepts r "a");
  check accepts_t "aa rejected" false (Sim.accepts r "aa")

let prop_bisim_preserves_matching =
  QCheck2.Test.make ~name:"bisim: quotient preserves matching" ~count:200
    ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let a =
        Multiplicity.fuse
          (Epsilon.remove
             (Thompson.build
                (Simplify.char_classes_rule (Loops.expand_rule (List.hd rules)))))
      in
      let r = Bisim.reduce a in
      r.Nfa.n_states <= a.Nfa.n_states
      && Sim.match_ends a input = Sim.match_ends r input)

(* -------------------------------------------------------- Simulate *)

let test_simulate_match_ends () =
  let a = optimized "ab" in
  check Alcotest.(list int) "two hits" [ 2; 6 ] (Sim.match_ends a "abcdab");
  check Alcotest.(list int) "overlap" [ 2; 3; 4 ] (Sim.match_ends (optimized "a+") "xaaa")

let test_simulate_empty_matches_skipped () =
  check Alcotest.(list int) "a* reports only non-empty" [ 2; 3 ]
    (Sim.match_ends (optimized "a*") "xaa")

let test_simulate_anchored_start () =
  let a = Multiplicity.fuse (Epsilon.remove (Thompson.build (P.parse_exn "^ab"))) in
  check Alcotest.(list int) "only position 0" [ 2 ] (Sim.match_ends a "abab");
  check Alcotest.(list int) "no match elsewhere" [] (Sim.match_ends a "xab")

let test_simulate_anchored_end () =
  let a = Multiplicity.fuse (Epsilon.remove (Thompson.build (P.parse_exn "ab$"))) in
  check Alcotest.(list int) "only final position" [ 4 ] (Sim.match_ends a "abab");
  check Alcotest.(list int) "not at end" [] (Sim.match_ends a "aba")

let test_simulate_count () =
  let a = optimized "a" in
  check Alcotest.int "count equals list length" 3 (Sim.count_matches a "axaxa")

let () =
  Alcotest.run "automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "create validates" `Quick test_nfa_create_validates;
          Alcotest.test_case "accessors" `Quick test_nfa_accessors;
          Alcotest.test_case "map_states" `Quick test_nfa_map_states;
          Alcotest.test_case "equal_structure" `Quick test_nfa_equal_structure;
          Alcotest.test_case "label helpers" `Quick test_nfa_label_helpers;
        ] );
      ( "thompson",
        [
          Alcotest.test_case "single char" `Quick test_thompson_char;
          Alcotest.test_case "all operators" `Quick test_thompson_operators;
          Alcotest.test_case "single final" `Quick test_thompson_single_final;
          Alcotest.test_case "anchors carried" `Quick test_thompson_anchors_carried;
        ] );
      ( "loops",
        [
          Alcotest.test_case "exact repeat" `Quick test_loops_repeat_exact;
          Alcotest.test_case "range repeat" `Quick test_loops_repeat_range;
          Alcotest.test_case "open repeat" `Quick test_loops_repeat_open;
          Alcotest.test_case "plus expansion" `Quick test_loops_plus_expansion;
          Alcotest.test_case "zero repeat" `Quick test_loops_zero;
          Alcotest.test_case "nested repeats" `Quick test_loops_nested;
          Alcotest.test_case "budget" `Quick test_loops_budget;
          Alcotest.test_case "loop census" `Quick test_loops_count;
          qtest prop_loops_preserve_language;
        ] );
      ( "epsilon",
        [
          Alcotest.test_case "closure" `Quick test_epsilon_closure;
          Alcotest.test_case "removes all eps" `Quick test_epsilon_removes_all;
          Alcotest.test_case "preserves examples" `Quick test_epsilon_preserves_examples;
          Alcotest.test_case "shrinks" `Quick test_epsilon_shrinks;
          Alcotest.test_case "empty language" `Quick test_epsilon_empty_language;
          Alcotest.test_case "trims dead states" `Quick test_epsilon_trims_dead_states;
          Alcotest.test_case "keeps empty acceptance" `Quick test_epsilon_accept_empty;
          qtest prop_epsilon_preserves_language;
          qtest prop_epsilon_match_ends_agree;
        ] );
      ( "multiplicity",
        [
          Alcotest.test_case "fuses parallel arcs" `Quick test_multiplicity_fuses;
          Alcotest.test_case "figure 5b labels" `Quick test_multiplicity_figure5b;
          Alcotest.test_case "requires eps-free" `Quick test_multiplicity_requires_eps_free;
          Alcotest.test_case "keeps distinct arcs" `Quick test_multiplicity_preserves_distinct_arcs;
          qtest prop_multiplicity_preserves_language;
        ] );
      ( "bisim",
        [
          Alcotest.test_case "merges parallel tails" `Quick
            test_bisim_merges_parallel_tails;
          Alcotest.test_case "identity on minimal" `Quick test_bisim_identity_on_minimal;
          Alcotest.test_case "rejects eps" `Quick test_bisim_rejects_eps;
          Alcotest.test_case "all-final degenerate" `Quick test_bisim_all_final;
          qtest prop_bisim_preserves_matching;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "basic alternation" `Quick test_simplify_basic_alt;
          Alcotest.test_case "nested alternation" `Quick test_simplify_nested_alt;
          Alcotest.test_case "class branches" `Quick test_simplify_class_branches;
          Alcotest.test_case "multi-byte kept" `Quick test_simplify_leaves_multibyte;
          Alcotest.test_case "single-byte detection" `Quick
            test_simplify_single_byte_detection;
          Alcotest.test_case "enables figure 5b" `Quick
            test_simplify_enables_figure5b_labels;
          qtest prop_simplify_preserves_language;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "match ends" `Quick test_simulate_match_ends;
          Alcotest.test_case "empty matches skipped" `Quick test_simulate_empty_matches_skipped;
          Alcotest.test_case "anchored start" `Quick test_simulate_anchored_start;
          Alcotest.test_case "anchored end" `Quick test_simulate_anchored_end;
          Alcotest.test_case "count" `Quick test_simulate_count;
        ] );
    ]
