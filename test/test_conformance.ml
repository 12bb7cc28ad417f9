(* Conformance vectors: a table of (pattern, input, expected match
   ends) covering POSIX ERE semantics corner cases, executed through
   every matching path in the library — the reference simulator, the
   iNFAnt engine, the scanning-DFA engine, and iMFAnt over the
   single-rule MFSA. All four must agree with the table and with each
   other. *)

module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module In = Mfsa_paper.Infant
module De = Mfsa_paper.Dfa_engine
module Im = Mfsa_engine.Imfant
module Mfsa = Mfsa_model.Mfsa

let check = Alcotest.check

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

(* (pattern, input, expected unanchored match end positions) *)
let vectors =
  [
    (* Literals and concatenation *)
    ("a", "a", [ 1 ]);
    ("a", "b", []);
    ("a", "aaa", [ 1; 2; 3 ]);
    ("abc", "abc", [ 3 ]);
    ("abc", "xabcx", [ 4 ]);
    ("abc", "ababc", [ 5 ]);
    ("abc", "ab", []);
    ("aa", "aaaa", [ 2; 3; 4 ]);
    (* Alternation *)
    ("a|b", "ab", [ 1; 2 ]);
    ("a|b", "cc", []);
    ("abc|abd", "abcabd", [ 3; 6 ]);
    ("ab|abc", "abc", [ 2; 3 ]);
    ("|a", "a", [ 1 ]);
    ("(a|)b", "ab", [ 2 ]);
    ("(a|)b", "b", [ 1 ]);
    (* Star, plus, optional *)
    ("a*b", "b", [ 1 ]);
    ("a*b", "aaab", [ 4 ]);
    ("a*", "aa", [ 1; 2 ]);
    ("a+", "aa", [ 1; 2 ]);
    ("a+b", "ab", [ 2 ]);
    ("a+b", "b", []);
    ("a?b", "ab", [ 2 ]);
    ("a?b", "b", [ 1 ]);
    ("a?b", "aab", [ 3 ]);
    ("(ab)*c", "c", [ 1 ]);
    ("(ab)*c", "ababc", [ 5 ]);
    ("(ab)+c", "abc", [ 3 ]);
    ("(ab)+c", "c", []);
    ("(a*)*b", "aab", [ 3 ]);
    ("(a+)+b", "aab", [ 3 ]);
    (* Bounded repetition *)
    ("a{3}", "aaaa", [ 3; 4 ]);
    ("a{3}", "aa", []);
    ("a{2,}", "aaaa", [ 2; 3; 4 ]);
    ("a{0,2}b", "aab", [ 3 ]);
    ("a{0,2}b", "aaab", [ 4 ]); (* suffix aab *)
    ("a{1,2}b", "b", []);
    ("(ab){2}", "abab", [ 4 ]);
    ("(ab){1,2}", "abab", [ 2; 4 ]);
    ("a{0}b", "b", [ 1 ]);
    (* Classes and dot *)
    ("[abc]", "b", [ 1 ]);
    ("[abc]", "d", []);
    ("[^a]", "ab", [ 2 ]);
    ("[a-c]x", "bx", [ 2 ]);
    ("[-a]", "-", [ 1 ]);
    ("[]a]", "]", [ 1 ]);
    (".", "a\nb", [ 1; 3 ]);
    (".a", "aa", [ 2 ]);
    (".*x", "abx", [ 3 ]);
    ("a.*b", "a123b", [ 5 ]);
    ("a.*b", "ab", [ 2 ]);
    ("a[^b]*b", "axxyb", [ 5 ]);
    ("[[:digit:]]+", "a12b", [ 2; 3 ]);
    ("[[:upper:]][[:lower:]]", "Ab", [ 2 ]);
    ("\\d\\d", "a42", [ 3 ]);
    ("\\w+", "_x", [ 1; 2 ]);
    ("\\s", "a b", [ 2 ]);
    (* Escapes *)
    ("\\.", "a.b", [ 2 ]);
    ("\\*", "a*b", [ 2 ]);
    ("\\\\", "\\", [ 1 ]);
    ("\\x41", "A", [ 1 ]);
    ("\\n", "a\nb", [ 2 ]);
    ("\\t\\r", "\t\r", [ 2 ]);
    (* Grouping and precedence *)
    ("ab|cd", "abcd", [ 2; 4 ]);
    ("a(b|c)d", "abdacd", [ 3; 6 ]);
    ("(a|b)(c|d)", "ad", [ 2 ]);
    ("((a))", "a", [ 1 ]);
    ("(a(b(c)))", "abc", [ 3 ]);
    ("x(a|b)*y", "xy", [ 2 ]);
    ("x(a|b)*y", "xabay", [ 5 ]);
    (* Overlapping and nested matches *)
    ("aa|aaa", "aaaa", [ 2; 3; 4 ]);
    ("aba", "ababa", [ 3; 5 ]);
    ("a.a", "aaa", [ 3 ]);
    (* Anchors *)
    ("^a", "aa", [ 1 ]);
    ("^ab", "abab", [ 2 ]);
    ("^a*$", "aaa", [ 3 ]);
    ("a$", "aa", [ 2 ]);
    ("ab$", "abab", [ 4 ]);
    ("^abc$", "abc", [ 3 ]);
    ("^abc$", "xabc", []);
    ("^", "a", []);
    (* Empty-pattern conventions: non-empty matches only *)
    ("", "abc", []);
    ("a*", "bbb", []);
    ("(a|b)*", "ab", [ 1; 2 ]);
    (* Binary bytes *)
    ("\\x00", "\x00", [ 1 ]);
    ("\\xff+", "\xff\xff", [ 1; 2 ]);
    ("[\\x00-\\x02]", "\x01", [ 1 ]);
    (* Longer compositions *)
    ("(ab|a)(c|bc)", "abc", [ 3 ]);
    ("a(bc)?d", "ad", [ 2 ]);
    ("a(bc)?d", "abcd", [ 4 ]);
    ("(a|ab)(c|bcd)(d*)", "abcd", [ 3; 4 ]);
    ("x[ab]{2}y", "xaby", [ 4 ]);
    ("x[ab]{2}y", "xaay", [ 4 ]);
    ("x[ab]{2}y", "xacy", []);
    ("(h|H)(e|E)(l|L)+o", "HeLLo", [ 5 ]);
    ("GET /[a-z]+", "GET /abc", [ 6; 7; 8 ]);
    ("[0-9]{1,3}\\.[0-9]{1,3}", "10.25", [ 4; 5 ]);
  ]

let runners =
  [
    ("simulator", fun a input -> Sim.match_ends a input);
    ("infant", fun a input -> In.run (In.compile a) input);
    ("dfa-engine", fun a input -> De.run (Result.get_ok (De.compile a)) input);
    ( "imfant",
      fun a input ->
        Im.run (Im.compile (Mfsa.of_fsa a)) input
        |> List.map (fun e -> e.Im.end_pos) );
    ( "decomposed",
      fun a input ->
        let module D = Mfsa_paper.Decomposed in
        D.run (D.compile [| a |]) input |> List.map (fun e -> e.D.end_pos) );
  ]

let test_vectors_on (name, run) () =
  List.iter
    (fun (pattern, input, expected) ->
      let a = fsa_of pattern in
      check
        Alcotest.(list int)
        (Printf.sprintf "%s: %S on %S" name pattern input)
        expected (run a input))
    vectors

let test_acceptance_battery () =
  (* Whole-string acceptance for patterns whose unanchored behaviour
     above cannot distinguish fine structure. *)
  List.iter
    (fun (pattern, input, expected) ->
      check Alcotest.bool
        (Printf.sprintf "accepts %S %S" pattern input)
        expected
        (Sim.accepts (fsa_of pattern) input))
    [
      ("a*", "", true);
      ("a+", "", false);
      ("a?", "", true);
      ("", "", true);
      ("()", "", true);
      ("a{0,0}", "", true);
      ("(a|b)*abb", "babb", true);
      ("(a|b)*abb", "ab", false);
      ("(ab|ba)*", "abba", true);
      ("(ab|ba)*", "aba", false);
      ("a(b|c)*d", "abcbcbd", true);
      ("[^\\n]*", "any thing", true);
    ]

let () =
  Alcotest.run "conformance"
    [
      ( "vectors",
        List.map
          (fun runner ->
            Alcotest.test_case (fst runner) `Quick (test_vectors_on runner))
          runners
        @ [ Alcotest.test_case "acceptance battery" `Quick test_acceptance_battery ]
      );
    ]
