(* Unit tests for the MFSA model and the merging algorithm, including
   the paper's worked examples (Figures 2, 3 and 6). *)

module Nfa = Mfsa_automata.Nfa
module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module C = Mfsa_charset.Charclass
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Bitset = Mfsa_util.Bitset

let check = Alcotest.check

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

let match_ends_of engine ~fsa input =
  List.filter_map
    (fun e -> if e.Im.fsa = fsa then Some e.Im.end_pos else None)
    (Im.run engine input)

(* ----------------------------------------------------- Mfsa model *)

let test_of_fsa () =
  let a = fsa_of "ab" in
  let z = Mfsa.of_fsa a in
  check Alcotest.int "one fsa" 1 z.Mfsa.n_fsas;
  check Alcotest.int "states copied" a.Nfa.n_states z.Mfsa.n_states;
  check Alcotest.int "transitions copied" (Nfa.n_transitions a) (Mfsa.n_transitions z);
  check Alcotest.bool "validates" true (Mfsa.validate z = Ok ());
  Array.iter
    (fun b -> check Alcotest.(list int) "belonging is {0}" [ 0 ] (Bitset.to_list b))
    z.Mfsa.bel

let test_of_fsa_rejects_eps () =
  let a = Mfsa_automata.Thompson.build_pattern "a|b" in
  Alcotest.check_raises "eps rejected"
    (Invalid_argument "Mfsa.of_fsa: automaton must be ε-free") (fun () ->
      ignore (Mfsa.of_fsa a))

let test_create_validates () =
  let mk ?(n_states = 2) ?(transitions = [ (0, C.singleton 'a', 1, [ 0 ]) ])
      ?(inits = [ (0, 0) ]) ?(finals = [ (0, 1) ]) () =
    Mfsa.create ~n_states ~n_fsas:1 ~transitions ~inits ~finals
      ~patterns:[| "a" |] ()
  in
  check Alcotest.bool "well-formed" true (Mfsa.validate (mk ()) = Ok ());
  Alcotest.check_raises "bad state"
    (Invalid_argument "Mfsa.create: destination state 5 out of range [0,2)")
    (fun () -> ignore (mk ~transitions:[ (0, C.singleton 'a', 5, [ 0 ]) ] ()));
  Alcotest.check_raises "empty class"
    (Invalid_argument "Mfsa.create: empty character class") (fun () ->
      ignore (mk ~transitions:[ (0, C.empty, 1, [ 0 ]) ] ()));
  Alcotest.check_raises "empty belonging"
    (Invalid_argument "Mfsa.create: empty belonging set") (fun () ->
      ignore (mk ~transitions:[ (0, C.singleton 'a', 1, []) ] ()));
  Alcotest.check_raises "missing initial"
    (Invalid_argument "Mfsa.create: FSA 0 has no initial state") (fun () ->
      ignore (mk ~inits:[] ()));
  Alcotest.check_raises "double initial"
    (Invalid_argument "Mfsa.create: FSA 0 has two initial states") (fun () ->
      ignore (mk ~inits:[ (0, 0); (0, 1) ] ()))

let test_compression_metric () =
  check (Alcotest.float 1e-9) "half" 50. (Mfsa.states_compression ~before:10 ~after:5);
  check (Alcotest.float 1e-9) "none" 0. (Mfsa.states_compression ~before:10 ~after:10);
  check (Alcotest.float 1e-9) "empty" 0. (Mfsa.states_compression ~before:0 ~after:0)

let test_pp_coo () =
  let z = Merge.merge [| fsa_of "ab"; fsa_of "ac" |] in
  let out = Format.asprintf "%a" Mfsa.pp_coo z in
  let lines = String.split_on_char '\n' (String.trim out) in
  check Alcotest.int "four table rows" 4 (List.length lines);
  List.iter2
    (fun label line ->
      check Alcotest.bool (label ^ " row present") true
        (String.length line > 4 && String.sub line 0 3 = label))
    [ "bel"; "row"; "col"; "idx" ]
    lines;
  (* The shared a-transition shows both belongings. *)
  check Alcotest.bool "shared belonging rendered" true
    (let rec contains i =
       i + 3 <= String.length out
       && (String.sub out i 3 = "0,1" || contains (i + 1))
     in
     contains 0)

let test_cc_stats () =
  let z = Mfsa.of_fsa (fsa_of "[ab]c") in
  check Alcotest.(pair int int) "one CC of length 2" (1, 2) (Mfsa.cc_stats z)

(* --------------------------------------------------------- Merging *)

let test_merge_identical () =
  (* Outcome (c) of §III-A: identical automata only update belongings. *)
  let a = fsa_of "abc" and b = fsa_of "abc" in
  let z = Merge.merge [| a; b |] in
  check Alcotest.int "no state growth" a.Nfa.n_states z.Mfsa.n_states;
  check Alcotest.int "no transition growth" (Nfa.n_transitions a) (Mfsa.n_transitions z);
  Array.iter
    (fun bel -> check Alcotest.(list int) "bel = {0,1}" [ 0; 1 ] (Bitset.to_list bel))
    z.Mfsa.bel

let test_merge_disjoint () =
  (* Outcome (a): nothing shared, the incoming FSA is copied intact. *)
  let a = fsa_of "abc" and b = fsa_of "xyz" in
  let z = Merge.merge [| a; b |] in
  check Alcotest.int "states add up" (a.Nfa.n_states + b.Nfa.n_states) z.Mfsa.n_states;
  check Alcotest.int "transitions add up"
    (Nfa.n_transitions a + Nfa.n_transitions b)
    (Mfsa.n_transitions z);
  Array.iter
    (fun bel -> check Alcotest.int "singleton belongings" 1 (Bitset.cardinal bel))
    z.Mfsa.bel

let test_merge_shared_prefix () =
  (* Outcome (b): the common prefix "ab" is stored once. *)
  let a = fsa_of "abc" and b = fsa_of "abd" in
  let z = Merge.merge [| a; b |] in
  check Alcotest.bool "fewer than the sum" true
    (z.Mfsa.n_states < a.Nfa.n_states + b.Nfa.n_states);
  let shared =
    Array.to_list z.Mfsa.bel |> List.filter (fun b -> Bitset.cardinal b = 2)
  in
  check Alcotest.int "two shared transitions" 2 (List.length shared)

let test_merge_stats () =
  let stats = ref { Merge.seeds = 0; chains = 0; merged_transitions = 0; merged_states = 0 } in
  let z = Merge.merge ~stats [| fsa_of "abc"; fsa_of "abd" |] in
  ignore z;
  check Alcotest.bool "found a seed" true (!stats.Merge.seeds >= 1);
  check Alcotest.int "two merged transitions" 2 !stats.Merge.merged_transitions;
  check Alcotest.bool "merged states counted" true (!stats.Merge.merged_states >= 3)

let test_merge_rejects () =
  Alcotest.check_raises "empty set" (Invalid_argument "Merge.merge: empty FSA set")
    (fun () -> ignore (Merge.merge [||]));
  Alcotest.check_raises "eps"
    (Invalid_argument "Merge.merge: automata must be ε-free") (fun () ->
      ignore (Merge.merge [| Mfsa_automata.Thompson.build_pattern "a|b" |]))

let test_merge_groups_partitioning () =
  let fsas = Array.init 7 (fun i -> fsa_of (String.make (i + 1) 'a')) in
  let groups = Merge.merge_groups ~m:3 fsas in
  check Alcotest.int "ceil(7/3) groups" 3 (List.length groups);
  check Alcotest.(list int) "group sizes" [ 3; 3; 1 ]
    (List.map (fun z -> z.Mfsa.n_fsas) groups);
  check Alcotest.int "m=0 means all" 1 (List.length (Merge.merge_groups ~m:0 fsas));
  check Alcotest.int "m>n means all" 1 (List.length (Merge.merge_groups ~m:100 fsas));
  check Alcotest.int "m=1 means none" 7 (List.length (Merge.merge_groups ~m:1 fsas));
  Alcotest.check_raises "negative m"
    (Invalid_argument "Merge.merge_groups: negative merging factor") (fun () ->
      ignore (Merge.merge_groups ~m:(-1) fsas));
  (* The edge cases must also assign the right rules to each group, in
     the original order. *)
  let pats = List.map (fun z -> Array.to_list z.Mfsa.patterns) in
  let all = List.init 7 (fun i -> String.make (i + 1) 'a') in
  check
    Alcotest.(list (list string))
    "m=0 packs everything into one MFSA, in order" [ all ]
    (pats (Merge.merge_groups ~m:0 fsas));
  check
    Alcotest.(list (list string))
    "m>n behaves exactly like m=0" [ all ]
    (pats (Merge.merge_groups ~m:100 fsas));
  check
    Alcotest.(list (list string))
    "m=1 keeps each rule alone, in order"
    (List.map (fun p -> [ p ]) all)
    (pats (Merge.merge_groups ~m:1 fsas));
  List.iter
    (fun z ->
      check Alcotest.bool "singleton groups are trivial MFSAs" true
        (z.Mfsa.n_fsas = 1 && Mfsa.validate z = Ok ()))
    (Merge.merge_groups ~m:1 fsas);
  Alcotest.check_raises "empty set"
    (Invalid_argument "Merge.merge_groups: empty FSA set") (fun () ->
      ignore (Merge.merge_groups ~m:3 [||]))

let test_merge_preserves_patterns_and_anchors () =
  let a = fsa_of "abc" in
  let anch =
    Mfsa_automata.Multiplicity.fuse
      (Mfsa_automata.Epsilon.remove
         (Mfsa_automata.Thompson.build (P.parse_exn "^abd$")))
  in
  let z = Merge.merge [| a; anch |] in
  check Alcotest.(array string) "patterns" [| "abc"; "^abd$" |] z.Mfsa.patterns;
  check Alcotest.(array bool) "anchored starts" [| false; true |] z.Mfsa.anchored_start;
  check Alcotest.(array bool) "anchored ends" [| false; true |] z.Mfsa.anchored_end

(* Projection must recover each input automaton up to isomorphism; we
   check language agreement on a battery of strings plus state count. *)
let assert_projection_faithful fsas z =
  Array.iteri
    (fun j a ->
      let p = Mfsa.project z j in
      check Alcotest.int
        (Printf.sprintf "fsa %d state count" j)
        a.Nfa.n_states p.Nfa.n_states;
      check Alcotest.int
        (Printf.sprintf "fsa %d transition count" j)
        (Nfa.n_transitions a) (Nfa.n_transitions p);
      List.iter
        (fun s ->
          check Alcotest.bool
            (Printf.sprintf "fsa %d lang on %S" j s)
            (Sim.accepts a s) (Sim.accepts p s))
        [ ""; "a"; "ab"; "abc"; "abd"; "xyz"; "abcd"; "ba"; "aabbcc" ])
    fsas

let test_project () =
  let fsas = [| fsa_of "abc"; fsa_of "abd"; fsa_of "xyz"; fsa_of "a(b|c)*" |] in
  let z = Merge.merge fsas in
  assert_projection_faithful fsas z;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mfsa.project: FSA id out of range") (fun () ->
      ignore (Mfsa.project z 4))

(* Incrementally extending a frozen MFSA must keep every projection
   faithful, exactly as the one-shot merge does. *)
let test_merge_into_projections () =
  let fsas = [| fsa_of "abc"; fsa_of "abd"; fsa_of "xyz"; fsa_of "a(b|c)*" |] in
  let z =
    Array.fold_left
      (fun z a ->
        match z with
        | None -> Some (Mfsa.of_fsa a)
        | Some z -> Some (Merge.merge_into z a z.Mfsa.n_fsas))
      None fsas
    |> Option.get
  in
  check Alcotest.bool "validates" true (Mfsa.validate z = Ok ());
  assert_projection_faithful fsas z

(* Retirement + compaction must leave the survivors' projections
   isomorphic to the original inputs (shifted down by one id). *)
let test_retire_projections () =
  let fsas = [| fsa_of "abc"; fsa_of "abd"; fsa_of "xyz"; fsa_of "a(b|c)*" |] in
  let z = Merge.merge fsas in
  let z' = Option.get (Mfsa.retire z 1) in
  check Alcotest.bool "validates after retire" true (Mfsa.validate z' = Ok ());
  assert_projection_faithful [| fsas.(0); fsas.(2); fsas.(3) |] z';
  (* The original automaton is untouched. *)
  assert_projection_faithful fsas z

(* ------------------------------------------- Paper worked examples *)

let test_paper_figure2 () =
  (* Fig. 2: a1 recognises a[gj](lm|cd), a2 recognises kja[gj]cd; the
     merged MFSA shares the a-[gj] prefix sub-path and the cd tail. *)
  let a1 = fsa_of "a[gj](lm|cd)" and a2 = fsa_of "kja[gj]cd" in
  let z = Merge.merge [| a1; a2 |] in
  check Alcotest.bool "compression happened" true
    (z.Mfsa.n_states < a1.Nfa.n_states + a2.Nfa.n_states);
  let eng = Im.compile z in
  (* Language 1 strings *)
  check Alcotest.(list int) "aglm matches a1" [ 4 ] (match_ends_of eng ~fsa:0 "aglm");
  check Alcotest.(list int) "ajcd matches a1" [ 4 ] (match_ends_of eng ~fsa:0 "ajcd");
  (* Language 2 strings *)
  check Alcotest.(list int) "kjagcd matches a2" [ 6 ] (match_ends_of eng ~fsa:1 "kjagcd");
  (* The cross-language string of §III-B must NOT match: *)
  check Alcotest.(list int) "kjaglm matches nothing for a2" []
    (match_ends_of eng ~fsa:1 "kjaglm");
  check Alcotest.int "kjaglm: a1 only matches nothing extra" 0
    (List.length (match_ends_of eng ~fsa:0 "kjag"))

let test_paper_figure3 () =
  (* Fig. 3: a1 = bcdegh, a2 = def. s1 = degh must yield no match
     (a2 dies at the g branch); s2 = bcdef must match a2 (via the
     shared de sub-path) and not a1. *)
  let a1 = fsa_of "bcdegh" and a2 = fsa_of "def" in
  let z = Merge.merge [| a1; a2 |] in
  let eng = Im.compile z in
  check Alcotest.int "degh: no matches at all" 0 (List.length (Im.run eng "degh"));
  check Alcotest.(list int) "bcdef matches a2 at 5" [ 5 ]
    (match_ends_of eng ~fsa:1 "bcdef");
  check Alcotest.(list int) "bcdef does not match a1" []
    (match_ends_of eng ~fsa:0 "bcdef");
  check Alcotest.(list int) "bcdegh matches a1 at 6" [ 6 ]
    (match_ends_of eng ~fsa:0 "bcdegh")

let test_paper_figure5a () =
  (* Fig. 5a: expanded loops maximise mergeable transitions. Merging
     "fgab" with "(fg)+ab" shares the whole f-g-a-b chain when the
     plus is expanded into fg(fg)*, and strictly less when the loop is
     kept compressed. *)
  let fsa_with ~expand_plus src =
    Mfsa_automata.Multiplicity.fuse
      (Mfsa_automata.Epsilon.remove
         (Mfsa_automata.Thompson.build
            (Mfsa_automata.Loops.expand_rule ~expand_plus (P.parse_exn src))))
  in
  let merged_transitions ~expand_plus =
    let stats =
      ref { Merge.seeds = 0; chains = 0; merged_transitions = 0; merged_states = 0 }
    in
    ignore
      (Merge.merge ~stats [| fsa_with ~expand_plus "fgab"; fsa_with ~expand_plus "(fg)+ab" |]);
    !stats.Merge.merged_transitions
  in
  let expanded = merged_transitions ~expand_plus:true in
  let compressed = merged_transitions ~expand_plus:false in
  check Alcotest.bool
    (Printf.sprintf "expanded (%d) shares more than compressed (%d)" expanded
       compressed)
    true (expanded > compressed);
  (* Language is identical either way. *)
  let eng ep = Im.compile (Merge.merge [| fsa_with ~expand_plus:ep "fgab"; fsa_with ~expand_plus:ep "(fg)+ab" |]) in
  List.iter
    (fun input ->
      check Alcotest.int
        (Printf.sprintf "same matches on %S" input)
        (List.length (Im.run (eng true) input))
        (List.length (Im.run (eng false) input)))
    [ "fgab"; "fgfgab"; "fgfgfgab"; "fab"; "gab" ]

let test_paper_figure6 () =
  (* Fig. 6 / §V: merging (ad|cb)ab and a(b|c); input acbab yields
     three matches: ac and ab for a2 (ends 2 and 5), cbab for a1
     (end 5). *)
  let a1 = fsa_of "(ad|cb)ab" and a2 = fsa_of "a(b|c)" in
  let z = Merge.merge [| a1; a2 |] in
  let eng = Im.compile z in
  check Alcotest.(list int) "a1 matches cbab" [ 5 ] (match_ends_of eng ~fsa:0 "acbab");
  check Alcotest.(list int) "a2 matches ac and ab" [ 2; 5 ]
    (match_ends_of eng ~fsa:1 "acbab");
  check Alcotest.int "exactly three events" 3 (List.length (Im.run eng "acbab"))

let test_paper_section3b_unwanted_language () =
  (* §III-B: without the activation function z1,2 of Fig. 2 would
     recognise s = kjaglm which belongs to neither language. With it,
     no FSA reports a match on that string. *)
  let a1 = fsa_of "a[gj](lm|cd)" and a2 = fsa_of "kja[gj]cd" in
  let z = Merge.merge [| a1; a2 |] in
  let eng = Im.compile z in
  let events = Im.run eng "kjaglm" in
  (* a1 legitimately matches the suffix aglm (unanchored matching!),
     ending at 6; a2 must not match. *)
  List.iter
    (fun e ->
      check Alcotest.int "only FSA 0 may match (unanchored suffix)" 0 e.Im.fsa)
    events

(* Merged matching must agree with per-FSA matching on handpicked
   regression rulesets (the property suite covers random ones). *)
let assert_equivalent rules inputs =
  let fsas = Array.of_list (List.map fsa_of rules) in
  let z = Merge.merge fsas in
  let eng = Im.compile z in
  List.iter
    (fun input ->
      Array.iteri
        (fun j a ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%S on %S" a.Nfa.pattern input)
            (Sim.match_ends a input)
            (match_ends_of eng ~fsa:j input))
        fsas)
    inputs

let test_equivalence_regressions () =
  assert_equivalent [ "abc"; "abd"; "bcd" ] [ "abcd"; "abdbcd"; "aabbcc"; "" ];
  assert_equivalent [ "a*"; "a+b" ] [ "aaab"; "b"; "ab" ];
  assert_equivalent [ "[ab]c"; "ac|bc" ] [ "ac"; "bc"; "abacbc" ];
  assert_equivalent [ "ab"; "ba" ] [ "abab"; "baba" ];
  assert_equivalent [ "a{2,3}"; "aa" ] [ "aaaa"; "a" ];
  assert_equivalent [ "x(y|z)*"; "xy"; "xz" ] [ "xyzzy"; "xx" ]

let test_merge_many_same_prefix () =
  (* A family of rules sharing one long prefix compresses to roughly
     prefix + per-rule tails. *)
  let rules = List.init 10 (fun i -> Printf.sprintf "longprefix%c" (Char.chr (97 + i))) in
  let fsas = Array.of_list (List.map fsa_of rules) in
  let z = Merge.merge fsas in
  let sum = Array.fold_left (fun acc a -> acc + a.Nfa.n_states) 0 fsas in
  check Alcotest.bool "compresses at least 3x" true (z.Mfsa.n_states * 3 < sum);
  assert_projection_faithful fsas z

let () =
  Alcotest.run "mfsa"
    [
      ( "model",
        [
          Alcotest.test_case "of_fsa" `Quick test_of_fsa;
          Alcotest.test_case "of_fsa rejects eps" `Quick test_of_fsa_rejects_eps;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "compression metric" `Quick test_compression_metric;
          Alcotest.test_case "cc stats" `Quick test_cc_stats;
          Alcotest.test_case "Fig. 2 COO layout" `Quick test_pp_coo;
        ] );
      ( "merge",
        [
          Alcotest.test_case "identical automata" `Quick test_merge_identical;
          Alcotest.test_case "disjoint automata" `Quick test_merge_disjoint;
          Alcotest.test_case "shared prefix" `Quick test_merge_shared_prefix;
          Alcotest.test_case "stats" `Quick test_merge_stats;
          Alcotest.test_case "rejects bad input" `Quick test_merge_rejects;
          Alcotest.test_case "merge_groups partitioning" `Quick test_merge_groups_partitioning;
          Alcotest.test_case "patterns and anchors" `Quick test_merge_preserves_patterns_and_anchors;
          Alcotest.test_case "projection" `Quick test_project;
          Alcotest.test_case "incremental merge projections" `Quick
            test_merge_into_projections;
          Alcotest.test_case "retirement projections" `Quick
            test_retire_projections;
          Alcotest.test_case "many shared prefixes" `Quick test_merge_many_same_prefix;
        ] );
      ( "paper-examples",
        [
          Alcotest.test_case "figure 2" `Quick test_paper_figure2;
          Alcotest.test_case "figure 3" `Quick test_paper_figure3;
          Alcotest.test_case "figure 5a" `Quick test_paper_figure5a;
          Alcotest.test_case "figure 6" `Quick test_paper_figure6;
          Alcotest.test_case "§III-B unwanted language" `Quick
            test_paper_section3b_unwanted_language;
          Alcotest.test_case "equivalence regressions" `Quick test_equivalence_regressions;
        ] );
    ]
