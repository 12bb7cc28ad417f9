(* Unit and property tests for the comparison baselines and the
   future-work extensions: Aho–Corasick, partial character-class
   merging (Ccsplit) and similarity clustering (Cluster). *)

module AC = Mfsa_engine.Aho_corasick
module Ccsplit = Mfsa_paper.Ccsplit
module Cluster = Mfsa_paper.Cluster
module Merge = Mfsa_model.Merge
module Mfsa = Mfsa_model.Mfsa
module Im = Mfsa_engine.Imfant
module Nfa = Mfsa_automata.Nfa
module Sim = Mfsa_automata.Simulate
module C = Mfsa_charset.Charclass
module P = Mfsa_frontend.Parser
module Rulegen = Mfsa_datasets.Rulegen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

(* ---------------------------------------------------- Aho-Corasick *)

let test_ac_single_pattern () =
  let t = AC.build [| "ab" |] in
  check Alcotest.(list (pair int int)) "two hits"
    [ (0, 2); (0, 6) ]
    (List.map (fun e -> (e.AC.pattern, e.AC.end_pos)) (AC.run t "abcdab"))

let test_ac_overlapping () =
  let t = AC.build [| "aa" |] in
  check Alcotest.int "overlaps counted" 3 (AC.count t "aaaa")

let test_ac_nested_patterns () =
  (* "he", "she", "his", "hers" — the textbook example. *)
  let t = AC.build [| "he"; "she"; "his"; "hers" |] in
  let events = AC.run t "ushers" in
  check Alcotest.(list (pair int int)) "she, he, hers"
    [ (1, 4); (0, 4); (3, 6) ]
    (List.map (fun e -> (e.AC.pattern, e.AC.end_pos)) events
    |> List.sort (fun (p1, e1) (p2, e2) ->
           if e1 <> e2 then Int.compare e1 e2 else Int.compare p2 p1))

let test_ac_per_pattern () =
  (* "abab": "a" ends at 1,3; "ab" at 2,4; "b" at 2,4. *)
  let t = AC.build [| "a"; "ab"; "b" |] in
  check Alcotest.(array int) "per-pattern counts" [| 2; 2; 2 |]
    (AC.count_per_pattern t "abab")

let test_ac_duplicates () =
  let t = AC.build [| "x"; "x" |] in
  check Alcotest.int "both ids fire" 4 (AC.count t "xx")

let test_ac_empty_pattern_rejected () =
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Aho_corasick.build: empty pattern") (fun () ->
      ignore (AC.build [| "ok"; "" |]))

let test_ac_binary () =
  let t = AC.build [| "\x00\xff"; "\xff\x00" |] in
  check Alcotest.int "binary patterns" 3 (AC.count t "\x00\xff\x00\xff")

let test_ac_matches_mfsa_on_literals () =
  (* On a literal-only ruleset AC and the MFSA must agree exactly. *)
  let patterns = [| "abc"; "abd"; "bc"; "cab" |] in
  let t = AC.build patterns in
  let fsas = Array.map (fun p -> fsa_of (Rulegen.escape_literal p)) patterns in
  let z = Merge.merge fsas in
  let eng = Im.compile z in
  let input = "abcabdcabcbc" in
  let ac_events =
    AC.run t input |> List.map (fun e -> (e.AC.pattern, e.AC.end_pos))
  in
  let mfsa_events =
    Im.run eng input |> List.map (fun e -> (e.Im.fsa, e.Im.end_pos))
  in
  let norm = List.sort compare in
  check
    Alcotest.(list (pair int int))
    "identical match sets" (norm ac_events) (norm mfsa_events)

let prop_ac_equals_simulator =
  qtest
    (QCheck2.Test.make ~count:200 ~name:"aho-corasick = per-literal oracle"
       QCheck2.Gen.(
         pair
           (list_size (int_range 1 5)
              (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 1 4)))
           (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 30)))
       (fun (patterns, input) ->
         let patterns = Array.of_list patterns in
         let t = AC.build patterns in
         let expected j =
           let a = fsa_of (Rulegen.escape_literal patterns.(j)) in
           Sim.match_ends a input
         in
         let events = AC.run t input in
         Array.for_all
           (fun j ->
             List.filter_map
               (fun e -> if e.AC.pattern = j then Some e.AC.end_pos else None)
               events
             = expected j)
           (Array.init (Array.length patterns) Fun.id)))

(* ------------------------------------------------------ Decomposed *)

module D = Mfsa_paper.Decomposed
module In = Mfsa_paper.Infant
module Ast = Mfsa_frontend.Ast

let test_literal_prefix () =
  let lp src = D.literal_prefix (P.parse_exn src).Ast.ast in
  List.iter
    (fun (src, expected) ->
      check Alcotest.string (Printf.sprintf "prefix of %S" src) expected (lp src))
    [
      ("abc", "abc");
      ("abc|abd", "ab");
      ("ab(c|d)e", "ab");
      ("a*bc", "");
      ("ab*c", "a");
      ("ab+c", "ab");
      ("GET /[a-z]+", "GET /");
      ("(ab){2}x", "ababx");
      ("(ab){2}", "abab");
      ("(a|b)cd", "");
      ("[ab]cd", "");
      ("a[bc]d", "a");
      ("(abc)", "abc");
      ("abc?d", "ab");
      ("", "");
    ]

let test_decomposed_classification () =
  let fsas = Array.map fsa_of [| "hello.*x"; "[ab]+"; "wide[0-9]{2}" |] in
  let t = D.compile fsas in
  check Alcotest.int "two prefiltered" 2 (D.n_prefiltered t);
  check Alcotest.int "one fallback" 1 (D.n_fallback t)

let test_decomposed_matches () =
  let patterns = [| "hello.*world"; "GET /[a-z]+"; "[0-9]+x" |] in
  let fsas = Array.map fsa_of patterns in
  let t = D.compile fsas in
  let input = "say hello cruel world GET /abc then 42x" in
  let expected =
    Array.to_list fsas
    |> List.mapi (fun i a ->
           List.map (fun e -> (i, e)) (In.run (In.compile a) input))
    |> List.concat
    |> List.sort (fun (r1, e1) (r2, e2) ->
           if e1 <> e2 then Int.compare e1 e2 else Int.compare r1 r2)
  in
  check
    Alcotest.(list (pair int int))
    "exact match set" expected
    (List.map (fun e -> (e.D.rule, e.D.end_pos)) (D.run t input));
  check Alcotest.int "count" (List.length expected) (D.count t input)

let test_decomposed_overlapping_hits () =
  (* Repeated prefixes must not duplicate events. *)
  let fsas = Array.map fsa_of [| "abab" |] in
  let t = D.compile fsas in
  check
    Alcotest.(list (pair int int))
    "dedup" [ (0, 4); (0, 6) ]
    (List.map (fun e -> (e.D.rule, e.D.end_pos)) (D.run t "ababab"))

let prop_decomposed_equals_infant =
  qtest
    (QCheck2.Test.make ~count:100
       ~name:"decomposed engine = union of per-rule iNFAnt"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let fsas =
           Array.of_list
             (List.map
                (fun r ->
                  Mfsa_automata.Multiplicity.fuse
                    (Mfsa_automata.Epsilon.remove
                       (Mfsa_automata.Thompson.build
                          (Mfsa_automata.Simplify.char_classes_rule
                             (Mfsa_automata.Loops.expand_rule r)))))
                rules)
         in
         let t = D.compile fsas in
         let expected =
           Array.to_list fsas
           |> List.mapi (fun i a ->
                  List.map (fun e -> (i, e)) (In.run (In.compile a) input))
           |> List.concat |> List.sort compare
         in
         List.sort compare
           (List.map (fun e -> (e.D.rule, e.D.end_pos)) (D.run t input))
         = expected))

let prop_literal_prefix_sound =
  qtest
    (QCheck2.Test.make ~count:150
       ~name:"literal_prefix: every accepted string starts with it"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ~max_rules:2 ()) Gen_re.input)
       (fun (rules, input) ->
         let rule = List.hd rules in
         let prefix = D.literal_prefix rule.Ast.ast in
         let a = Mfsa_automata.Thompson.build rule in
         (not (Mfsa_automata.Simulate.accepts a input))
         || String.length input >= String.length prefix
            && String.sub input 0 (String.length prefix) = prefix))

(* --------------------------------------------------------- Ccsplit *)

let test_atoms_paper_example () =
  (* §VI-A: classes [abce] and [bcd] have atoms [bc], [ae], [d]. *)
  let a1 = fsa_of "[abce]" and a2 = fsa_of "[bcd]" in
  let atoms = Ccsplit.atoms [| a1; a2 |] in
  let specs = List.sort String.compare (List.map C.to_spec atoms) in
  check Alcotest.(list string) "three atoms" [ "[ae]"; "[bc]"; "d" ] specs

let test_atoms_disjoint_cover () =
  let fsas = [| fsa_of "[a-f]x"; fsa_of "[d-h]y"; fsa_of "z" |] in
  let atoms = Ccsplit.atoms fsas in
  (* pairwise disjoint *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check Alcotest.bool "disjoint" true (C.disjoint a b))
        atoms)
    atoms;
  (* cover = union of all used classes *)
  let cover = List.fold_left C.union C.empty atoms in
  check Alcotest.bool "covers a-h,x,y,z" true
    (C.subset (C.of_string "abcdefghxyz") cover)

let test_atoms_empty_ruleset_of_eps () =
  check Alcotest.int "no transitions, no atoms" 0
    (List.length (Ccsplit.atoms [| fsa_of "" |]))

let test_split_improves_merging () =
  (* The paper's motivating case: [abce] vs [bcd] share only [bc];
     plain merging cannot share the transition, split merging can. *)
  let rules () = [| fsa_of "x[abce]y"; fsa_of "x[bcd]y" |] in
  let plain = Merge.merge (rules ()) in
  let split = Merge.merge (Ccsplit.split (rules ())) in
  let shared z =
    Array.to_list z.Mfsa.bel
    |> List.filter (fun b -> Mfsa_util.Bitset.cardinal b = 2)
    |> List.length
  in
  check Alcotest.bool "split shares more transitions" true
    (shared split > shared plain)

let test_split_preserves_language () =
  let fsas = [| fsa_of "[abce]k"; fsa_of "[bcd]k"; fsa_of "a[xy]*" |] in
  let split = Ccsplit.split fsas in
  Array.iteri
    (fun i a ->
      List.iter
        (fun w ->
          check Alcotest.bool
            (Printf.sprintf "fsa %d on %S" i w)
            (Sim.accepts a w)
            (Sim.accepts split.(i) w))
        [ "ak"; "bk"; "ck"; "dk"; "ek"; "a"; "axy"; "k"; "" ])
    fsas

let test_split_rejects_eps () =
  Alcotest.check_raises "eps rejected"
    (Invalid_argument "Ccsplit.split: automata must be ε-free") (fun () ->
      ignore (Ccsplit.split [| Mfsa_automata.Thompson.build_pattern "a|b" |]))

let prop_split_preserves_matching =
  qtest
    (QCheck2.Test.make ~count:100
       ~name:"ccsplit: split ruleset matches like the original"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let fsas =
           Array.of_list
             (List.map
                (fun r ->
                  Mfsa_automata.Multiplicity.fuse
                    (Mfsa_automata.Epsilon.remove
                       (Mfsa_automata.Thompson.build
                          (Mfsa_automata.Simplify.char_classes_rule
                             (Mfsa_automata.Loops.expand_rule r)))))
                rules)
         in
         let z = Merge.merge (Ccsplit.split fsas) in
         let events = Im.run (Im.compile z) input in
         Array.for_all
           (fun j ->
             List.filter_map
               (fun e -> if e.Im.fsa = j then Some e.Im.end_pos else None)
               events
             = Sim.match_ends fsas.(j) input)
           (Array.init (Array.length fsas) Fun.id)))

(* --------------------------------------------------------- Cluster *)

let test_cluster_groups_similar () =
  let patterns = [| "aaaa1"; "bbbb1"; "aaaa2"; "bbbb2" |] in
  let groups = Cluster.group ~m:2 patterns in
  check Alcotest.int "two groups" 2 (List.length groups);
  (* Similar rules (same letter family) must land together. *)
  List.iter
    (fun g ->
      match g with
      | [ i; j ] ->
          check Alcotest.char "family grouped" patterns.(i).[0] patterns.(j).[0]
      | _ -> Alcotest.fail "expected pairs")
    groups

let test_cluster_partition () =
  let patterns = Array.init 11 (fun i -> Printf.sprintf "rule%d" i) in
  let groups = Cluster.group ~m:4 patterns in
  let all = List.concat groups |> List.sort Int.compare in
  check Alcotest.(list int) "exact partition" (List.init 11 Fun.id) all;
  List.iter
    (fun g -> check Alcotest.bool "size bound" true (List.length g <= 4))
    groups

let test_cluster_degenerate () =
  check Alcotest.int "m=0 one group" 1
    (List.length (Cluster.group ~m:0 [| "a"; "b"; "c" |]));
  check Alcotest.int "m>n one group" 1
    (List.length (Cluster.group ~m:10 [| "a"; "b" |]));
  Alcotest.check_raises "empty" (Invalid_argument "Cluster.group: empty ruleset")
    (fun () -> ignore (Cluster.group ~m:2 [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Cluster.group: negative merging factor") (fun () ->
      ignore (Cluster.group ~m:(-2) [| "a" |]))

let test_reorder () =
  let items = [| "x"; "y"; "z"; "w" |] in
  let permuted, groups = Cluster.reorder items [ [ 2; 0 ]; [ 3; 1 ] ] in
  check Alcotest.(array string) "permuted" [| "z"; "x"; "w"; "y" |] permuted;
  check Alcotest.(list (list int)) "renumbered" [ [ 0; 1 ]; [ 2; 3 ] ] groups

let test_cluster_improves_compression () =
  (* Interleave two families; sequential M=2 windows pair dissimilar
     rules, clustering pairs similar ones. *)
  let patterns =
    [| "prefixaaaa"; "wxyz0000"; "prefixbbbb"; "wxyz1111";
       "prefixcccc"; "wxyz2222" |]
  in
  let fsas = Array.map (fun p -> fsa_of p) patterns in
  let sequential = Merge.merge_groups ~m:2 fsas in
  let clustered = Cluster.merge_clustered ~m:2 fsas in
  let states zs = List.fold_left (fun acc z -> acc + z.Mfsa.n_states) 0 zs in
  check Alcotest.bool
    (Printf.sprintf "clustered %d < sequential %d states" (states clustered)
       (states sequential))
    true
    (states clustered < states sequential)

let prop_cluster_preserves_matching =
  qtest
    (QCheck2.Test.make ~count:80
       ~name:"cluster: clustered merging matches like separate FSAs"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let fsas =
           Array.of_list
             (List.map
                (fun r ->
                  Mfsa_automata.Multiplicity.fuse
                    (Mfsa_automata.Epsilon.remove
                       (Mfsa_automata.Thompson.build
                          (Mfsa_automata.Simplify.char_classes_rule
                             (Mfsa_automata.Loops.expand_rule r)))))
                rules)
         in
         let patterns = Array.map (fun a -> a.Nfa.pattern) fsas in
         let groups = Cluster.group ~m:2 patterns in
         let zs = Cluster.merge_clustered ~m:2 fsas in
         List.for_all2
           (fun g z ->
             let events = Im.run (Im.compile z) input in
             List.for_all
               (fun (local, original) ->
                 List.filter_map
                   (fun e -> if e.Im.fsa = local then Some e.Im.end_pos else None)
                   events
                 = Sim.match_ends fsas.(original) input)
               (List.mapi (fun local original -> (local, original)) g))
           groups zs))

let () =
  Alcotest.run "baselines"
    [
      ( "aho-corasick",
        [
          Alcotest.test_case "single pattern" `Quick test_ac_single_pattern;
          Alcotest.test_case "overlapping" `Quick test_ac_overlapping;
          Alcotest.test_case "textbook ushers" `Quick test_ac_nested_patterns;
          Alcotest.test_case "per-pattern counts" `Quick test_ac_per_pattern;
          Alcotest.test_case "duplicate patterns" `Quick test_ac_duplicates;
          Alcotest.test_case "empty pattern rejected" `Quick test_ac_empty_pattern_rejected;
          Alcotest.test_case "binary patterns" `Quick test_ac_binary;
          Alcotest.test_case "agrees with MFSA on literals" `Quick
            test_ac_matches_mfsa_on_literals;
          prop_ac_equals_simulator;
        ] );
      ( "decomposed",
        [
          Alcotest.test_case "literal prefixes" `Quick test_literal_prefix;
          Alcotest.test_case "classification" `Quick test_decomposed_classification;
          Alcotest.test_case "matches" `Quick test_decomposed_matches;
          Alcotest.test_case "overlapping hits dedup" `Quick
            test_decomposed_overlapping_hits;
          prop_decomposed_equals_infant;
          prop_literal_prefix_sound;
        ] );
      ( "ccsplit",
        [
          Alcotest.test_case "paper atom example" `Quick test_atoms_paper_example;
          Alcotest.test_case "atoms disjoint and covering" `Quick test_atoms_disjoint_cover;
          Alcotest.test_case "no transitions" `Quick test_atoms_empty_ruleset_of_eps;
          Alcotest.test_case "split improves merging" `Quick test_split_improves_merging;
          Alcotest.test_case "split preserves language" `Quick test_split_preserves_language;
          Alcotest.test_case "split rejects eps" `Quick test_split_rejects_eps;
          prop_split_preserves_matching;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "groups similar rules" `Quick test_cluster_groups_similar;
          Alcotest.test_case "exact partition" `Quick test_cluster_partition;
          Alcotest.test_case "degenerate cases" `Quick test_cluster_degenerate;
          Alcotest.test_case "reorder" `Quick test_reorder;
          Alcotest.test_case "improves compression" `Quick test_cluster_improves_compression;
          prop_cluster_preserves_matching;
        ] );
    ]
