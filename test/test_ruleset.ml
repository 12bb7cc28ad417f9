(* Unit and property tests for the high-level Ruleset facade. *)

module R = Mfsa_core.Ruleset
module Pl = Mfsa_core.Pipeline
module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module Ast = Mfsa_frontend.Ast
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Cluster = Mfsa_paper.Cluster
module Ccsplit = Mfsa_paper.Ccsplit

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let event = Alcotest.(pair int int)

let events_of rs input =
  List.map (fun e -> (e.R.rule, e.R.end_pos)) (R.run rs input)

let by_end (r1, e1) (r2, e2) =
  if e1 <> e2 then Int.compare e1 e2 else Int.compare r1 r2

let oracle patterns input =
  (* Per-rule reference matching through the single-FSA pipeline. *)
  Array.to_list patterns
  |> List.concat_map (fun (i, p) ->
         match Pl.build_fsa p with
         | Ok a -> List.map (fun e -> (i, e)) (Sim.match_ends a input)
         | Error _ -> [])
  |> List.sort by_end

let indexed patterns = Array.mapi (fun i p -> (i, p)) patterns

(* The facade's grouping done by hand: merge each group of original
   rule indices, run iMFAnt on it, and report events against the
   original indices. The paper's grouping passes (similarity
   clustering, partial class splitting) plug in here. *)
let events_of_groups fsas groups input =
  List.concat_map
    (fun g ->
      let g = Array.of_list g in
      let z = Merge.merge (Array.map (fun i -> fsas.(i)) g) in
      List.map (fun e -> (g.(e.Im.fsa), e.Im.end_pos)) (Im.run (Im.compile z) input))
    groups
  |> List.sort by_end

let sequential ~m n =
  List.init ((n + m - 1) / m) (fun g ->
      List.init (min m (n - (g * m))) (fun k -> (g * m) + k))

let rules = [| "abc"; "abd"; "x[yz]+"; "ab"; "bc" |]

let test_compile_and_run () =
  let rs = R.compile_exn rules in
  check Alcotest.int "n_rules" 5 (R.n_rules rs);
  check Alcotest.int "one mfsa" 1 (R.n_mfsas rs);
  check Alcotest.(array string) "patterns preserved" rules (R.patterns rs);
  let input = "abcabdxyz" in
  check (Alcotest.list event) "matches oracle"
    (oracle (indexed rules) input)
    (events_of rs input)

let test_merging_factor_grouping () =
  let rs = R.compile_exn ~m:2 rules in
  check Alcotest.int "ceil(5/2) mfsas" 3 (R.n_mfsas rs);
  let input = "abcabdxyzbc" in
  check (Alcotest.list event) "grouped still matches oracle"
    (oracle (indexed rules) input)
    (events_of rs input)

let test_clustered_preserves_global_indices () =
  (* Interleaved families: clustering permutes the rules into
     non-sequential groups, but match events must still carry the
     original indices. *)
  let patterns = [| "aaaa1"; "zzzz1"; "aaaa2"; "zzzz2" |] in
  let groups = Cluster.group ~m:2 patterns in
  check Alcotest.bool "clustering regroups" true
    (groups <> sequential ~m:2 (Array.length patterns));
  let input = "xxaaaa1yyzzzz2" in
  check (Alcotest.list event) "clustered matches oracle"
    (oracle (indexed patterns) input)
    (events_of_groups (Result.get_ok (Pl.build_fsas patterns)) groups input)

let test_ccsplit_preserves_matching () =
  let patterns = [| "x[abce]y"; "x[bcd]y" |] in
  let fsas = Ccsplit.split (Result.get_ok (Pl.build_fsas patterns)) in
  let input = "xbyxdyxay" in
  check (Alcotest.list event) "cc-split matches oracle"
    (oracle (indexed patterns) input)
    (events_of_groups fsas [ [ 0; 1 ] ] input)

let test_counts () =
  let rs = R.compile_exn [| "a"; "aa" |] in
  check Alcotest.(array int) "per rule" [| 3; 2 |] (R.count_per_rule rs "aaa");
  check Alcotest.int "total" 5 (R.count rs "aaa")

let test_threads_equivalent () =
  let rs = R.compile_exn ~m:2 rules in
  let input = "abcabdxyzbcab" in
  check (Alcotest.list event) "threads=3 same as threads=1"
    (events_of rs input)
    (List.map (fun e -> (e.R.rule, e.R.end_pos)) (R.run ~threads:3 rs input))

let test_anml_roundtrip () =
  let rs = R.compile_exn ~m:2 rules in
  match R.of_anml (R.to_anml rs) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok rs' ->
      check Alcotest.int "rules preserved" (R.n_rules rs) (R.n_rules rs');
      check Alcotest.(array string) "patterns preserved" (R.patterns rs)
        (R.patterns rs');
      let input = "abcabdxyz" in
      check (Alcotest.list event) "same matches" (events_of rs input)
        (events_of rs' input)

let test_of_anml_errors () =
  (match R.of_anml "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match R.of_anml "<automata-network mfsa-count=\"0\"></automata-network>" with
  | Error msg ->
      check Alcotest.string "empty document"
        "Ruleset.of_anml: document contains no MFSA" msg
  | Ok _ -> Alcotest.fail "expected error"

let test_compile_errors () =
  (match R.compile [| "ok"; "(bad" |] with
  | Error e -> check Alcotest.int "index" 1 e.Pl.rule_index
  | Ok _ -> Alcotest.fail "expected error");
  Alcotest.check_raises "compile_exn"
    (Pl.Compile_error
       {
         rule_index = 1;
         pattern = "(bad";
         message = "at offset 0: unmatched '('";
       })
    (fun () -> ignore (R.compile_exn [| "ok"; "(bad" |]))

let test_compression_reported () =
  let rs = R.compile_exn [| "prefixed1"; "prefixed2"; "prefixed3" |] in
  let cs, ct = R.compression rs in
  check Alcotest.bool "states compressed" true (cs > 30.);
  check Alcotest.bool "transitions compressed" true (ct > 0.);
  (* ANML-loaded matcher recomputes the baseline lazily. *)
  let rs' = Result.get_ok (R.of_anml (R.to_anml rs)) in
  let cs', _ = R.compression rs' in
  check (Alcotest.float 0.01) "same compression after reload" cs cs'

let test_streaming_facade () =
  let rs = R.compile_exn ~m:2 rules in
  let input = "abcabdxyzbcab" in
  let whole = events_of rs input in
  let s = R.session rs in
  let fed =
    List.concat_map
      (fun chunk -> R.feed s chunk)
      [ "abcab"; "dxy"; "zbcab" ]
  in
  let flushed = R.finish s in
  check (Alcotest.list event) "chunked equals whole" whole
    (List.map (fun e -> (e.R.rule, e.R.end_pos)) (fed @ flushed));
  R.reset s;
  let again = R.feed s input in
  check (Alcotest.list event) "reset replays" whole
    (List.map (fun e -> (e.R.rule, e.R.end_pos)) (again @ R.finish s))

let prop_facade_matches_oracle =
  qtest
    (QCheck2.Test.make ~count:60 ~name:"ruleset facade = per-rule oracle"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (gen_rules, input) ->
         let patterns =
           Array.of_list
             (List.map (fun r -> Format.asprintf "%a" Ast.pp_rule r) gen_rules)
         in
         match R.compile ~m:2 patterns with
         | Error _ -> QCheck2.assume_fail ()
         | Ok rs -> events_of rs input = oracle (indexed patterns) input))

let prop_extensions_match_plain =
  qtest
    (QCheck2.Test.make ~count:50
       ~name:"ruleset: cluster/ccsplit change nothing observable"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (gen_rules, input) ->
         let patterns =
           Array.of_list
             (List.map (fun r -> Format.asprintf "%a" Ast.pp_rule r) gen_rules)
         in
         match (R.compile ~m:2 patterns, Pl.build_fsas patterns) with
         | Error _, _ | _, Error _ -> QCheck2.assume_fail ()
         | Ok plain, Ok fsas ->
             let reference = events_of plain input in
             let clustered = Cluster.group ~m:2 patterns in
             let split = Ccsplit.split fsas in
             List.for_all
               (fun (fsas, groups) ->
                 events_of_groups fsas groups input = reference)
               [
                 (fsas, clustered);
                 (split, sequential ~m:2 (Array.length patterns));
                 (split, clustered);
               ]))

let () =
  Alcotest.run "ruleset"
    [
      ( "ruleset",
        [
          Alcotest.test_case "compile and run" `Quick test_compile_and_run;
          Alcotest.test_case "merging factor" `Quick test_merging_factor_grouping;
          Alcotest.test_case "clustered global indices" `Quick
            test_clustered_preserves_global_indices;
          Alcotest.test_case "cc-split" `Quick test_ccsplit_preserves_matching;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "thread equivalence" `Quick test_threads_equivalent;
          Alcotest.test_case "ANML roundtrip" `Quick test_anml_roundtrip;
          Alcotest.test_case "of_anml errors" `Quick test_of_anml_errors;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "compression" `Quick test_compression_reported;
          Alcotest.test_case "streaming facade" `Quick test_streaming_facade;
          prop_facade_matches_oracle;
          prop_extensions_match_plain;
        ] );
    ]
