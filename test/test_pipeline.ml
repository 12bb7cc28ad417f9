(* Unit tests for the compilation pipeline (Fig. 4) and the report
   helpers. *)

module Pl = Mfsa_core.Pipeline
module R = Mfsa_core.Report
module Mfsa = Mfsa_model.Mfsa
module Nfa = Mfsa_automata.Nfa
module Anml = Mfsa_anml.Anml
module Im = Mfsa_engine.Imfant

let check = Alcotest.check

let rules = [| "abc"; "abd"; "x[yz]+"; "k{2,3}w" |]

let test_compile_succeeds () =
  let c = Pl.compile_exn ~m:0 rules in
  check Alcotest.int "rules parsed" 4 (Array.length c.Pl.rules);
  check Alcotest.int "fsas built" 4 (Array.length c.Pl.fsas);
  check Alcotest.int "one mfsa at m=0" 1 (List.length c.Pl.mfsas);
  Array.iter
    (fun a -> check Alcotest.bool "eps-free" true (Nfa.is_eps_free a))
    c.Pl.fsas;
  List.iter
    (fun z -> check Alcotest.bool "valid mfsa" true (Mfsa.validate z = Ok ()))
    c.Pl.mfsas;
  check Alcotest.bool "anml generated" true (String.length c.Pl.anml > 0)

let test_compile_merging_factor () =
  let c = Pl.compile_exn ~m:2 rules in
  check Alcotest.int "two mfsas at m=2" 2 (List.length c.Pl.mfsas);
  let c = Pl.compile_exn ~m:1 rules in
  check Alcotest.int "four mfsas at m=1" 4 (List.length c.Pl.mfsas)

let test_compile_times_recorded () =
  let c = Pl.compile_exn rules in
  let t = c.Pl.times in
  List.iter
    (fun (name, v) -> check Alcotest.bool (name ^ " >= 0") true (v >= 0.))
    [
      ("frontend", t.Pl.frontend); ("conversion", t.Pl.conversion);
      ("optimization", t.Pl.optimization); ("merging", t.Pl.merging);
      ("backend", t.Pl.backend);
    ];
  check Alcotest.bool "total is the sum" true
    (abs_float
       (Pl.total t
       -. (t.Pl.frontend +. t.Pl.conversion +. t.Pl.optimization +. t.Pl.merging
          +. t.Pl.backend))
    < 1e-12)

let test_compile_error_reporting () =
  match Pl.compile [| "ok"; "(broken" |] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
      check Alcotest.int "index" 1 e.Pl.rule_index;
      check Alcotest.string "pattern" "(broken" e.Pl.pattern;
      check Alcotest.bool "message mentions paren" true
        (e.Pl.message <> "");
      check Alcotest.bool "to_string works" true
        (String.length (Pl.error_to_string e) > 0)

let test_compile_empty_ruleset () =
  match Pl.compile [||] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e -> check Alcotest.string "message" "empty ruleset" e.Pl.message

let test_compile_exn_raises () =
  Alcotest.check_raises "typed compile error"
    (Pl.Compile_error
       { rule_index = 0; pattern = "("; message = "at offset 0: unmatched '('" })
    (fun () -> ignore (Pl.compile_exn [| "(" |]));
  (* The registered printer renders the error for uncaught contexts. *)
  match Pl.compile_exn [| "(" |] with
  | exception Pl.Compile_error e ->
      check Alcotest.string "printer"
        "Mfsa_core.Pipeline.Compile_error: rule 0 ((): at offset 0: unmatched \
         '('"
        (Printexc.to_string (Pl.Compile_error e))
  | _ -> Alcotest.fail "expected Compile_error"

let test_anml_output_loads_and_runs () =
  let c = Pl.compile_exn ~m:2 rules in
  match Anml.read c.Pl.anml with
  | Error e -> Alcotest.failf "generated ANML unreadable: %s" e
  | Ok zs ->
      check Alcotest.int "same group count" (List.length c.Pl.mfsas) (List.length zs);
      let input = "abcabdxyzkkw" in
      List.iter2
        (fun z z' ->
          check Alcotest.int "same matches"
            (Im.count (Im.compile z) input)
            (Im.count (Im.compile z') input))
        c.Pl.mfsas zs

let test_build_fsa () =
  (match Pl.build_fsa "a(b|c)" with
  | Ok a -> check Alcotest.bool "eps free" true (Nfa.is_eps_free a)
  | Error _ -> Alcotest.fail "expected success");
  match Pl.build_fsa "+bad" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e -> check Alcotest.int "index 0" 0 e.Pl.rule_index

let test_merge_stats_populated () =
  let c = Pl.compile_exn ~m:0 [| "abc"; "abd"; "abe" |] in
  check Alcotest.bool "merged transitions counted" true
    (c.Pl.merge_stats.Mfsa_model.Merge.merged_transitions >= 4)

(* A runtime compile — the rule compiler the pipeline installs in
   [Source], here reached through [Registry.compile] — counts as a
   compile and observes the merge stage, but writes no ANML, so the
   emit stage's histogram does not move. *)
let test_runtime_compile_skips_emit () =
  let module S = Mfsa_obs.Snapshot in
  let snap () = Mfsa_obs.Obs.snapshot Mfsa_obs.Obs.default in
  let stage_count name =
    match S.find ~labels:[ ("stage", name) ] (snap ()) "mfsa_compile_stage_seconds" with
    | Some { S.value = S.Histogram h; _ } -> h.S.count
    | _ -> 0
  in
  let compiles () = Option.value ~default:0. (S.number (snap ()) "mfsa_compile_total") in
  let c0 = compiles () and m0 = stage_count "merge" and e0 = stage_count "emit" in
  (match Mfsa_engine.Registry.compile "auto" (Mfsa_engine.Source.Rules rules) with
  | Ok [ _ ] -> ()
  | Ok _ -> Alcotest.fail "expected one engine"
  | Error msg -> Alcotest.fail msg);
  check (Alcotest.float 0.) "mfsa_compile_total advanced" (c0 +. 1.) (compiles ());
  check Alcotest.int "merge stage observed" (m0 + 1) (stage_count "merge");
  check Alcotest.int "emit stage untouched" e0 (stage_count "emit");
  ignore (Pl.compile_exn rules);
  check Alcotest.int "a document-writing compile observes emit" (e0 + 1)
    (stage_count "emit")

(* ---------------------------------------------------------- Report *)

let test_totals_and_compression () =
  let c = Pl.compile_exn ~m:0 [| "abc"; "abd" |] in
  let before = R.fsa_totals c.Pl.fsas in
  let after = R.mfsa_totals c.Pl.mfsas in
  check Alcotest.int "fsa states" 8 before.R.states;
  check Alcotest.bool "mfsa smaller" true (after.R.states < before.R.states);
  let cs, ct = R.compression ~before ~after in
  check Alcotest.bool "state compression positive" true (cs > 0.);
  check Alcotest.bool "transition compression positive" true (ct > 0.);
  let z, zt = R.compression ~before:{ R.states = 0; transitions = 0 }
      ~after:{ R.states = 0; transitions = 0 } in
  check (Alcotest.float 1e-9) "zero safe states" 0. z;
  check (Alcotest.float 1e-9) "zero safe transitions" 0. zt

let test_throughput () =
  check (Alcotest.float 1e-9) "eq 11" 2_000_000.
    (R.throughput ~n_mfsa:1 ~m:2 ~data_size:1_000_000 ~exe_time:1.);
  check (Alcotest.float 1e-9) "zero time" 0.
    (R.throughput ~n_mfsa:1 ~m:1 ~data_size:100 ~exe_time:0.)

let test_geomean () =
  check (Alcotest.float 1e-9) "pair" 2. (R.geomean [ 1.; 4. ]);
  check (Alcotest.float 1e-9) "identity" 3. (R.geomean [ 3. ]);
  check (Alcotest.float 1e-9) "empty" 0. (R.geomean []);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Report.geomean: non-positive entry") (fun () ->
      ignore (R.geomean [ 1.; 0. ]))

let test_table_rendering () =
  let t = R.table ~header:[ "a"; "bb" ] [ [ "ccc"; "d" ]; [ "e" ] ] in
  let lines = String.split_on_char '\n' (String.trim t) in
  check Alcotest.int "four lines" 4 (List.length lines);
  check Alcotest.string "header" "a    bb" (List.nth lines 0);
  check Alcotest.string "separator" "---  --" (List.nth lines 1);
  check Alcotest.string "row" "ccc  d" (List.nth lines 2);
  check Alcotest.string "short row" "e" (List.nth lines 3)

let test_formatters () =
  check Alcotest.string "ns" "500 ns" (R.fmt_time 5e-7);
  check Alcotest.string "us" "12.00 us" (R.fmt_time 1.2e-5);
  check Alcotest.string "ms" "3.40 ms" (R.fmt_time 3.4e-3);
  check Alcotest.string "s" "2.50 s" (R.fmt_time 2.5);
  check Alcotest.string "float" "3.14" (R.fmt_float 3.14159)

let () =
  Alcotest.run "pipeline"
    [
      ( "pipeline",
        [
          Alcotest.test_case "compile succeeds" `Quick test_compile_succeeds;
          Alcotest.test_case "merging factor" `Quick test_compile_merging_factor;
          Alcotest.test_case "stage times" `Quick test_compile_times_recorded;
          Alcotest.test_case "error reporting" `Quick test_compile_error_reporting;
          Alcotest.test_case "empty ruleset" `Quick test_compile_empty_ruleset;
          Alcotest.test_case "compile_exn raises" `Quick test_compile_exn_raises;
          Alcotest.test_case "ANML loads and runs" `Quick test_anml_output_loads_and_runs;
          Alcotest.test_case "build_fsa" `Quick test_build_fsa;
          Alcotest.test_case "merge stats" `Quick test_merge_stats_populated;
          Alcotest.test_case "runtime compile skips emit" `Quick
            test_runtime_compile_skips_emit;
        ] );
      ( "report",
        [
          Alcotest.test_case "totals and compression" `Quick test_totals_and_compression;
          Alcotest.test_case "throughput" `Quick test_throughput;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "formatters" `Quick test_formatters;
        ] );
    ]
