(* Smoke tests for the evaluation harness itself: every artefact
   function must run at a tiny configuration and produce the table it
   promises. These keep the benchmark harness from rotting between
   full runs. *)

module E = Mfsa_core.Experiments

let check = Alcotest.check

let tiny =
  {
    E.scale = 0.02;
    stream_kb = 2;
    reps = 1;
    merge_factors = [ 2; 0 ];
    thread_counts = [ 1; 4 ];
    hw_threads = 4;
  }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let artefacts =
  [
    ("fig1", E.fig1, [ "INDEL"; "BRO"; "TCP" ]);
    ("table1", E.table1, [ "Num. REs"; "Avg. Ns"; "Protomata" ]);
    ("fig7", E.fig7, [ "compression"; "States %"; "paper: 71.95%" ]);
    ("fig8", E.fig8, [ "ME-merging"; "AST to FSA"; "Total" ]);
    ("table2", E.table2, [ "Avg. Nact"; "Max Nact" ]);
    ("fig9", E.fig9, [ "Throughput"; "vs M=1"; "Geomean" ]);
    ("fig10", E.fig10, [ "greedy in-order scheduler"; "Best Perf. M=1" ]);
    ("ablation-ccsplit", E.ablation_ccsplit, [ "cc-split" ]);
    ("ablation-cluster", E.ablation_cluster, [ "clustered" ]);
    ("ablation-bisim", E.ablation_bisim, [ "bisimulation"; "reduced" ]);
    ("baselines", E.baselines, [ "D2FA"; "Aho-Corasick"; "2-stride"; "iMFAnt" ]);
  ]

let test_artefact (name, f, markers) () =
  let out = f tiny in
  check Alcotest.bool (name ^ " non-empty") true (String.length out > 0);
  List.iter
    (fun marker ->
      check Alcotest.bool
        (Printf.sprintf "%s mentions %S" name marker)
        true (contains out marker))
    markers

let test_run_all_order () =
  (* run_all stitches the artefacts in paper order. *)
  let out = E.run_all tiny in
  let pos marker =
    let rec go i =
      if i + String.length marker > String.length out then -1
      else if String.sub out i (String.length marker) = marker then i
      else go (i + 1)
    in
    go 0
  in
  let positions =
    List.map pos [ "Fig. 1"; "Table I:"; "Fig. 7"; "Fig. 8"; "Table II"; "Fig. 9"; "Fig. 10" ]
  in
  List.iter (fun p -> check Alcotest.bool "artefact present" true (p >= 0)) positions;
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  check Alcotest.bool "paper order" true (ascending positions)

let test_default_config_env () =
  check Alcotest.bool "default scale positive" true ((E.default ()).E.scale > 0.);
  check Alcotest.int "paper scale full reps" 15 E.paper_scale.E.reps;
  check (Alcotest.float 1e-9) "paper scale is 1.0" 1.0 E.paper_scale.E.scale

let () =
  Alcotest.run "experiments"
    [
      ( "artefacts",
        List.map
          (fun ((name, _, _) as a) -> Alcotest.test_case name `Slow (test_artefact a))
          artefacts
        @ [
            Alcotest.test_case "run_all order" `Slow test_run_all_order;
            Alcotest.test_case "config defaults" `Quick test_default_config_env;
          ] );
    ]
