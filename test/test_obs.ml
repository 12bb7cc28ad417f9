(* The observability layer: snapshot exporters, the metrics registry,
   and the engine-level reset-reproducibility property the registry
   adapters promise (Engine_sig.S.reset_stats returns the observable
   metric state to that of a fresh compile — for the hybrid this
   includes dropping its configuration cache). *)

module Obs = Mfsa_obs.Obs
module S = Mfsa_obs.Snapshot
module Merge = Mfsa_model.Merge
module Registry = Mfsa_engine.Registry
module Engine_sig = Mfsa_engine.Engine_sig
module Ast = Mfsa_frontend.Ast

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------- Snapshots *)

let test_quantile () =
  (* Two buckets (≤1, ≤2) plus overflow: 3 observations ≤ 1, 1 in
     (1, 2], 1 above 2. *)
  let h =
    { S.bounds = [| 1.; 2. |]; counts = [| 3; 1; 1 |]; sum = 6.; count = 5 }
  in
  check (Alcotest.float 0.) "q=0 -> first bucket" 1. (S.quantile h 0.);
  check (Alcotest.float 0.) "median" 1. (S.quantile h 0.5);
  check (Alcotest.float 0.) "p80 hits second bucket" 2. (S.quantile h 0.8);
  check Alcotest.bool "p99 lands in overflow" true
    (S.quantile h 0.99 = infinity);
  check (Alcotest.float 0.) "clamped above" (S.quantile h 1.) (S.quantile h 7.);
  let empty = { S.bounds = [| 1. |]; counts = [| 0; 0 |]; sum = 0.; count = 0 } in
  check (Alcotest.float 0.) "empty histogram" 0. (S.quantile empty 0.9)

let test_quantile_from_registry () =
  let reg = Obs.create () in
  let h = Obs.histogram ~registry:reg "mfsa_q_seconds" in
  (* 100 observations at ~1 ms, one straggler at ~1 s: the p50 bound
     stays in the millisecond buckets, the max escapes upward. *)
  for _ = 1 to 100 do Obs.observe h 0.001 done;
  Obs.observe h 1.0;
  match S.find (Obs.snapshot reg) "mfsa_q_seconds" with
  | Some { S.value = S.Histogram hist; _ } ->
      let p50 = S.quantile hist 0.5 and p99 = S.quantile hist 0.99 in
      check Alcotest.bool "p50 within 2x of 1ms" true
        (p50 >= 0.001 && p50 <= 0.002);
      check Alcotest.bool "p99 still small" true (p99 <= 0.002);
      check Alcotest.bool "p100 sees the straggler" true
        (S.quantile hist 1. >= 1.0)
  | _ -> Alcotest.fail "histogram sample missing"

(* --------------------------------------------------- Process gauges *)

let test_process_gauges () =
  let reg = Obs.create () in
  let start = Obs.process_start_time ~registry:reg () in
  let t0 = Obs.gauge_value start in
  check Alcotest.bool "start time is a plausible unix time" true
    (t0 > 1.6e9 && t0 <= Unix.gettimeofday ());
  (* Get-or-create: a second registration reads the same value. *)
  check (Alcotest.float 0.) "idempotent"
    t0 (Obs.gauge_value (Obs.process_start_time ~registry:reg ()));
  let active = Obs.process_connections_active ~registry:reg () in
  check (Alcotest.float 0.) "starts at 0" 0. (Obs.gauge_value active);
  Obs.gauge_add active 1.;
  Obs.gauge_add active 1.;
  Obs.gauge_add active (-1.);
  check (Alcotest.float 0.) "gauge_add nets out" 1. (Obs.gauge_value active);
  let text = S.to_prometheus (Obs.snapshot reg) in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "start-time series exported" true
    (has "mfsa_process_start_time_seconds");
  check Alcotest.bool "connections series exported" true
    (has "mfsa_process_connections_active 1")

let test_prometheus_text () =
  let snap =
    [
      S.counter_i ~help:"Things done" ~labels:[ ("engine", "imfant") ]
        "mfsa_things_total" 3;
      S.counter_i ~help:"Things done" ~labels:[ ("engine", "hybrid") ]
        "mfsa_things_total" 4;
      S.gauge ~help:"A level" "mfsa_level" 0.25;
    ]
  in
  let text = S.to_prometheus snap in
  check Alcotest.string "exposition"
    "# HELP mfsa_level A level\n\
     # TYPE mfsa_level gauge\n\
     mfsa_level 0.250000\n\
     # HELP mfsa_things_total Things done\n\
     # TYPE mfsa_things_total counter\n\
     mfsa_things_total{engine=\"hybrid\"} 4\n\
     mfsa_things_total{engine=\"imfant\"} 3\n"
    text

let test_prometheus_histogram () =
  let h =
    S.histogram ~help:"Latency" "mfsa_lat_seconds" ~bounds:[| 0.1; 1.0 |]
      ~counts:[| 2; 1; 1 |] ~sum:1.75
  in
  let text = S.to_prometheus [ h ] in
  check Alcotest.string "histogram exposition"
    "# HELP mfsa_lat_seconds Latency\n\
     # TYPE mfsa_lat_seconds histogram\n\
     mfsa_lat_seconds_bucket{le=\"0.1\"} 2\n\
     mfsa_lat_seconds_bucket{le=\"1\"} 3\n\
     mfsa_lat_seconds_bucket{le=\"+Inf\"} 4\n\
     mfsa_lat_seconds_sum 1.750000\n\
     mfsa_lat_seconds_count 4\n"
    text

let test_prometheus_escaping () =
  let text =
    S.to_prometheus
      [ S.counter_i ~labels:[ ("pattern", "a\"b\\c\nd") ] "mfsa_x_total" 1 ]
  in
  check Alcotest.string "escaped label"
    "# TYPE mfsa_x_total counter\n\
     mfsa_x_total{pattern=\"a\\\"b\\\\c\\nd\"} 1\n"
    text

let test_prometheus_no_duplicate_series () =
  (* Same name + labels from two sources must still be two *lines*
     (merge concatenates); the CI gate asserts real exports never
     contain such duplicates, so the validator below must be able to
     see them. Here: distinct labels produce distinct series and only
     one header per name. *)
  let text =
    S.to_prometheus
      (S.merge
         [
           [ S.counter_i ~labels:[ ("d", "0") ] "mfsa_y_total" 1 ];
           [ S.counter_i ~labels:[ ("d", "1") ] "mfsa_y_total" 2 ];
         ])
  in
  let headers =
    List.filter
      (fun l -> String.length l > 6 && String.sub l 0 6 = "# TYPE")
      (String.split_on_char '\n' text)
  in
  check Alcotest.int "one TYPE header" 1 (List.length headers)

let test_json_shape () =
  let json =
    S.to_json
      [
        S.gauge_i ~labels:[ ("engine", "imfant") ] "mfsa_engine_states" 7;
        S.histogram "mfsa_h_seconds" ~bounds:[| 1.0 |] ~counts:[| 1; 0 |]
          ~sum:0.5;
      ]
  in
  check Alcotest.string "json"
    "[\n\
    \  {\"name\": \"mfsa_engine_states\", \"type\": \"gauge\", \"labels\": \
     {\"engine\": \"imfant\"}, \"value\": 7},\n\
    \  {\"name\": \"mfsa_h_seconds\", \"type\": \"histogram\", \"labels\": \
     {}, \"count\": 1, \"sum\": 0.500000, \"buckets\": [{\"le\": \"1\", \
     \"count\": 1}, {\"le\": \"+Inf\", \"count\": 0}]}\n\
     ]\n"
    json

let test_to_kv () =
  let kv =
    S.to_kv ~drop_labels:[ "engine" ]
      [
        S.counter_i ~labels:[ ("engine", "imfant") ] "mfsa_runs_total" 2;
        S.gauge ~labels:[ ("engine", "imfant"); ("d", "0") ] "mfsa_avg" 1.5;
        S.histogram "mfsa_h" ~bounds:[| 1.0 |] ~counts:[| 3; 0 |] ~sum:0.75;
      ]
  in
  check
    Alcotest.(list (pair string string))
    "kv pairs"
    [
      ("mfsa_avg{d=0}", "1.500000");
      ("mfsa_h_count", "3");
      ("mfsa_h_sum", "0.750000");
      ("mfsa_runs_total", "2");
    ]
    kv

let test_combinators () =
  let snap = [ S.counter_i ~labels:[ ("engine", "x") ] "mfsa_c_total" 5 ] in
  let tagged = S.with_labels [ ("engine", "y"); ("gen", "3") ] snap in
  (match tagged with
  | [ s ] ->
      (* Existing keys win; new ones are added. *)
      check
        Alcotest.(list (pair string string))
        "labels"
        [ ("engine", "x"); ("gen", "3") ]
        s.S.labels
  | _ -> Alcotest.fail "one sample expected");
  check
    Alcotest.(option (float 1e-9))
    "number" (Some 5.)
    (S.number snap "mfsa_c_total");
  check Alcotest.bool "equal ignores help" true
    (S.equal snap [ S.counter_i ~help:"doc" ~labels:[ ("engine", "x") ] "mfsa_c_total" 5 ]);
  check Alcotest.bool "equal sees values" false
    (S.equal snap [ S.counter_i ~labels:[ ("engine", "x") ] "mfsa_c_total" 6 ]);
  match S.without_label "engine" snap with
  | [ s ] -> check Alcotest.(list (pair string string)) "dropped" [] s.S.labels
  | _ -> Alcotest.fail "one sample expected"

(* -------------------------------------------------------- Registry *)

let test_registry_roundtrip () =
  let reg = Obs.create () in
  let c = Obs.counter ~registry:reg ~help:"h" "t_total" in
  Obs.inc c;
  Obs.add c 4;
  (* Get-or-create: a second registration is the same underlying
     metric. *)
  Obs.inc (Obs.counter ~registry:reg "t_total");
  check Alcotest.int "counter" 6 (Obs.counter_value c);
  let g = Obs.gauge ~registry:reg ~labels:[ ("d", "0") ] "t_gauge" in
  Obs.set g 2.5;
  check (Alcotest.float 1e-9) "gauge" 2.5 (Obs.gauge_value g);
  let h = Obs.histogram ~registry:reg ~bounds:[| 1.0; 2.0 |] "t_seconds" in
  Obs.observe h 0.5;
  Obs.observe h 1.5;
  Obs.observe h 99.;
  let snap = Obs.snapshot reg in
  (match S.find snap "t_seconds" with
  | Some { S.value = S.Histogram hh; _ } ->
      check Alcotest.(array int) "buckets" [| 1; 1; 1 |] hh.S.counts;
      check Alcotest.int "count" 3 hh.S.count;
      check (Alcotest.float 1e-9) "sum" 101. hh.S.sum
  | _ -> Alcotest.fail "histogram sample missing");
  check Alcotest.(option (float 1e-9)) "snap counter" (Some 6.)
    (S.number snap "t_total");
  Obs.reset reg;
  check Alcotest.int "reset counter" 0 (Obs.counter_value c);
  match S.find (Obs.snapshot reg) "t_seconds" with
  | Some { S.value = S.Histogram hh; _ } ->
      check Alcotest.int "reset histogram" 0 hh.S.count
  | _ -> Alcotest.fail "histogram sample missing after reset"

let test_kind_mismatch () =
  let reg = Obs.create () in
  ignore (Obs.counter ~registry:reg "t_kind");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs: t_kind is already registered as a counter")
    (fun () -> ignore (Obs.gauge ~registry:reg "t_kind"))

let test_disabled_updates () =
  let reg = Obs.create () in
  let c = Obs.counter ~registry:reg "t_off_total" in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () -> Obs.inc c);
  check Alcotest.int "no-op while disabled" 0 (Obs.counter_value c);
  Obs.inc c;
  check Alcotest.int "re-enabled" 1 (Obs.counter_value c)

let test_time_observes_on_raise () =
  let reg = Obs.create () in
  let h = Obs.histogram ~registry:reg "t_span_seconds" in
  (match Obs.time h (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  match S.find (Obs.snapshot reg) "t_span_seconds" with
  | Some { S.value = S.Histogram hh; _ } ->
      check Alcotest.int "raising span observed" 1 hh.S.count
  | _ -> Alcotest.fail "histogram sample missing"

(* --------------------------- Engine reset-reproducibility property *)

let fsa_of_rule rule =
  let module A = Mfsa_automata in
  A.Multiplicity.fuse
    (A.Epsilon.remove
       (A.Thompson.build
          (A.Simplify.char_classes_rule (A.Loops.expand_rule rule))))

(* For every registered engine: run a fresh compile on an input and
   snapshot; then reset_stats and run the same input again — the two
   snapshots must be equal. This is what makes per-engine metrics
   meaningful across measurement windows, and for the hybrid it pins
   the adapter contract that reset_stats also drops the configuration
   cache (otherwise the warm second run would report different
   hit/miss/interned counts). *)
let prop_reset_stats_reproducible =
  QCheck2.Test.make ~count:40
    ~name:"every engine: reset_stats + rerun = fresh-compile snapshot"
    ~print:Gen_re.print_ruleset_input
    (QCheck2.Gen.pair (Gen_re.ruleset ()) Gen_re.input)
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      List.for_all
        (fun name ->
          let eng = Registry.compile_automaton_exn name z in
          ignore (Engine_sig.run eng input);
          let fresh = Engine_sig.stats eng in
          Engine_sig.reset_stats eng;
          ignore (Engine_sig.run eng input);
          let rerun = Engine_sig.stats eng in
          if S.equal fresh rerun then true
          else
            QCheck2.Test.fail_reportf "%s diverges:@.%a@.vs@.%a" name S.pp
              fresh S.pp rerun)
        (Registry.names ()))

let () =
  Alcotest.run "obs"
    [
      ( "snapshot",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus_text;
          Alcotest.test_case "prometheus histogram" `Quick
            test_prometheus_histogram;
          Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_escaping;
          Alcotest.test_case "series grouping" `Quick
            test_prometheus_no_duplicate_series;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "to_kv" `Quick test_to_kv;
          Alcotest.test_case "combinators" `Quick test_combinators;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "quantile via registry" `Quick
            test_quantile_from_registry;
          Alcotest.test_case "process gauges" `Quick test_process_gauges;
        ] );
      ( "registry",
        [
          Alcotest.test_case "roundtrip" `Quick test_registry_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "disabled updates" `Quick test_disabled_updates;
          Alcotest.test_case "span on raise" `Quick
            test_time_observes_on_raise;
        ] );
      ( "engines",
        [ qtest prop_reset_stats_reproducible ] );
    ]
