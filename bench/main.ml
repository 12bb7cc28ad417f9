(* Benchmark harness.

   Two modes:

   - `dune exec bench/main.exe` (or with artefact names such as
     `fig7 table2`): regenerates the paper's evaluation artefacts —
     every table and figure of §VI — via Mfsa_core.Experiments and
     prints them in paper order.

   - `dune exec bench/main.exe -- bechamel`: runs one Bechamel
     micro-benchmark per table/figure family, measuring the kernel
     each artefact stresses (INDEL metric, FSA construction, merging,
     full compilation, iMFAnt execution, active-set instrumentation,
     scheduler projection).

   - `dune exec bench/main.exe -- json`: runs the engine comparison
     and the serving benchmark and writes BENCH_engines.json and
     BENCH_serve.json for machine consumption.

   - `dune exec bench/main.exe -- serve-check`: CI smoke gate — a
     2-domain Serve pool over the BRO ruleset must agree
     byte-for-byte with direct sequential execution.

   All modes accept `-e/--engine NAME` (the same flag as mfsa-match
   and mfsa-live) to pick the registry engine under test; `-e help`
   lists the registered names. *)

module E = Mfsa_core.Experiments
module Pipeline = Mfsa_core.Pipeline
module Datasets = Mfsa_datasets.Datasets
module Stream_gen = Mfsa_datasets.Stream_gen
module Merge = Mfsa_model.Merge
module Imfant = Mfsa_engine.Imfant
module Infant = Mfsa_engine.Infant
module Hybrid = Mfsa_engine.Hybrid
module Schedule = Mfsa_engine.Schedule
module Indel = Mfsa_util.Indel
module Report = Mfsa_core.Report
module Live = Mfsa_live.Live
module Registry = Mfsa_engine.Registry
module Engine_sig = Mfsa_engine.Engine_sig
module Pool = Mfsa_engine.Pool
module Serve = Mfsa_serve.Serve
module Obs = Mfsa_obs.Obs
module Snapshot = Mfsa_obs.Snapshot
module Artifact = Mfsa_artifact.Artifact
module Tables = Mfsa_engine.Tables

(* ------------------------------------------------------- Bechamel *)

open Bechamel
open Toolkit

(* Shared fixtures, built once: a small BRO-like ruleset, its FSAs,
   its MFSA and a stream — enough to exercise every kernel without
   making the micro-benchmark suite run for minutes. *)
let fixture =
  lazy
    (let ds = Datasets.bro217 ~scale:0.15 () in
     let fsas = Result.get_ok (Pipeline.build_fsas ds.Datasets.rules) in
     let z = Merge.merge fsas in
     let imfant = Imfant.compile z in
     let hybrid = Hybrid.of_imfant imfant in
     let infants = Array.map Infant.compile fsas in
     let stream = Stream_gen.generate ~seed:3 ~size:16384 ds.Datasets.rules in
     (* Warm the hybrid's configuration cache so the kernel measures
        steady-state lookup throughput, not first-pass construction. *)
     ignore (Hybrid.count hybrid stream);
     (ds, fsas, z, imfant, hybrid, infants, stream))

let tests () =
  let ds, fsas, z, imfant, hybrid, infants, stream = Lazy.force fixture in
  [
    (* Fig. 1 measures morphological similarity: the INDEL kernel. *)
    Test.make ~name:"fig1-indel-similarity"
      (Staged.stage (fun () ->
           ignore
             (Indel.average_pairwise_similarity ~sample:64 ds.Datasets.rules)));
    (* Table I characterises rulesets: the per-rule middle-end. *)
    Test.make ~name:"table1-build-fsas"
      (Staged.stage (fun () ->
           ignore (Result.get_ok (Pipeline.build_fsas ds.Datasets.rules))));
    (* Fig. 7 is the merging algorithm itself. *)
    Test.make ~name:"fig7-merge-all"
      (Staged.stage (fun () -> ignore (Merge.merge fsas)));
    (* Fig. 8 is the full five-stage pipeline. *)
    Test.make ~name:"fig8-full-pipeline"
      (Staged.stage (fun () ->
           ignore (Pipeline.compile_exn ~m:0 ds.Datasets.rules)));
    (* Table II adds the active-set instrumentation to execution. *)
    Test.make ~name:"table2-imfant-with-stats"
      (Staged.stage (fun () -> ignore (Imfant.run_with_stats imfant stream)));
    (* Fig. 9 compares iMFAnt on the MFSA with iNFAnt on the FSAs. *)
    Test.make ~name:"fig9-imfant-mfsa"
      (Staged.stage (fun () -> ignore (Imfant.count imfant stream)));
    (* Same automaton and stream through the lazy-DFA cache. *)
    Test.make ~name:"fig9-hybrid"
      (Staged.stage (fun () -> ignore (Hybrid.count hybrid stream)));
    Test.make ~name:"fig9-infant-baseline"
      (Staged.stage (fun () ->
           Array.iter (fun eng -> ignore (Infant.count eng stream)) infants));
    (* Baseline engines contrasted in the baselines experiment. *)
    Test.make ~name:"baseline-dfa-per-rule"
      (Staged.stage
         (let engines =
            Array.map (fun a -> Mfsa_engine.Dfa_engine.compile a) fsas
          in
          fun () ->
            Array.iter
              (fun e -> ignore (Mfsa_engine.Dfa_engine.count e stream))
              engines));
    Test.make ~name:"baseline-decomposed"
      (Staged.stage
         (let t = Mfsa_engine.Decomposed.compile fsas in
          fun () -> ignore (Mfsa_engine.Decomposed.count t stream)));
    Test.make ~name:"anml-homogeneous-ste"
      (Staged.stage
         (let h = Mfsa_anml.Homogeneous.of_mfsa z in
          fun () -> ignore (Mfsa_anml.Homogeneous.count h stream)));
    (* Fig. 10 replays the greedy scheduler over measured times. *)
    Test.make ~name:"fig10-schedule-projection"
      (Staged.stage
         (let times = Array.init 300 (fun i -> float_of_int (1 + (i mod 17))) in
          fun () ->
            List.iter
              (fun t -> ignore (Schedule.project ~threads:t times))
              [ 1; 2; 4; 8; 16; 32; 64; 128 ]));
  ]

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  Printf.printf "Bechamel micro-benchmarks (one per table/figure family)\n";
  Printf.printf "%-28s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 46 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              let pretty =
                if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                else Printf.sprintf "%.0f ns" ns
              in
              Printf.printf "%-28s %16s\n%!" name pretty
          | _ -> Printf.printf "%-28s %16s\n%!" name "n/a")
        results)
    (tests ())

(* ------------------------------------------------- Live updates *)

let time f =
  let t0 = Mfsa_util.Clock.now () in
  let r = f () in
  (Mfsa_util.Clock.now () -. t0, r)

(* Incremental ruleset updates vs full recompilation (M=all), per
   dataset: the cost of reaching a new serving generation by
   Live.add_rule on an already-loaded ruleset, against compiling the
   whole ruleset from scratch; plus the retirement and forced
   compaction costs of the removal path. *)
let live_update cfg =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Live updates: incremental add/remove vs full recompile (M=all)\n\n";
  let rows =
    List.map
      (fun ds ->
        let rules = ds.Datasets.rules in
        let n = Array.length rules in
        (* Full recompile: parse + build + merge + freeze all N rules,
           i.e. what a static deployment redoes on every feed update. *)
        let t_full =
          let reps = max 1 cfg.E.reps in
          let acc = ref 0. in
          for _ = 1 to reps do
            let t, lv = time (fun () -> Live.of_rules rules) in
            ignore (Result.get_ok lv);
            acc := !acc +. t
          done;
          !acc /. float_of_int reps
        in
        (* Incremental: load all but the last k rules, then time each
           remaining add individually — every timed add produces a
           complete new generation over all rules seen so far. *)
        let k = max 1 (min 10 (n / 2)) in
        let lv =
          Result.get_ok
            (Live.of_rules ~gc_threshold:1.0 (Array.sub rules 0 (n - k)))
        in
        let t_add =
          let acc = ref 0. in
          for i = n - k to n - 1 do
            let t, _ = time (fun () -> Live.add_rule_exn lv rules.(i)) in
            acc := !acc +. t
          done;
          !acc /. float_of_int k
        in
        (* Retirement of those k rules (threshold 1.0: no compaction
           inside the timed region), then one forced compaction. *)
        let t_remove =
          let acc = ref 0. in
          for id = n - k to n - 1 do
            let t, ok = time (fun () -> Live.remove_rule lv id) in
            assert ok;
            acc := !acc +. t
          done;
          !acc /. float_of_int k
        in
        let t_compact, () = time (fun () -> Live.compact lv) in
        let s = Live.stats lv in
        assert (s.Live.dead_transitions = 0 && s.Live.live_rules = n - k);
        [
          ds.Datasets.abbr;
          string_of_int n;
          Report.fmt_time t_full;
          Report.fmt_time t_add;
          Printf.sprintf "%.1fx" (t_full /. t_add);
          Report.fmt_time t_remove;
          Report.fmt_time t_compact;
        ])
      (Datasets.all ~scale:cfg.E.scale ())
  in
  Buffer.add_string buf
    (Report.table
       ~header:
         [
           "dataset"; "rules"; "full compile"; "incr add"; "speedup";
           "remove"; "compact";
         ]
       rows);
  Buffer.add_string buf
    "\nfull compile: Live.of_rules over the whole ruleset; incr add: one\n\
     Live.add_rule against the already-merged rest (average over the last\n\
     adds); remove: retirement without compaction; compact: one forced\n\
     compaction pass after the removals.\n";
  Buffer.contents buf

(* ------------------------------------------------------ Serving *)

type serve_row = {
  sr_dataset : string;
  sr_engine : string;
  sr_domains : int;
  sr_inputs : int;
  sr_bytes : int;
  sr_seq_mbps : float;
  sr_par_mbps : float;
  sr_queue_hwm : int;
  sr_queue_capacity : int;
  sr_utilisation : float array;
  sr_agree : bool;
  sr_obs : Snapshot.t;  (* parallel service's metric view, pre-shutdown *)
}

(* One batch of independent inputs per dataset, sharded across the
   worker domains. A single-domain service over the same engine is the
   sequential baseline, and both services must reproduce the results
   of running the engine directly, input by input — submission-order
   aggregation makes the comparison exact, not statistical. *)
let serve_measurements ~engine cfg =
  let n_domains = max 2 (Pool.available_parallelism ()) in
  List.map
    (fun ds ->
      let fsas = Result.get_ok (Pipeline.build_fsas ds.Datasets.rules) in
      let z = Merge.merge fsas in
      let n_inputs = 4 * n_domains in
      let seg = max 1024 (cfg.E.stream_kb * 1024 / n_inputs) in
      let inputs =
        Array.init n_inputs (fun i ->
            Stream_gen.generate ~seed:(41 + i) ~size:seg ds.Datasets.rules)
      in
      let reference =
        let eng = Registry.compile_automaton_exn engine z in
        Array.map (Engine_sig.run eng) inputs
      in
      let run_service domains =
        let srv = Serve.create ~engine ~domains z in
        let results = ref [||] in
        for _ = 1 to max 1 cfg.E.reps do
          results := Serve.match_batch srv inputs
        done;
        let st = Serve.stats srv in
        let snap = Serve.snapshot srv in
        Serve.shutdown srv;
        (!results, st, snap)
      in
      let seq_results, seq_stats, _ = run_service 1 in
      let par_results, par_stats, par_snap = run_service n_domains in
      {
        sr_dataset = ds.Datasets.abbr;
        sr_engine = engine;
        sr_domains = n_domains;
        sr_inputs = n_inputs;
        sr_bytes = Array.fold_left (fun a s -> a + String.length s) 0 inputs;
        sr_seq_mbps = Serve.throughput_mbps seq_stats;
        sr_par_mbps = Serve.throughput_mbps par_stats;
        sr_queue_hwm = par_stats.Serve.queue_hwm;
        sr_queue_capacity = par_stats.Serve.queue_capacity;
        sr_utilisation = Serve.utilisation par_stats;
        sr_agree = seq_results = reference && par_results = reference;
        sr_obs =
          Snapshot.with_labels [ ("dataset", ds.Datasets.abbr) ] par_snap;
      })
    (Datasets.all ~scale:cfg.E.scale ())

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let serve_bench ~engine cfg =
  let rows = serve_measurements ~engine cfg in
  let n_domains = match rows with r :: _ -> r.sr_domains | [] -> 0 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Domain-parallel serving: %s engine, 1 domain vs %d domains (M=all)\n\n"
       engine n_domains);
  Buffer.add_string buf
    (Report.table
       ~header:
         [
           "dataset"; "inputs"; "MB"; "1-dom MB/s"; "N-dom MB/s"; "speedup";
           "queue hwm"; "mean util"; "agree";
         ]
       (List.map
          (fun r ->
            [
              r.sr_dataset;
              string_of_int r.sr_inputs;
              Printf.sprintf "%.1f" (float_of_int r.sr_bytes /. 1e6);
              Printf.sprintf "%.1f" r.sr_seq_mbps;
              Printf.sprintf "%.1f" r.sr_par_mbps;
              Printf.sprintf "%.2fx"
                (if r.sr_seq_mbps > 0. then r.sr_par_mbps /. r.sr_seq_mbps
                 else 0.);
              Printf.sprintf "%d/%d" r.sr_queue_hwm r.sr_queue_capacity;
              Printf.sprintf "%.2f" (mean r.sr_utilisation);
              (if r.sr_agree then "ok" else "DIVERGED");
            ])
          rows));
  Buffer.add_string buf
    "\n1-dom / N-dom: the same Serve pool with one worker domain vs all\n\
     available; agree: both reproduce direct sequential execution of the\n\
     engine byte-for-byte.\n";
  Buffer.contents buf

(* CI smoke gate: a 2-domain service over the BRO ruleset must agree
   byte-for-byte with running the engine directly on every input —
   and the clean reference is always the *underlying* engine, so a
   faulty{..}:-wrapped engine plus the service's retry/supervision
   budget must be indistinguishable from an unwrapped sequential run.
   The fault counters are printed for scripts/ci.sh to assert the
   injection actually exercised the recovery paths. Exits 1 on
   divergence (the DIVERGED marker is also grepped by ci.sh). *)
let serve_check ~engine () =
  let ds = Datasets.bro217 ~scale:0.25 () in
  let fsas = Result.get_ok (Pipeline.build_fsas ds.Datasets.rules) in
  let z = Merge.merge fsas in
  let inputs =
    Array.init 8 (fun i ->
        Stream_gen.generate ~seed:(11 + i) ~size:8192 ds.Datasets.rules)
  in
  let baseline = Registry.underlying engine in
  let eng = Registry.compile_automaton_exn baseline z in
  let reference = Array.map (Engine_sig.run eng) inputs in
  let srv = Serve.create ~engine ~domains:2 ~retries:4 ~backoff:0.0002 z in
  let got = Serve.match_batch srv inputs in
  let st = Serve.stats srv in
  Serve.shutdown srv;
  let ok = got = reference in
  Printf.printf
    "serve-check %s (BRO, 2 domains, %d inputs, queue hwm %d, retries %d, \
     restarts %d, timeouts %d, rejected %d): %s\n"
    engine (Array.length inputs) st.Serve.queue_hwm st.Serve.retries
    st.Serve.restarts st.Serve.timeouts st.Serve.rejected
    (if ok then "AGREE" else "DIVERGED");
  if not ok then exit 1

(* ------------------------------------------------------- Loadgen *)

module Client = Mfsa_served.Client
module Protocol = Mfsa_served.Protocol

(* Open-loop load generation against a live mfsa-served daemon.

   Request [k] of [rate * duration] is *scheduled* at [t0 + k/rate]
   regardless of how long earlier requests took, and its latency is
   measured from that scheduled instant to the response — the
   coordinated-omission-safe convention: a stalled server keeps
   accumulating scheduled-but-late requests instead of silently
   slowing the arrival process down. Requests are round-robined over
   [clients] persistent connections, one thread each.

   With --expect, every response is compared to local sequential
   execution (Live over the *underlying* engine, so a faulty{..}:
   daemon with a retry budget is held to the clean baseline); any
   difference counts as a divergence. The summary and
   BENCH_served.json carry throughput, log2-histogram latency
   quantiles, divergences, and the server-side retry/restart counters
   scraped from METRICS — which is how the CI soak gate checks the
   fault-injection path actually recovered. *)

type loadgen_cfg = {
  lg_host : string;
  lg_port : int option;
  lg_port_file : string option;
  lg_rules : string option;
  lg_rate : float;
  lg_duration : float;
  lg_clients : int;
  lg_batch : int;
  lg_bytes : int;
  lg_seed : int;
  lg_expect : bool;
  lg_out : string;
}

let loadgen_default =
  {
    lg_host = "127.0.0.1";
    lg_port = None;
    lg_port_file = None;
    lg_rules = None;
    lg_rate = 200.;
    lg_duration = 30.;
    lg_clients = 4;
    lg_batch = 1;
    lg_bytes = 2048;
    lg_seed = 42;
    lg_expect = false;
    lg_out = "BENCH_served.json";
  }

let loadgen_usage =
  "bench loadgen --rules FILE [--host ADDR] (--port N | --port-file FILE)\n\
  \  [--rate REQ_PER_S] [--duration S] [--clients N] [--batch INPUTS]\n\
  \  [--bytes PER_INPUT] [--seed N] [--expect] [--out FILE] [-e ENGINE]\n"

let parse_loadgen rest =
  let die fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "bench loadgen: %s\n%s" m loadgen_usage;
        exit 2)
      fmt
  in
  let int_arg k v = match int_of_string_opt v with
    | Some i -> i
    | None -> die "%s wants an integer, got %S" k v
  in
  let float_arg k v = match float_of_string_opt v with
    | Some f -> f
    | None -> die "%s wants a number, got %S" k v
  in
  let rec go c = function
    | [] -> c
    | "--host" :: v :: r -> go { c with lg_host = v } r
    | "--port" :: v :: r -> go { c with lg_port = Some (int_arg "--port" v) } r
    | "--port-file" :: v :: r -> go { c with lg_port_file = Some v } r
    | "--rules" :: v :: r -> go { c with lg_rules = Some v } r
    | "--rate" :: v :: r -> go { c with lg_rate = float_arg "--rate" v } r
    | "--duration" :: v :: r ->
        go { c with lg_duration = float_arg "--duration" v } r
    | "--clients" :: v :: r ->
        go { c with lg_clients = int_arg "--clients" v } r
    | "--batch" :: v :: r -> go { c with lg_batch = int_arg "--batch" v } r
    | "--bytes" :: v :: r -> go { c with lg_bytes = int_arg "--bytes" v } r
    | "--seed" :: v :: r -> go { c with lg_seed = int_arg "--seed" v } r
    | "--expect" :: r -> go { c with lg_expect = true } r
    | "--out" :: v :: r -> go { c with lg_out = v } r
    | a :: _ -> die "unknown flag %S" a
  in
  let c = go loadgen_default rest in
  if c.lg_rate <= 0. then die "--rate must be > 0";
  if c.lg_duration <= 0. then die "--duration must be > 0";
  if c.lg_clients < 1 then die "--clients must be >= 1";
  if c.lg_batch < 1 then die "--batch must be >= 1";
  if c.lg_bytes < 1 then die "--bytes must be >= 1";
  c

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l ->
            let l = String.trim l in
            go (if l = "" || l.[0] = '#' then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Sum every sample of a Prometheus counter family from exposition
   text — labelled series (one per generation here) included. *)
let prom_sum body name =
  List.fold_left
    (fun acc line ->
      let n = String.length name in
      if
        String.length line > n
        && String.sub line 0 n = name
        && (line.[n] = '{' || line.[n] = ' ')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            with
            | Some v -> acc +. v
            | None -> acc)
        | None -> acc
      else acc)
    0.
    (String.split_on_char '\n' body)

let pct_ms h q = Snapshot.quantile h q *. 1e3

let write_served_json cfg ~engine ~requests ~elapsed ~bytes ~h ~divergences
    ~errors ~retries ~restarts =
  let oc = open_out cfg.lg_out in
  Printf.fprintf oc
    "[\n\
    \  {\"engine\": %S, \"rate\": %.3f, \"duration_s\": %.3f, \
     \"clients\": %d, \"batch\": %d, \"requests\": %d, \
     \"achieved_rps\": %.3f, \"bytes\": %d, \"mb_per_s\": %.3f, \
     \"p50_s\": %.6f, \"p95_s\": %.6f, \"p99_s\": %.6f, \"mean_s\": %.6f, \
     \"divergences\": %d, \"errors\": %d, \"server_retries\": %d, \
     \"server_restarts\": %d}\n\
     ]\n"
    engine cfg.lg_rate cfg.lg_duration cfg.lg_clients cfg.lg_batch requests
    (if elapsed > 0. then float_of_int requests /. elapsed else 0.)
    bytes
    (if elapsed > 0. then float_of_int bytes /. 1e6 /. elapsed else 0.)
    (Snapshot.quantile h 0.50) (Snapshot.quantile h 0.95)
    (Snapshot.quantile h 0.99)
    (if h.Snapshot.count > 0 then h.Snapshot.sum /. float_of_int h.Snapshot.count
     else 0.)
    divergences errors retries restarts;
  close_out oc;
  Printf.printf "wrote %s\n" cfg.lg_out

let loadgen ~engine rest =
  let cfg = parse_loadgen rest in
  let port =
    match (cfg.lg_port, cfg.lg_port_file) with
    | Some p, _ -> p
    | None, Some f -> (
        match read_lines f with
        | l :: _ when int_of_string_opt l <> None -> int_of_string l
        | _ ->
            Printf.eprintf "bench loadgen: %s does not contain a port number\n"
              f;
            exit 2)
    | None, None ->
        Printf.eprintf "bench loadgen: pass --port or --port-file\n%s"
          loadgen_usage;
        exit 2
  in
  let rules =
    match cfg.lg_rules with
    | Some f -> Array.of_list (read_lines f)
    | None ->
        Printf.eprintf "bench loadgen: pass --rules FILE\n%s" loadgen_usage;
        exit 2
  in
  (* A fixed pool of generated inputs: request k's batch is a
     deterministic slice, so the expected results are computed once. *)
  let pool_size = 64 in
  let pool =
    Array.init pool_size (fun i ->
        Stream_gen.generate ~seed:(cfg.lg_seed + i) ~size:cfg.lg_bytes rules)
  in
  let expected =
    if not cfg.lg_expect then [||]
    else
      let lv =
        match Live.of_rules ~engine:(Registry.underlying engine) rules with
        | Ok lv -> lv
        | Error e ->
            Printf.eprintf "bench loadgen: cannot compile baseline: %s\n"
              (Pipeline.error_to_string e);
            exit 2
      in
      Array.map
        (fun input ->
          List.map
            (fun e -> { Protocol.rule = e.Live.rule; end_pos = e.Live.end_pos })
            (Live.run lv input))
        pool
  in
  let n_requests = max 1 (int_of_float (cfg.lg_rate *. cfg.lg_duration)) in
  let reg = Obs.create () in
  let lat =
    Obs.histogram ~registry:reg ~help:"Scheduled-to-response request latency"
      "loadgen_latency_seconds"
  in
  let divergences = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let batch_of k =
    Array.init cfg.lg_batch (fun j ->
        pool.(((k * cfg.lg_batch) + j) mod pool_size))
  in
  let expected_of k =
    Array.init cfg.lg_batch (fun j ->
        expected.(((k * cfg.lg_batch) + j) mod pool_size))
  in
  let t0 = Mfsa_util.Clock.now () +. 0.05 (* let every client connect *) in
  let client i () =
    match Client.connect ~host:cfg.lg_host ~port () with
    | Error msg ->
        Printf.eprintf "bench loadgen: client %d: %s\n" i msg;
        Atomic.incr errors
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let k = ref i in
            while !k < n_requests do
              let scheduled = t0 +. (float_of_int !k /. cfg.lg_rate) in
              let now = Mfsa_util.Clock.now () in
              if scheduled > now then Unix.sleepf (scheduled -. now);
              (match Client.submit c (batch_of !k) with
              | Ok results ->
                  Obs.observe lat (Mfsa_util.Clock.now () -. scheduled);
                  Atomic.incr completed;
                  if cfg.lg_expect && results <> expected_of !k then
                    Atomic.incr divergences
              | Error msg ->
                  Atomic.incr errors;
                  Printf.eprintf "bench loadgen: request %d: %s\n" !k msg);
              k := !k + cfg.lg_clients
            done)
  in
  let threads =
    List.init cfg.lg_clients (fun i -> Thread.create (client i) ())
  in
  List.iter Thread.join threads;
  let elapsed = Mfsa_util.Clock.now () -. t0 in
  let retries, restarts =
    match Client.connect ~host:cfg.lg_host ~port () with
    | Error _ -> (-1, -1)
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.metrics c Protocol.Prometheus with
            | Error _ -> (-1, -1)
            | Ok body ->
                ( int_of_float (prom_sum body "mfsa_serve_retries_total"),
                  int_of_float (prom_sum body "mfsa_serve_replica_restarts_total")
                ))
  in
  let h =
    match Snapshot.find (Obs.snapshot reg) "loadgen_latency_seconds" with
    | Some { Snapshot.value = Snapshot.Histogram h; _ } -> h
    | _ -> { Snapshot.bounds = [||]; counts = [| 0 |]; sum = 0.; count = 0 }
  in
  let requests = Atomic.get completed in
  let bytes = requests * cfg.lg_batch * cfg.lg_bytes in
  Printf.printf
    "loadgen: %d/%d requests in %.2f s (%.1f req/s achieved, target %.1f, \
     %d clients, batch %d)\n"
    requests n_requests elapsed
    (if elapsed > 0. then float_of_int requests /. elapsed else 0.)
    cfg.lg_rate cfg.lg_clients cfg.lg_batch;
  Printf.printf
    "latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, mean %.2f ms (log2 \
     buckets, upper bounds)\n"
    (pct_ms h 0.50) (pct_ms h 0.95) (pct_ms h 0.99)
    (if h.Snapshot.count > 0 then
       h.Snapshot.sum /. float_of_int h.Snapshot.count *. 1e3
     else 0.);
  Printf.printf "bytes: %.2f MB sent, %.2f MB/s\n"
    (float_of_int bytes /. 1e6)
    (if elapsed > 0. then float_of_int bytes /. 1e6 /. elapsed else 0.);
  Printf.printf "divergences %d, errors %d\n" (Atomic.get divergences)
    (Atomic.get errors);
  Printf.printf "server: retries %d, restarts %d\n" retries restarts;
  write_served_json cfg ~engine ~requests ~elapsed ~bytes ~h
    ~divergences:(Atomic.get divergences) ~errors:(Atomic.get errors) ~retries
    ~restarts;
  if Atomic.get divergences > 0 then exit 1

(* -------------------------------------------------- JSON export *)

let write_engines_json rows =
  let path = "BENCH_engines.json" in
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"dataset\": %S, \"engine\": %S, \"time_s\": %.6f, \
         \"mb_per_s\": %.3f, \"cache_hit_rate\": %s, \"matches\": %d, \
         \"agree\": %b}%s\n"
        r.E.er_dataset r.E.er_engine r.E.er_time r.E.er_mbps
        (match r.E.er_hit_rate with
        | None -> "null"
        | Some hr -> Printf.sprintf "%.6f" hr)
        r.E.er_matches r.E.er_agree
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* BENCH_planner.json: one object with the planner comparison and the
   cache churn ablation side by side — the machine-readable
   form of `bench planner`, committed at the repo root and checked by
   the CI planner gate. *)
let write_planner_json feats prows crows =
  let module Planner = Mfsa_engine.Planner in
  let path = "BENCH_planner.json" in
  let oc = open_out path in
  let opt = function None -> "null" | Some s -> Printf.sprintf "%S" s in
  output_string oc "{\n  \"features\": [\n";
  let flast = List.length feats - 1 in
  List.iteri
    (fun i (abbr, f, choice) ->
      Printf.fprintf oc
        "    {\"dataset\": %S, \"states\": %d, \"fsas\": %d, \
         \"transitions\": %d, \"classes\": %d, \"density\": %.6f, \
         \"literal_share\": %.6f, \"prefilter\": %b, \"plan\": %S}%s\n"
        abbr f.Planner.f_states f.Planner.f_fsas f.Planner.f_transitions
        f.Planner.f_classes f.Planner.f_density f.Planner.f_literal_share
        f.Planner.f_prefilter choice
        (if i = flast then "" else ","))
    feats;
  output_string oc "  ],\n  \"planner\": [\n";
  let plast = List.length prows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"dataset\": %S, \"engine\": %S, \"planned\": %s, \
         \"active\": %s, \"time_s\": %.6f, \"mb_per_s\": %.3f, \
         \"vs_best\": %.4f, \"matches\": %d, \"agree\": %b}%s\n"
        r.E.pl_dataset r.E.pl_engine (opt r.E.pl_planned) (opt r.E.pl_active)
        r.E.pl_time r.E.pl_mbps r.E.pl_vs_best r.E.pl_matches r.E.pl_agree
        (if i = plast then "" else ","))
    prows;
  output_string oc "  ],\n  \"churn\": [\n";
  let clast = List.length crows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"dataset\": %S, \"policy\": %S, \"cache_rows\": %d, \
         \"time_s\": %.6f, \"mb_per_s\": %.3f, \"hit_rate\": %.6f, \
         \"flushes\": %d, \"evictions\": %d, \"grows\": %d, \
         \"capacity\": %d, \"resident\": %d, \"matches\": %d, \
         \"agree\": %b}%s\n"
        r.E.cr_dataset r.E.cr_policy r.E.cr_cache_rows r.E.cr_time
        r.E.cr_mbps r.E.cr_hit_rate r.E.cr_flushes r.E.cr_evictions
        r.E.cr_grows r.E.cr_capacity r.E.cr_resident r.E.cr_matches
        r.E.cr_agree
        (if i = clast then "" else ","))
    crows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d planner rows, %d churn rows)\n" path
    (List.length prows) (List.length crows)

(* `bench planner`: the adaptive-planner gate. Prints the auto-vs-
   concrete comparison and the clock-vs-flush churn ablation, writes
   BENCH_planner.json, and exits 1 if any row's match counts diverge
   from the iMFAnt reference. *)
let planner_bench cfg =
  let feats = E.planner_features cfg in
  let prows = E.planner_rows cfg in
  let crows = E.churn_rows cfg in
  print_string (E.planner_report cfg feats prows crows);
  print_newline ();
  write_planner_json feats prows crows;
  if
    List.exists (fun r -> not r.E.pl_agree) prows
    || List.exists (fun r -> not r.E.cr_agree) crows
  then exit 1

let json_float_array a =
  "["
  ^ String.concat ", "
      (Array.to_list (Array.map (Printf.sprintf "%.4f") a))
  ^ "]"

let write_serve_json rows =
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"dataset\": %S, \"engine\": %S, \"domains\": %d, \
         \"inputs\": %d, \"bytes\": %d, \"seq_mb_per_s\": %.3f, \
         \"par_mb_per_s\": %.3f, \"speedup\": %.3f, \"queue_hwm\": %d, \
         \"queue_capacity\": %d, \"utilisation\": %s, \"agree\": %b}%s\n"
        r.sr_dataset r.sr_engine r.sr_domains r.sr_inputs r.sr_bytes
        r.sr_seq_mbps r.sr_par_mbps
        (if r.sr_seq_mbps > 0. then r.sr_par_mbps /. r.sr_seq_mbps else 0.)
        r.sr_queue_hwm r.sr_queue_capacity
        (json_float_array r.sr_utilisation)
        r.sr_agree
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* Everything the json run observed, as one metric snapshot: the
   process-wide registry (compile-stage spans and counters from every
   compile the run performed), each engine row's warm counters
   (dataset- and engine-labelled) and each parallel service's full
   view (per-domain histograms included). *)
let write_obs_json engine_rows serve_rows =
  let merged =
    Snapshot.merge
      (Obs.snapshot Obs.default
      :: (List.map (fun r -> r.E.er_stats) engine_rows
         @ List.map (fun r -> r.sr_obs) serve_rows))
  in
  let path = "BENCH_obs.json" in
  let oc = open_out path in
  output_string oc (Snapshot.to_json merged);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s (%d samples)\n" path (List.length merged)

(* ------------------------------------------- artifact persistence *)

type persist_row = {
  pr_dataset : string;
  pr_rules : int;
  pr_bytes : int;
  pr_compile_s : float;
  pr_save_s : float;
  pr_load_s : float;
  pr_agree : (string * bool) list;
}

let persist_speedup r = if r.pr_load_s > 0. then r.pr_compile_s /. r.pr_load_s else 0.

let write_persist_json rows =
  let path = "BENCH_persist.json" in
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"dataset\": %S, \"rules\": %d, \"artifact_bytes\": %d, \
         \"compile_ms\": %.3f, \"save_ms\": %.3f, \"load_ms\": %.3f, \
         \"load_speedup\": %.3f, \"agreement\": {%s}, \"diverged\": %b}%s\n"
        r.pr_dataset r.pr_rules r.pr_bytes (r.pr_compile_s *. 1e3)
        (r.pr_save_s *. 1e3) (r.pr_load_s *. 1e3) (persist_speedup r)
        (String.concat ", "
           (List.map (fun (e, a) -> Printf.sprintf "%S: %b" e a) r.pr_agree))
        (List.exists (fun (_, a) -> not a) r.pr_agree)
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* `bench persist`: the compiled-artifact persistence gate. Per
   dataset: compile the ruleset to engine-ready tables (pipeline run
   plus the derived execution tables Artifact.export persists), save
   the artifact, reload it, and time both roads to engine-ready — the
   load side is O(artifact size) and must beat recompilation. Every
   table-capable engine then replays the same stream from the compiled
   and the reloaded tables; a count mismatch marks the row DIVERGED
   and fails the run. Writes BENCH_persist.json. *)
let persist_bench cfg =
  let stream_size = cfg.E.stream_kb * 1024 in
  let rows =
    List.map
      (fun ds ->
        (* Best of three on both roads to engine-ready tables — same
           sampling for compile and load, so the reported ratio is not
           an artefact of asymmetric noise. *)
        let best_of_3 f =
          let samples = [ time f; time f; time f ] in
          List.fold_left
            (fun (bt, bv) (t, v) -> if t < bt then (t, v) else (bt, bv))
            (List.hd samples) (List.tl samples)
        in
        let t_compile, (c, tables) =
          best_of_3 (fun () ->
              let c = Pipeline.compile_exn ds.Datasets.rules in
              (c, Artifact.export c.Pipeline.mfsas))
        in
        let path =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "mfsa_persist_%s_%d.mfsa" ds.Datasets.abbr
               (Unix.getpid ()))
        in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let t_save, () = time (fun () -> Artifact.save path tables) in
            let bytes = (Unix.stat path).Unix.st_size in
            let t_load, loaded = best_of_3 (fun () -> Artifact.load path) in
            let stream =
              Stream_gen.generate ~seed:97 ~payload:ds.Datasets.payload
                ~size:stream_size ds.Datasets.rules
            in
            let counts compile parts =
              List.map (fun p -> Engine_sig.count (compile p) stream) parts
            in
            let agree =
              List.map
                (fun name ->
                  ( name,
                    counts (Registry.compile_automaton_exn name) c.Pipeline.mfsas
                    = counts (Registry.compile_tables_exn name) loaded ))
                (Registry.table_capable_names ())
            in
            let r =
              {
                pr_dataset = ds.Datasets.abbr;
                pr_rules = Array.length ds.Datasets.rules;
                pr_bytes = bytes;
                pr_compile_s = t_compile;
                pr_save_s = t_save;
                pr_load_s = t_load;
                pr_agree = agree;
              }
            in
            Printf.printf
              "persist %s: %d rules, %d B artifact; compile %.2f ms, save \
               %.2f ms, load %.2f ms (%.1fx); %s\n%!"
              r.pr_dataset r.pr_rules r.pr_bytes (t_compile *. 1e3)
              (t_save *. 1e3) (t_load *. 1e3) (persist_speedup r)
              (String.concat ", "
                 (List.map
                    (fun (e, a) -> e ^ if a then " AGREE" else " DIVERGED")
                    agree));
            r))
      (Datasets.all ~scale:cfg.E.scale ())
  in
  write_persist_json rows;
  if List.exists (fun r -> List.exists (fun (_, a) -> not a) r.pr_agree) rows
  then exit 1

(* ------------------------------------------------- SFA scaling *)

type sfa_row = {
  sf_dataset : string;
  sf_inner : string;
  sf_bytes : int;
  sf_domains : int;
  sf_seq_mbps : float;
  sf_span_mbps : float;
  sf_wall_mbps : float;
  sf_span_speedup : float;
  sf_wall_speedup : float;
  sf_agree : bool;
}

let write_sfa_json rows =
  let path = "BENCH_sfa.json" in
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"dataset\": %S, \"engine\": \"sfa{domains=%d,threshold=1}:%s\", \
         \"inner\": %S, \"bytes\": %d, \"domains\": %d, \
         \"seq_mb_per_s\": %.3f, \"span_mb_per_s\": %.3f, \
         \"wall_mb_per_s\": %.3f, \"span_speedup\": %.3f, \
         \"wall_speedup\": %.3f, \"agree\": %b}%s\n"
        r.sf_dataset r.sf_domains r.sf_inner r.sf_inner r.sf_bytes
        r.sf_domains r.sf_seq_mbps r.sf_span_mbps r.sf_wall_mbps
        r.sf_span_speedup r.sf_wall_speedup r.sf_agree
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* `bench sfa`: the intra-input parallelism gate. One multi-MB stream
   per dataset; the iMFAnt whole-string run is the reference. For 1–4
   chunk domains, two measurements of the same split:

   - span: the chunk passes run sequentially, each timed, plus the
     join ([Sfa.run_span]); span time = max chunk time + join time —
     the critical path a box with that many free cores would see,
     independent of how many cores this box has.
   - wall: the real [Sfa.run], chunk passes on spawned domains —
     honest wall clock, but meaningless as a scaling signal on a
     single-core container.

   The span speedup's sequential time is measured beside its span,
   per domain count: the two passes alternate, best of at least 5
   rounds each, so a disturbance hits both sides of the ratio rather
   than one sequential sample skewing every row.

   Both paths' event lists must equal the sequential reference exactly
   (DIVERGED and exit 1 otherwise). Writes BENCH_sfa.json. *)
let sfa_bench cfg =
  let inner = "imfant" in
  let reps = max 1 cfg.E.reps in
  let rounds = max 5 reps in
  let best f =
    let r = ref (f ()) in
    for _ = 2 to reps do
      let s = f () in
      if fst s < fst !r then r := s
    done;
    !r
  in
  let size = max (256 * 1024) (cfg.E.stream_kb * 1024) in
  let mbps seconds =
    if seconds > 0. then float_of_int size /. 1e6 /. seconds else 0.
  in
  let rows =
    List.concat_map
      (fun ds ->
        let fsas = Result.get_ok (Pipeline.build_fsas ds.Datasets.rules) in
        let z = Merge.merge fsas in
        let stream =
          Stream_gen.generate ~seed:83 ~payload:ds.Datasets.payload ~size
            ds.Datasets.rules
        in
        let im = Imfant.compile z in
        let reference =
          List.sort compare
            (List.map
               (fun e -> (e.Imfant.fsa, e.Imfant.end_pos))
               (Imfant.run im stream))
        in
        List.map
          (fun d ->
            let sf =
              Mfsa_engine.Sfa.compile
                { Mfsa_engine.Sfa.domains = d; threshold = 1 }
                ~inner z
            in
            let events l =
              List.sort compare
                (List.map
                   (fun e ->
                     (e.Mfsa_engine.Sfa.fsa, e.Mfsa_engine.Sfa.end_pos))
                   l)
            in
            let t_wall, wall_events =
              best (fun () -> time (fun () -> Mfsa_engine.Sfa.run sf stream))
            in
            let span_of t =
              Array.fold_left max 0. t.Mfsa_engine.Sfa.chunk_s
              +. t.Mfsa_engine.Sfa.join_s
            in
            let t_seq = ref infinity and t_span = ref infinity in
            let span_events = ref [] in
            for _ = 1 to rounds do
              let dt, _ = time (fun () -> Imfant.run im stream) in
              t_seq := Float.min !t_seq dt;
              let ev, t = Mfsa_engine.Sfa.run_span sf stream in
              t_span := Float.min !t_span (span_of t);
              span_events := ev
            done;
            let t_seq = !t_seq and t_span = !t_span in
            let agree =
              events wall_events = reference && events !span_events = reference
            in
            let r =
              {
                sf_dataset = ds.Datasets.abbr;
                sf_inner = inner;
                sf_bytes = size;
                sf_domains = d;
                sf_seq_mbps = mbps t_seq;
                sf_span_mbps = mbps t_span;
                sf_wall_mbps = mbps t_wall;
                sf_span_speedup = (if t_span > 0. then t_seq /. t_span else 0.);
                sf_wall_speedup = (if t_wall > 0. then t_seq /. t_wall else 0.);
                sf_agree = agree;
              }
            in
            Printf.printf
              "sfa %s d=%d: seq %.1f MB/s, span %.1f MB/s (%.2fx), wall %.1f \
               MB/s (%.2fx) %s\n%!"
              r.sf_dataset d r.sf_seq_mbps r.sf_span_mbps r.sf_span_speedup
              r.sf_wall_mbps r.sf_wall_speedup
              (if agree then "AGREE" else "DIVERGED")
            ;
            r)
          [ 1; 2; 3; 4 ])
      (Datasets.all ~scale:cfg.E.scale ())
  in
  write_sfa_json rows;
  if List.exists (fun r -> not r.sf_agree) rows then exit 1

(* ---------------------------------------------------- Entry point *)

let experiments ~engines ~engine =
  [
    ("fig1", E.fig1); ("table1", E.table1); ("fig7", E.fig7); ("fig8", E.fig8);
    ("table2", E.table2); ("fig9", E.fig9); ("fig10", E.fig10);
    ("ablation-ccsplit", E.ablation_ccsplit);
    ("ablation-cluster", E.ablation_cluster);
    ("ablation-bisim", E.ablation_bisim); ("baselines", E.baselines);
    ("engine-compare", fun cfg -> E.engine_compare ?engines cfg);
    ("complexity", E.complexity); ("live-update", live_update);
    ("serve", serve_bench ~engine);
  ]

let () =
  (* The same -e/--engine flag as mfsa-match and mfsa-live, pulled out
     of the artefact names before dispatch. *)
  let rec split acc engine = function
    | [] -> (List.rev acc, engine)
    | [ ("-e" | "--engine") ] ->
        prerr_endline "bench: -e/--engine needs an engine name (or 'help')";
        exit 2
    | ("-e" | "--engine") :: v :: rest -> split acc (Some v) rest
    | a :: rest -> split (a :: acc) engine rest
  in
  let args, engine_opt = split [] None (List.tl (Array.to_list Sys.argv)) in
  (match engine_opt with
  | Some "help" ->
      print_string (Registry.help ());
      exit 0
  | Some e when Option.is_none (Registry.find e) ->
      Printf.eprintf "bench: %s\n" (Registry.unknown_message e);
      exit 2
  | _ -> ());
  let engine = Option.value ~default:"imfant" engine_opt in
  let engines = Option.map (fun e -> [ e ]) engine_opt in
  let experiments = experiments ~engines ~engine in
  match args with
  | [ "bechamel" ] -> run_bechamel ()
  | [ "json" ] ->
      let cfg = E.default () in
      let engine_rows = E.engine_rows ?engines cfg in
      let serve_rows = serve_measurements ~engine cfg in
      write_engines_json engine_rows;
      write_serve_json serve_rows;
      write_obs_json engine_rows serve_rows
  | [ "serve-check" ] -> serve_check ~engine ()
  | [ "persist" ] -> persist_bench (E.default ())
  | [ "planner" ] -> planner_bench (E.default ())
  | [ "sfa" ] -> sfa_bench (E.default ())
  | "loadgen" :: rest -> loadgen ~engine rest
  | [] ->
      let cfg = E.default () in
      Printf.printf
        "MFSA evaluation harness (scale %.2f, stream %d KiB, %d reps)\n\
         Set MFSA_SCALE / MFSA_STREAM_KB / MFSA_REPS or use bin/mfsa_report\n\
         --paper-scale for the paper's full configuration.\n\n"
        cfg.E.scale cfg.E.stream_kb cfg.E.reps;
      print_string (E.run_all cfg);
      print_newline ();
      print_string (live_update cfg);
      print_newline ();
      print_string (serve_bench ~engine cfg);
      print_newline ();
      run_bechamel ()
  | names ->
      let cfg = E.default () in
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) experiments with
          | Some f ->
              print_string (f cfg);
              print_newline ()
          | None ->
              Printf.eprintf
                "unknown artefact %S (expected bechamel, json, serve-check, \
                 planner, sfa, persist, %s)\n"
                name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
