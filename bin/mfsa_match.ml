(* mfsa-match: the MFSA engines as a CLI (paper §V).

   Loads an extended-ANML file produced by mfsa-compile (or, with
   --rules, compiles a plain rules file in-process) and matches an
   input stream with any registered engine, printing per-rule match
   counts and, optionally, every match event — the engine-side half of
   the compile → file → execute path. With --metrics the run is
   instead served through the domain-parallel Serve layer and the only
   output is a metrics dump (Prometheus text or JSON) covering the
   compile pipeline, the engines and the service — the scrape target
   the CI observability gate validates. *)

module Anml = Mfsa_anml.Anml
module Mfsa = Mfsa_model.Mfsa
module Engine_sig = Mfsa_engine.Engine_sig
module Registry = Mfsa_engine.Registry
module Pool = Mfsa_engine.Pool
module Pipeline = Mfsa_core.Pipeline
module Report = Mfsa_core.Report
module Serve = Mfsa_serve.Serve
module Obs = Mfsa_obs.Obs
module Snapshot = Mfsa_obs.Snapshot

let now () = Mfsa_util.Clock.now ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --metrics: serve the input through one Serve instance per automaton
   (threads worker domains each) and print nothing but the merged
   metric snapshot — process-wide registry (compile spans when --rules
   compiled here) plus every service's full view, tagged mfsa=<i>.
   The serving path carries the fault-tolerance knobs: --deadline,
   --retries and --admission; a batch that times out or is rejected
   still dumps the metrics (the timeout/rejection counters included)
   but exits non-zero with the typed error on stderr. Every service
   loads its replicas from one of the source's table bundles. *)
let run_metrics tables input threads engine fmt ~deadline ~retries ~admission =
  let failed = ref None in
  let services =
    List.map
      (fun tb ->
        Serve.create_source ~engine ~domains:threads ~admission ~retries
          (Engine_cli.Source.Tables [ tb ]))
      tables
  in
  let snaps =
    List.mapi
      (fun gi srv ->
        Fun.protect
          ~finally:(fun () -> Serve.shutdown srv)
          (fun () ->
            (match Serve.try_match_batch ?deadline srv [| input |] with
            | Ok _ -> ()
            | Error e ->
                if !failed = None then failed := Some (Serve.error_to_string e)
            | exception Serve.Job_error { slot; error } ->
                if !failed = None then
                  failed :=
                    Some
                      (Printf.sprintf "job %d failed: %s" slot
                         (Printexc.to_string error)));
            Snapshot.with_labels
              [ ("mfsa", string_of_int gi) ]
              (Serve.snapshot srv)))
      services
  in
  let merged = Snapshot.merge (Obs.snapshot Obs.default :: snaps) in
  print_string
    (match fmt with
    | `Prometheus -> Snapshot.to_prometheus merged
    | `Json -> Snapshot.to_json merged ^ "\n");
  match !failed with
  | None -> 0
  | Some msg ->
      Printf.eprintf "mfsa-match: %s\n" msg;
      1

(* The positionals: [RULESET STREAM] normally, just [STREAM] under
   --load (the artifact replaces the ruleset argument). *)
let classify_paths ~load ~rules paths =
  match (load, paths) with
  | Some artifact, [ input ] ->
      Ok (Engine_cli.Source.Artifact_file artifact, input)
  | Some _, _ -> Error "with --load, pass exactly one positional: the STREAM"
  | None, [ ruleset; input ] ->
      Result.map
        (fun source -> (source, input))
        (Engine_cli.source_of_ruleset ~rules ruleset)
  | None, _ -> Error "pass a RULESET (ANML, rules or artifact) and a STREAM"

let run paths load threads list_events stats rules metrics deadline retries
    admission engine =
  match Engine_cli.resolve ~prog:"mfsa-match" engine with
  | Error code -> code
  | Ok engine -> (
      match classify_paths ~load ~rules paths with
      | Error msg ->
          Printf.eprintf "mfsa-match: %s\n" msg;
          1
      | Ok (source, input_path) when metrics <> None -> (
          (* Resolve the source once and build one service per
             automaton. *)
          match
            Engine_cli.catch_source (fun () -> Engine_cli.Source.resolve source)
          with
          | Error msg ->
              Printf.eprintf "mfsa-match: %s\n" msg;
              1
          | Ok tables ->
              let input = read_file input_path in
              run_metrics tables input threads engine (Option.get metrics)
                ~deadline ~retries ~admission)
      | Ok (source, input_path) -> (
          let input = read_file input_path in
          (* A bad ruleset or artifact fails to load — a user error,
             not an internal one. *)
          match Engine_cli.compile_source engine source with
          | Error msg ->
              Printf.eprintf "mfsa-match: %s\n" msg;
              1
          | Ok engines ->
          let engines = Array.of_list engines in
          let t0 = now () in
          let result =
            Pool.run ~threads
              ~jobs:(Array.map (fun eng () -> Engine_sig.run eng input) engines)
          in
          let elapsed = now () -. t0 in
          let total = ref 0 in
          Array.iteri
            (fun gi events ->
              let z = Engine_sig.mfsa engines.(gi) in
              let counts = Array.make z.Mfsa.n_fsas 0 in
              List.iter
                (fun e ->
                  counts.(e.Engine_sig.fsa) <- counts.(e.Engine_sig.fsa) + 1;
                  if list_events then
                    Printf.printf "match mfsa=%d rule=%d pattern=%s end=%d\n" gi
                      e.Engine_sig.fsa
                      z.Mfsa.patterns.(e.Engine_sig.fsa)
                      e.Engine_sig.end_pos)
                events;
              Array.iteri
                (fun j c ->
                  total := !total + c;
                  Printf.printf "rule %d.%d  %-40s %d matches\n" gi j
                    z.Mfsa.patterns.(j) c)
                counts;
              if stats then
                Printf.printf "mfsa %d stats: %s\n" gi
                  (String.concat ", "
                     (List.map
                        (fun (k, v) -> k ^ "=" ^ v)
                        (Snapshot.to_kv ~drop_labels:[ "engine" ]
                           (Engine_sig.stats engines.(gi))))))
            result.Pool.values;
          Printf.printf
            "total: %d matches over %d bytes in %s (%s engine, %d thread%s)\n"
            !total (String.length input)
            (Report.fmt_time elapsed)
            engine threads
            (if threads = 1 then "" else "s");
          0))

open Cmdliner

let paths =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"RULESET STREAM"
        ~doc:
          "Normally two files: the compiled ruleset (extended ANML from \
           mfsa-compile, a binary artifact from mfsa-compile --emit — \
           recognised by magic — or, with $(b,--rules), plain rules) and the \
           input stream. With $(b,--load) just the stream.")

let rules =
  Arg.(
    value & flag
    & info [ "rules" ]
        ~doc:
          "Treat $(docv) as a plain rules file (one pattern per line) and \
           compile it in-process instead of loading extended ANML — the \
           compile-stage latency spans then appear in $(b,--metrics) output."
        ~docv:"ANML")

let metrics =
  let fmt =
    Arg.enum [ ("prom", `Prometheus); ("json", `Json) ]
  in
  Arg.(
    value
    & opt ~vopt:(Some `Prometheus) (some fmt) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Serve the stream through the domain-parallel service (one worker \
           per $(b,--threads)) and print only a metrics dump in $(docv) \
           format ($(b,prom), the default, or $(b,json)): compile-stage \
           spans, engine counters and per-domain service histograms.")

let threads =
  Arg.(
    value & opt int 1
    & info [ "t"; "threads" ] ~docv:"T" ~doc:"Worker threads for the MFSA pool.")

let list_events =
  Arg.(value & flag & info [ "l"; "list" ] ~doc:"Print every match event.")

let stats =
  Arg.(
    value & flag
    & info [ "s"; "stats" ]
        ~doc:
          "Report per-MFSA engine statistics (each engine reports its own: \
           prefilter skips for imfant, cache behaviour for hybrid, the plan \
           for auto).")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Per-batch deadline for the $(b,--metrics) serving path, in \
           seconds. An expired deadline cancels the batch's unexecuted jobs \
           and exits non-zero after dumping the metrics (the \
           mfsa_serve_timeouts_total counter records it).")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts a job gets on a transient or replica-poisoning \
           fault before the failure surfaces — the retry budget of the \
           $(b,--metrics) serving path (pair with a $(b,faulty{..}:)-wrapped \
           $(b,--engine) to exercise it).")

let admission =
  let policy =
    Arg.enum
      [
        ("block", Serve.Block); ("reject", Serve.Reject);
        ("shed", Serve.Shed_oldest);
      ]
  in
  Arg.(
    value
    & opt policy Serve.Block
    & info [ "admission" ] ~docv:"POLICY"
        ~doc:
          "What a full submission queue does to a $(b,--metrics) batch: \
           $(b,block) the submitter (backpressure, the default), \
           $(b,reject) the batch, or $(b,shed) the oldest queued job of \
           another batch.")

let cmd =
  Cmd.v
    (Cmd.info "mfsa-match" ~version:"1.0.0"
       ~doc:"Execute compiled MFSAs against an input stream")
    Term.(
      const run $ paths $ Engine_cli.load_term () $ threads $ list_events
      $ stats $ rules $ metrics $ deadline $ retries $ admission
      $ Engine_cli.term ())

let () = Engine_cli.main cmd
