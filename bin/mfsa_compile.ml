(* mfsa-compile: the compilation framework as a CLI (paper Fig. 4).

   Reads a ruleset (one POSIX ERE per line, '#' comments allowed),
   runs the full pipeline with a chosen merging factor and writes the
   extended-ANML output. *)

module Pipeline = Mfsa_core.Pipeline
module Report = Mfsa_core.Report
module Datasets = Mfsa_datasets.Datasets
module Artifact = Mfsa_artifact.Artifact

let setup_logs debug =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if debug then Logs.Debug else Logs.Warning))

let run rules_file dataset m output emit verbose debug homogeneous =
  setup_logs debug;
  let rules =
    match (rules_file, dataset) with
    | Some path, None -> (
        match Engine_cli.Source.read_rules_file path with
        | rules -> Ok rules
        | exception Engine_cli.Source.Error msg -> Error msg)
    | None, Some abbr -> (
        match Datasets.find abbr with
        | Some d -> Ok d.Datasets.rules
        | None ->
            Error
              (Printf.sprintf
                 "unknown dataset %S (expected BRO, DS9, PEN, PRO, RG1 or TCP)"
                 abbr))
    | Some _, Some _ -> Error "pass either a rules file or --dataset, not both"
    | None, None -> Error "pass a rules file or --dataset (try --help)"
  in
  match rules with
  | Error msg ->
      prerr_endline ("mfsa-compile: " ^ msg);
      1
  | Ok rules -> (
      match Pipeline.compile ~m rules with
      | Error e ->
          prerr_endline ("mfsa-compile: " ^ Pipeline.error_to_string e);
          1
      | Ok c ->
          (* --emit without -o suppresses the ANML dump: the artifact
             is the product. Both together write both. *)
          if emit = None || output <> "-" then begin
            let oc = if output = "-" then stdout else open_out output in
            Fun.protect
              ~finally:(fun () -> if output <> "-" then close_out oc)
              (fun () ->
                if homogeneous then
                  List.iter
                    (fun z ->
                      output_string oc
                        (Mfsa_anml.Homogeneous.to_anml
                           (Mfsa_anml.Homogeneous.of_mfsa z)))
                    c.Pipeline.mfsas
                else output_string oc c.Pipeline.anml)
          end;
          let emit_failed =
            match emit with
            | None -> false
            | Some path -> (
                match Artifact.save path (Artifact.export c.Pipeline.mfsas) with
                | () ->
                    if verbose then
                      Printf.eprintf "artifact:     %s (%d bytes)\n" path
                        (Unix.stat path).Unix.st_size;
                    false
                | exception Artifact.Error e ->
                    prerr_endline
                      ("mfsa-compile: cannot write " ^ path ^ ": "
                      ^ Artifact.error_to_string e);
                    true)
          in
          if verbose then begin
            let before = Report.fsa_totals c.Pipeline.fsas in
            let after = Report.mfsa_totals c.Pipeline.mfsas in
            let cs, ct = Report.compression ~before ~after in
            Printf.eprintf "rules:        %d\n" (Array.length rules);
            Printf.eprintf "mfsas:        %d (M = %s)\n"
              (List.length c.Pipeline.mfsas)
              (if m = 0 then "all" else string_of_int m);
            Printf.eprintf "states:       %d -> %d (%.2f%% compression)\n"
              before.Report.states after.Report.states cs;
            Printf.eprintf "transitions:  %d -> %d (%.2f%% compression)\n"
              before.Report.transitions after.Report.transitions ct;
            let t = c.Pipeline.times in
            Printf.eprintf
              "times:        FE %s | AST->FSA %s | ME-single %s | ME-merging \
               %s | BE %s\n"
              (Report.fmt_time t.Pipeline.frontend)
              (Report.fmt_time t.Pipeline.conversion)
              (Report.fmt_time t.Pipeline.optimization)
              (Report.fmt_time t.Pipeline.merging)
              (Report.fmt_time t.Pipeline.backend)
          end;
          if emit_failed then 1 else 0)

open Cmdliner

let rules_file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"RULES" ~doc:"Rule file, one POSIX ERE per line ('-' for stdin).")

let dataset =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "dataset" ] ~docv:"ABBR"
        ~doc:"Use a built-in synthetic benchmark dataset (BRO, DS9, PEN, PRO, RG1, TCP).")

let m =
  Arg.(
    value & opt int 0
    & info [ "m"; "merging-factor" ] ~docv:"M"
        ~doc:"Merging factor: rules per MFSA; 0 merges the whole ruleset.")

let output =
  Arg.(
    value & opt string "-"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Extended-ANML output file ('-' for stdout).")

let emit =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~docv:"FILE"
        ~doc:
          "Also write a compiled binary artifact: the merged automata plus \
           every engine-ready table (byte classes, class-indexed \
           transitions, activation table, prefilter), loadable in O(size) by $(b,mfsa-match \
           --load), $(b,mfsa-served run --load) and $(b,mfsa-live --load). \
           Without $(b,-o), the ANML dump to stdout is suppressed.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print compression and stage-time statistics to stderr.")

let debug =
  Arg.(value & flag & info [ "debug" ] ~doc:"Enable debug logging of the compilation stages.")

let homogeneous =
  Arg.(
    value & flag
    & info [ "homogeneous" ]
        ~doc:"Emit homogeneous (STE-based) ANML, the Automata Processor dialect, instead of the library's loadable transition-based dialect.")

let cmd =
  Cmd.v
    (Cmd.info "mfsa-compile" ~version:"1.0.0"
       ~doc:"Compile a regular-expression ruleset into merged MFSAs (extended ANML)")
    Term.(
      const run $ rules_file $ dataset $ m $ output $ emit $ verbose $ debug
      $ homogeneous)

let () = Engine_cli.main cmd
