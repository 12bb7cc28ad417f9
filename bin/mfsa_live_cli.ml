(* mfsa-live: the live-update subsystem as a CLI.

   Drives a Live.t handle from a small command script (a file, or
   stdin), exercising the zero-downtime update path end to end:
   incremental rule adds, O(1)-amortised removals, explicit
   compaction, generation-pinned streaming sessions. One command per
   line; blank lines and lines starting with '#' are skipped.

   The -e flag accepts any Registry name, including the
   faulty{..}:<engine> fault-injection wrapper — note live sessions
   stream through the wrapped engine's session API, which injects no
   faults (Faulty models per-request serving failures). *)

module Live = Mfsa_live.Live
module Snapshot = Mfsa_obs.Snapshot

(* [pats] remembers every pattern ever added (the live handle forgets
   removed rules), so events from a session still pinned to an older
   generation keep their labels. [metrics_every] > 0 dumps the metric
   snapshot after every N executed commands — a poor man's scrape
   loop for script-driven runs. *)
type st = {
  lv : Live.t;
  mutable sess : Live.session option;
  pats : (int, string) Hashtbl.t;
  metrics_every : int;
  mutable executed : int;
}

let print_metrics st = print_string (Snapshot.to_prometheus (Live.metrics st.lv))

let print_events st evs =
  List.iter
    (fun e ->
      Printf.printf "match rule=%d pattern=%s end=%d\n" e.Live.rule
        (Option.value ~default:"?" (Hashtbl.find_opt st.pats e.Live.rule))
        e.Live.end_pos)
    evs

(* The session is created lazily at the first streaming command, so it
   pins the generation current at that point, exactly like an engine
   process that opens its stream after loading the day's rules. *)
let session st =
  match st.sess with
  | Some s -> s
  | None ->
      let s = Live.session st.lv in
      st.sess <- Some s;
      s

let exec st line =
  let cmd, arg =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
  in
  match (cmd, arg) with
  | "add", "" -> print_string "error: add wants a pattern\n"
  | "add", pattern -> (
      match Live.add_rule st.lv pattern with
      | Ok id ->
          Hashtbl.replace st.pats id pattern;
          Printf.printf "added rule %d (gen %d)\n" id (Live.generation st.lv)
      | Error e ->
          Printf.printf "error: %s\n" (Mfsa_core.Pipeline.error_to_string e))
  | "remove", id -> (
      match int_of_string_opt id with
      | None -> Printf.printf "error: remove wants a rule id, got %S\n" id
      | Some id ->
          if Live.remove_rule st.lv id then
            Printf.printf "removed rule %d (gen %d)\n" id (Live.generation st.lv)
          else Printf.printf "error: no live rule %d\n" id)
  | "match", input ->
      let evs = Live.run st.lv input in
      print_events st evs;
      Printf.printf "%d matches (gen %d)\n" (List.length evs)
        (Live.generation st.lv)
  | "feed", chunk ->
      let s = session st in
      print_events st (Live.feed s chunk);
      Printf.printf "fed %d bytes (session gen %d, pos %d)\n"
        (String.length chunk)
        (Live.session_generation s)
        (Live.position s)
  | "finish", "" ->
      let s = session st in
      print_events st (Live.finish s);
      Printf.printf "stream finished at %d bytes\n" (Live.position s)
  | "reset", "" ->
      let s = session st in
      Live.reset s;
      Printf.printf "session reset (gen %d)\n" (Live.session_generation s)
  | "compact", "" ->
      Live.compact st.lv;
      Printf.printf "compacted (gen %d)\n" (Live.generation st.lv)
  | "rules", "" ->
      List.iter
        (fun (id, p) -> Printf.printf "rule %d  %s\n" id p)
        (Live.rules st.lv)
  | "stats", "" ->
      let s = Live.stats st.lv in
      Printf.printf
        "gen %d: %d rules, %d states, %d transitions (%d dead), %d compactions\n"
        s.Live.generation s.Live.live_rules s.Live.states s.Live.transitions
        s.Live.dead_transitions s.Live.compactions
  | "metrics", "" -> print_metrics st
  | _ ->
      Printf.printf
        "error: unknown command %S (expected add/remove/match/feed/finish/\
         reset/compact/rules/stats/metrics)\n"
        line

let run script gc_threshold rules load metrics_every engine =
  match Engine_cli.resolve ~prog:"mfsa-live" engine with
  | Error code -> code
  | Ok engine -> (
  if gc_threshold < 0. || gc_threshold > 1. then (
    Printf.eprintf "mfsa-live: --gc-threshold must be within [0, 1], got %g\n"
      gc_threshold;
    exit 124);
  (* --load adopts a compiled artifact as generation 0 (rule id j =
     merged FSA j); -r rules compile through the pipeline. *)
  let source =
    match (load, rules) with
    | Some path, [] -> Ok (Engine_cli.Source.Artifact_file path)
    | Some _, _ :: _ -> Error "pass --load or -r rules, not both"
    | None, rules -> Ok (Engine_cli.Source.Rules (Array.of_list rules))
  in
  match
    match source with
    | Error msg -> Error msg
    | Ok source -> (
        match
          Engine_cli.catch_source (fun () ->
              Live.of_source ~engine ~gc_threshold source)
        with
        | Error msg -> Error msg
        | Ok (Error e) -> Error (Mfsa_core.Pipeline.error_to_string e)
        | Ok (Ok lv) -> Ok lv)
  with
  | Error msg ->
      Printf.eprintf "mfsa-live: %s\n" msg;
      1
  | Ok lv ->
      let st =
        {
          lv;
          sess = None;
          pats = Hashtbl.create 64;
          metrics_every;
          executed = 0;
        }
      in
      List.iter (fun (id, p) -> Hashtbl.replace st.pats id p) (Live.rules lv);
      let ic = match script with Some p -> open_in p | None -> stdin in
      Fun.protect
        ~finally:(fun () -> if script <> None then close_in ic)
        (fun () ->
          (try
             while true do
               let line = String.trim (input_line ic) in
               if line <> "" && line.[0] <> '#' then begin
                 exec st line;
                 st.executed <- st.executed + 1;
                 if st.metrics_every > 0 && st.executed mod st.metrics_every = 0
                 then print_metrics st
               end
             done
           with End_of_file -> ());
          0))

open Cmdliner

let script =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"SCRIPT"
        ~doc:"Command script, one command per line (default: stdin).")

let gc_threshold =
  Arg.(
    value
    & opt float 0.25
    & info [ "g"; "gc-threshold" ] ~docv:"FRAC"
        ~doc:
          "Dead-transition fraction that triggers automatic compaction after \
           a removal; 0 compacts on every removal, 1 only on explicit \
           $(b,compact).")

let rules =
  Arg.(
    value & opt_all string []
    & info [ "r"; "rule" ] ~docv:"RE" ~doc:"Initial rule (repeatable).")

let load =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Adopt a compiled binary artifact (from $(b,mfsa-compile --emit)) \
           as the initial generation: rule ids are the artifact's merged-FSA \
           order, and the first generation's engine comes up from the \
           persisted tables without recompiling. Mutually exclusive with \
           $(b,-r).")

let metrics_every =
  Arg.(
    value & opt int 0
    & info [ "metrics-every" ] ~docv:"N"
        ~doc:
          "Print a Prometheus metrics dump (the $(b,metrics) command's \
           output, tagged with the current generation) after every $(docv) \
           executed commands; 0 (the default) disables the periodic dump.")

let cmd =
  Cmd.v
    (Cmd.info "mfsa-live" ~version:"1.0.0"
       ~doc:"Drive a live MFSA ruleset: incremental adds, retirement, \
             compaction and generation-pinned streaming")
    Term.(
      const run $ script $ gc_threshold $ rules $ load $ metrics_every
      $ Engine_cli.term ())

let () = Engine_cli.main cmd
