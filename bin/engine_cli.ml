(* Shared -e/--engine flag: every CLI resolves engine names against
   Mfsa_engine.Registry, so mfsa-match, mfsa-live and the benchmark
   driver accept exactly the same set of names. *)

module Registry = Mfsa_engine.Registry

open Cmdliner

let term ?(default = "imfant") () =
  Arg.(
    value & opt string default
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf
             "Matching engine, by registry name (default %s). Pass $(b,help) \
              to list the registered engines. Engines report identical match \
              counts; they differ only in speed and memory. Any name can be \
              wrapped as $(b,faulty{seed=..,fail_every=..}:)$(docv) for \
              deterministic fault injection."
             default))

(* [resolve ~prog name] validates [name] against the registry.
   [Ok name] is resolvable (registered, or a well-formed faulty{..}:
   wrapper spec); [Error code] means this function already printed
   (the `help` listing on stdout, or the unknown-engine / malformed-
   spec message on stderr) and the CLI should exit with [code]. *)
let resolve ~prog name =
  if name = "help" then begin
    print_string (Registry.help ());
    Error 0
  end
  else
    match Registry.find_exn name with
    | (module _ : Mfsa_engine.Engine_sig.S) -> Ok name
    | exception Invalid_argument msg ->
        Printf.eprintf "%s: %s\n" prog msg;
        Error 1

(* ------------------------------------------- SIGPIPE and friends *)

(* Every CLI is pipeline-friendly: `mfsa-report | head` must not die
   of SIGPIPE, and the resulting EPIPE (or the Sys_error the stdlib
   wraps it in on channel flush) is a clean early exit, not an
   internal error. *)

let init () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let epipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error msg ->
      (* "Broken pipe" is how out_channel flushes report EPIPE. *)
      let needle = "roken pipe" in
      let n = String.length msg and k = String.length needle in
      let rec scan i = i + k <= n && (String.sub msg i k = needle || scan (i + 1)) in
      scan 0
  | _ -> false

(* Shared entrypoint: ignore SIGPIPE, evaluate the command, map a
   broken-pipe escape to success, and drain the std channels while
   EPIPE can still be caught (a failed flush discards the buffer, so
   exit's own at_exit flush cannot re-raise). *)
let main cmd =
  init ();
  let code =
    try Cmdliner.Cmd.eval' ~catch:false cmd with
    | e when epipe e -> 0
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "%s: internal error, uncaught exception:\n%s\n"
          (Filename.basename Sys.executable_name)
          (Printexc.to_string e);
        Printexc.print_raw_backtrace stderr bt;
        Cmdliner.Cmd.Exit.internal_error
  in
  (* Format's standard formatters flush from [at_exit], where a
     Sys_error escape cannot be caught, and a failed channel flush
     keeps its buffer, so every later flush re-raises. Drain what the
     pipe still accepts, then point the std fds at /dev/null so the
     at_exit passes land harmlessly. *)
  (try Format.pp_print_flush Format.std_formatter () with Sys_error _ -> ());
  (try Format.pp_print_flush Format.err_formatter () with Sys_error _ -> ());
  (try flush stdout with Sys_error _ -> ());
  (try flush stderr with Sys_error _ -> ());
  (try
     let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     Unix.dup2 null Unix.stdout;
     Unix.dup2 null Unix.stderr;
     Unix.close null
   with Unix.Unix_error _ | Sys_error _ -> ());
  exit code

(* ------------------------------------------- Unified source handling *)

(* Every CLI resolves "where do the automata come from" the same way:
   an explicit --load file, or a positional ruleset argument sniffed
   for the artifact magic and otherwise read as extended ANML or (with
   --rules) a plain rules file. Referencing the artifact library here
   also guarantees its Source loader hook is linked into every CLI. *)

module Source = Mfsa_engine.Source
module Artifact = Mfsa_artifact.Artifact
module Pipeline = Mfsa_core.Pipeline

let () = Artifact.link ()

let load_term () =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Load a compiled binary artifact (written by $(b,mfsa-compile \
           --emit)) instead of compiling rules: startup is O(artifact \
           size), no pipeline run. Every engine accepts it.")

(* [source_of_ruleset ~rules path] classifies a positional ruleset
   argument. The artifact magic wins over both flags — a .mfsa file is
   never misparsed as ERE rules or ANML — then --rules selects the
   plain rules-file reading, and extended ANML is the default. *)
let source_of_ruleset ~rules path =
  if path <> "-" && Source.is_artifact_file path then
    Ok (Source.Artifact_file path)
  else if rules then Ok (Source.Rules_file path)
  else
    match Mfsa_anml.Anml.read_file path with
    | Ok mfsas -> Ok (Source.Automata mfsas)
    | Error msg -> Error (Printf.sprintf "cannot load %s: %s" path msg)

(* Fold every typed source-level failure into the CLI's one-line
   [Error]: rejected rules (the pipeline's pinned "rule %d (%s): %s"
   wording), bad artifacts, unreadable files and bad engine names all
   land here. *)
let catch_source f =
  match f () with
  | r -> Ok r
  | exception Pipeline.Compile_error e -> Error (Pipeline.error_to_string e)
  | exception Artifact.Error e -> Error (Artifact.error_to_string e)
  | exception Source.Error msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* The unified compile: [Registry.compile] with the exception funnel
   above — what the match/serve/bench paths call. *)
let compile_source engine source =
  Result.join (catch_source (fun () -> Registry.compile engine source))
