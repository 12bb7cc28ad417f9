(* mfsa-served: the networked serving daemon and its control client.

   `mfsa-served run` compiles a ruleset, binds a TCP socket and serves
   the length-prefixed binary protocol (SUBMIT / METRICS / ADMIN /
   PING / SHUTDOWN) until SIGINT/SIGTERM or a remote SHUTDOWN drains
   it. `mfsa-served ctl` is the matching command-line client — enough
   to script a daemon from a shell (the cram test does exactly that)
   without speaking binary by hand.

   Ephemeral ports and --port-file make the pair self-wiring: run
   with --port 0, point ctl (or bench loadgen) at the same file. *)

module Served = Mfsa_served.Served
module Client = Mfsa_served.Client
module Protocol = Mfsa_served.Protocol
module Serve = Mfsa_serve.Serve

let setup_logs quiet =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if quiet then Logs.Error else Logs.Info))

(* Atomic write: the pollers racing us (cram test, ci soak gate) must
   never observe a half-written port number. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------ run *)

let run_daemon rules_file rules load engine domains sfa_domains
    sfa_threshold host port port_file pid_file queue admission retries backoff
    read_deadline max_frame deadline quiet =
  setup_logs quiet;
  (* --sfa-domains/--sfa-threshold compose at the engine-name level:
     the daemon serves `sfa{..}:<engine>`, so oversized SUBMIT inputs
     split across domains inside one request while everything else
     (table sharing, replica supervision, metrics) is unchanged. *)
  let engine =
    match (sfa_domains, sfa_threshold) with
    | None, None -> engine
    | d, t ->
        Printf.sprintf "sfa{domains=%d,threshold=%d}:%s"
          (Option.value d ~default:Mfsa_engine.Sfa.default.Mfsa_engine.Sfa.domains)
          (Option.value t
             ~default:Mfsa_engine.Sfa.default.Mfsa_engine.Sfa.threshold)
          engine
  in
  match Engine_cli.resolve ~prog:"mfsa-served" engine with
  | Error code -> code
  | Ok engine -> (
      (* The initial ruleset: a compiled artifact (--load), or rules
         from --rules/-r compiled through the pipeline. *)
      let source =
        match (load, rules_file, rules) with
        | Some _, Some _, _ | Some _, _, _ :: _ ->
            Error "pass --load or --rules/-r, not both"
        | Some path, None, [] -> Ok (Engine_cli.Source.Artifact_file path)
        | None, rules_file, rules -> (
            match
              match rules_file with
              | Some p ->
                  Array.to_list (Engine_cli.Source.read_rules_file p) @ rules
              | None -> rules
            with
            | all -> Ok (Engine_cli.Source.Rules (Array.of_list all))
            | exception Engine_cli.Source.Error msg -> Error msg)
      in
      match source with
      | Error msg ->
          Printf.eprintf "mfsa-served: %s\n" msg;
          1
      | Ok source ->
      let admission =
        match admission with
        | "block" -> Serve.Block
        | "reject" -> Serve.Reject
        | "shed" -> Serve.Shed_oldest
        | s ->
            Printf.eprintf
              "mfsa-served: --admission must be block, reject or shed, got %S\n"
              s;
            exit 124
      in
      let config =
        {
          Served.engine;
          domains;
          host;
          port;
          queue_capacity = queue;
          admission;
          retries;
          backoff;
          read_deadline;
          max_frame;
          batch_deadline = deadline;
        }
      in
      match
        Result.join
          (Engine_cli.catch_source (fun () ->
               Served.create_source ~config source))
      with
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          1
      | Ok t ->
          Option.iter
            (fun p -> write_file p (string_of_int (Served.port t) ^ "\n"))
            port_file;
          Option.iter
            (fun p -> write_file p (string_of_int (Unix.getpid ()) ^ "\n"))
            pid_file;
          Served.handle_signals t;
          Logs.info (fun m ->
              m "mfsa-served: listening on %s:%d (%d rules, engine %s, %d \
                 domains)"
                host (Served.port t) (Served.n_rules t) engine domains);
          Served.serve t;
          Logs.info (fun m -> m "mfsa-served: drained");
          0)

(* ------------------------------------------------------------ ctl *)

let print_events per_input =
  Array.iteri
    (fun i events ->
      Printf.printf "input %d: %d matches\n" i (List.length events);
      List.iter
        (fun { Protocol.rule; end_pos } ->
          Printf.printf "  rule %d end %d\n" rule end_pos)
        events)
    per_input

let ctl_command c cmd args =
  match (cmd, args) with
  | "ping", [] -> Result.map (fun () -> print_string "pong\n") (Client.ping c)
  | "submit", (_ :: _ as inputs) ->
      Result.map print_events (Client.submit c (Array.of_list inputs))
  | "submit", [] -> Error "submit wants at least one INPUT"
  | "metrics", [] ->
      Result.map print_string (Client.metrics c Protocol.Prometheus)
  | "metrics", [ "json" ] ->
      Result.map print_string (Client.metrics c Protocol.Json)
  | "add", [ pattern ] ->
      Result.map
        (fun (rule, generation) ->
          Printf.printf "added rule %d (gen %d)\n" rule generation)
        (Client.add_rule c pattern)
  | "add", _ -> Error "add wants exactly one PATTERN"
  | "remove", [ id ] -> (
      match int_of_string_opt id with
      | None -> Error (Printf.sprintf "remove wants a rule id, got %S" id)
      | Some id ->
          Result.map
            (fun generation -> Printf.printf "removed (gen %d)\n" generation)
            (Client.remove_rule c id))
  | "rules", [] ->
      Result.map
        (fun (generation, rules) ->
          Printf.printf "gen %d: %d rules\n" generation (List.length rules);
          List.iter
            (fun (id, p) -> Printf.printf "rule %d  %s\n" id p)
            rules)
        (Client.list_rules c)
  | "shutdown", [] ->
      Result.map (fun () -> print_string "server draining\n") (Client.shutdown c)
  | cmd, _ ->
      Error
        (Printf.sprintf
           "unknown or misused command %S (expected ping, submit INPUT..., \
            metrics [json], add PATTERN, remove ID, rules, shutdown)"
           cmd)

let run_ctl host port port_file deadline cmd args =
  let port =
    match (port, port_file) with
    | Some p, _ -> Ok p
    | None, Some f -> (
        match
          let ic = open_in f in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> int_of_string_opt (String.trim (input_line ic)))
        with
        | Some p -> Ok p
        | None | (exception End_of_file) ->
            Error (Printf.sprintf "%s does not contain a port number" f)
        | exception Sys_error msg -> Error msg)
    | None, None -> Error "pass --port or --port-file"
  in
  match port with
  | Error msg ->
      Printf.eprintf "mfsa-served ctl: %s\n" msg;
      1
  | Ok port -> (
      match Client.connect ~read_deadline:deadline ~host ~port () with
      | Error msg ->
          Printf.eprintf "mfsa-served ctl: %s\n" msg;
          1
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match ctl_command c cmd args with
              | Ok () -> 0
              | Error msg ->
                  Printf.eprintf "mfsa-served ctl: %s\n" msg;
                  1))

(* ------------------------------------------------------- cmdliner *)

open Cmdliner

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind / connect address.")

let port_file op =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "File the bound TCP port is %s — with $(b,--port 0) this is how \
              clients find an ephemeral-port daemon."
             op))

let run_cmd =
  let rules_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Initial ruleset, one POSIX-ERE rule per line (blank lines and \
             $(b,#) comments skipped); rule ids are line order.")
  in
  let rules =
    Arg.(
      value & opt_all string []
      & info [ "r"; "rule" ] ~docv:"RE"
          ~doc:"Additional initial rule (repeatable, after $(b,--rules).)")
  in
  let load = Engine_cli.load_term () in
  let domains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains per generation pool.")
  in
  let sfa_domains =
    (* Validated at parse time so a bad value is a one-line usage
       error, not an Invalid_argument backtrace at compile time. *)
    let domains_conv =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 && n <= Mfsa_engine.Sfa.max_domains -> Ok n
            | Some _ ->
                Error
                  (`Msg
                     (Printf.sprintf "sfa domains must be in [1,%d]"
                        Mfsa_engine.Sfa.max_domains))
            | None -> Error (`Msg (Printf.sprintf "invalid domain count %S" s))),
          Format.pp_print_int )
    in
    Arg.(
      value
      & opt (some domains_conv) None
      & info [ "sfa-domains" ] ~docv:"N"
          ~doc:
            "Wrap the engine as $(b,sfa{domains=N,..}:<engine>): single \
             inputs at or above the split threshold are chunked across \
             $(docv) domains and matched in parallel (imfant and hybrid \
             only).")
  in
  let sfa_threshold =
    let threshold_conv =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 -> Ok n
            | Some _ -> Error (`Msg "sfa threshold must be at least 1 byte")
            | None ->
                Error (`Msg (Printf.sprintf "invalid byte count %S" s))),
          Format.pp_print_int )
    in
    Arg.(
      value
      & opt (some threshold_conv) None
      & info [ "sfa-threshold" ] ~docv:"BYTES"
          ~doc:
            (Printf.sprintf
               "Minimum input size, in bytes, before the SFA wrapper splits \
                an input across domains (default %d); shorter inputs run \
                sequentially. Implies $(b,--sfa-domains) %d when that flag \
                is absent."
               Mfsa_engine.Sfa.default.Mfsa_engine.Sfa.threshold
               Mfsa_engine.Sfa.default.Mfsa_engine.Sfa.domains))
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to bind; 0 (the default) binds an ephemeral port.")
  in
  let pid_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "pid-file" ] ~docv:"FILE" ~doc:"File the daemon pid is written to.")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:"Pool submission-queue capacity (default 2 × domains).")
  in
  let admission =
    Arg.(
      value & opt string "block"
      & info [ "admission" ] ~docv:"POLICY"
          ~doc:
            "Full-queue policy: $(b,block) (backpressure), $(b,reject) or \
             $(b,shed) (evict the oldest queued job of another batch).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts a job gets after a transient or poison fault.")
  in
  let backoff =
    Arg.(
      value & opt float 0.001
      & info [ "backoff" ] ~docv:"SECONDS" ~doc:"Base retry backoff.")
  in
  let read_deadline =
    Arg.(
      value & opt float 30.
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection read deadline; an idle connection is answered \
             with a $(b,deadline) error and closed. 0 disables it.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Protocol.default_max_payload
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted frame payload.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-SUBMIT serving deadline handed to the pool; expiry maps to \
             a $(b,timeout) protocol error.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Log errors only (no startup banner).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the serving daemon until SIGINT/SIGTERM or a \
                          remote SHUTDOWN drains it")
    Term.(
      const run_daemon $ rules_file $ rules $ load $ Engine_cli.term ()
      $ domains
      $ sfa_domains $ sfa_threshold
      $ host $ port $ port_file "written to" $ pid_file $ queue $ admission
      $ retries $ backoff $ read_deadline $ max_frame $ deadline $ quiet)

let ctl_cmd =
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Daemon TCP port.")
  in
  let deadline =
    Arg.(
      value & opt float 30.
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:"How long to wait for each response.")
  in
  let command =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"COMMAND"
          ~doc:
            "One of $(b,ping), $(b,submit) $(i,INPUT...), $(b,metrics) \
             [$(b,json)], $(b,add) $(i,PATTERN), $(b,remove) $(i,ID), \
             $(b,rules), $(b,shutdown).")
  in
  let args =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARG")
  in
  Cmd.v
    (Cmd.info "ctl" ~doc:"Send one command to a running daemon")
    Term.(
      const run_ctl $ host $ port $ port_file "read from" $ deadline $ command
      $ args)

let cmd =
  Cmd.group
    (Cmd.info "mfsa-served" ~version:"1.0.0"
       ~doc:
         "The networked MFSA serving daemon: batched matching, live admin \
          and Prometheus metrics over one TCP socket")
    [ run_cmd; ctl_cmd ]

let () = Engine_cli.main cmd
