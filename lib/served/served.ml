module Serve = Mfsa_serve.Serve
module Live = Mfsa_live.Live
module Registry = Mfsa_engine.Registry
module Engine_sig = Mfsa_engine.Engine_sig
module Pipeline = Mfsa_core.Pipeline
module Obs = Mfsa_obs.Obs
module Snapshot = Mfsa_obs.Snapshot
module P = Protocol

let log_src = Logs.Src.create "mfsa.served" ~doc:"Networked serving daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  engine : string;
  domains : int;
  host : string;
  port : int;
  queue_capacity : int option;
  admission : Serve.admission;
  retries : int;
  backoff : float;
  read_deadline : float;
  max_frame : int;
  batch_deadline : float option;
}

let default_config =
  {
    engine = "imfant";
    domains = 2;
    host = "127.0.0.1";
    port = 0;
    queue_capacity = None;
    admission = Serve.Block;
    retries = 0;
    backoff = 0.001;
    read_deadline = 30.;
    max_frame = P.default_max_payload;
    batch_deadline = None;
  }

(* One serving generation: the pool compiled from a Live snapshot plus
   the merged-FSA → stable-rule-id map needed to translate its events.
   Swapped wholesale under [t.m] on every accepted admin update. *)
type gen_serve = { serve : Serve.t; rule_ids : int array; generation : int }

type t = {
  cfg : config;
  live : Live.t;  (* all access under [admin_m] *)
  admin_m : Mutex.t;  (* serialises ruleset updates and Live reads *)
  m : Mutex.t;  (* guards [cur] *)
  mutable cur : gen_serve option;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* Self-pipe waking the accept loop out of [select]: [stop] only
     flips the atomic and writes one byte, so it is safe from a signal
     handler and from any thread. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopped : bool Atomic.t;
  drained : bool Atomic.t;
  conn_m : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable handlers : Thread.t list;
  mutable next_conn : int;
  reg : Obs.t;
  connections_c : Obs.counter;
  active_g : Obs.gauge;
  proto_errors_c : Obs.counter;
}

(* ------------------------------------------------------- Metrics *)

let op_label = function
  | P.Ping -> "ping"
  | P.Submit _ -> "submit"
  | P.Metrics _ -> "metrics"
  | P.Admin _ -> "admin"
  | P.Shutdown -> "shutdown"

let requests_c t op =
  Obs.counter ~registry:t.reg ~help:"Requests handled, by opcode"
    ~labels:[ ("op", op) ] "mfsa_served_requests_total"

let request_h t op =
  Obs.histogram ~registry:t.reg
    ~help:"Request handling latency in seconds, by opcode"
    ~labels:[ ("op", op) ] "mfsa_served_request_seconds"

let current t =
  Mutex.lock t.m;
  let g = t.cur in
  Mutex.unlock t.m;
  g

let metrics t =
  let serve_snap =
    match current t with
    | None -> []
    | Some g ->
        Snapshot.with_labels
          [ ("generation", string_of_int g.generation) ]
          (Serve.snapshot g.serve)
  in
  let live_snap =
    Mutex.lock t.admin_m;
    let s = Live.metrics t.live in
    Mutex.unlock t.admin_m;
    s
  in
  Snapshot.merge
    [ Obs.snapshot Obs.default; Obs.snapshot t.reg; live_snap; serve_snap ]

(* -------------------------------------------------------- Create *)

let make_gen cfg live =
  let snap = Live.snapshot live in
  match Live.snapshot_mfsa snap with
  | None -> None
  | Some z ->
      Some
        {
          serve =
            Serve.create ~engine:cfg.engine ~domains:cfg.domains
              ?queue_capacity:cfg.queue_capacity ~admission:cfg.admission
              ~retries:cfg.retries ~backoff:cfg.backoff z;
          rule_ids = Live.snapshot_rule_ids snap;
          generation = Live.snapshot_generation snap;
        }

let validate cfg =
  if Option.is_none (Registry.find cfg.engine) then
    Some (Registry.unknown_message cfg.engine)
  else if cfg.domains < 1 then Some "domains must be >= 1"
  else if cfg.read_deadline < 0. then Some "read_deadline must be >= 0"
  else if cfg.max_frame < P.header_len then
    Some (Printf.sprintf "max_frame must be >= %d" P.header_len)
  else if cfg.retries < 0 then Some "retries must be >= 0"
  else if cfg.backoff < 0. then Some "backoff must be >= 0"
  else None

let create_live config live =
  match
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            try
              Unix.setsockopt fd Unix.SO_REUSEADDR true;
              Unix.bind fd
                (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
              Unix.listen fd 128;
              let bound_port =
                match Unix.getsockname fd with
                | Unix.ADDR_INET (_, p) -> p
                | Unix.ADDR_UNIX _ -> assert false
              in
              Ok (fd, bound_port)
            with e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Result.Error
                (Printf.sprintf "cannot bind %s:%d: %s" config.host config.port
                   (match e with
                   | Unix.Unix_error (err, _, _) -> Unix.error_message err
                   | e -> Printexc.to_string e))
          with
          | Result.Error msg -> Result.Error msg
          | Ok (listen_fd, bound_port) ->
              let wake_r, wake_w = Unix.pipe () in
              let reg = Obs.create () in
              ignore (Obs.process_start_time ~registry:reg () : Obs.gauge);
              let t =
                {
                  cfg = config;
                  live;
                  admin_m = Mutex.create ();
                  m = Mutex.create ();
                  cur = make_gen config live;
                  listen_fd;
                  bound_port;
                  wake_r;
                  wake_w;
                  stopped = Atomic.make false;
                  drained = Atomic.make false;
                  conn_m = Mutex.create ();
                  conns = Hashtbl.create 32;
                  handlers = [];
                  next_conn = 0;
                  reg;
                  connections_c =
                    Obs.counter ~registry:reg ~help:"Connections accepted"
                      "mfsa_served_connections_total";
                  active_g = Obs.process_connections_active ~registry:reg ();
                  proto_errors_c =
                    Obs.counter ~registry:reg
                      ~help:"Frames rejected before reaching a handler"
                      "mfsa_served_protocol_errors_total";
                }
              in
              Ok t

(* The one constructor funnels through Live + [create_live]: a rules
   source compiles the initial ruleset, an automaton or artifact
   source is adopted without recompiling. *)
let create_source ?(config = default_config) source =
  match validate config with
  | Some msg -> Result.Error ("mfsa-served: " ^ msg)
  | None -> (
      match Live.of_source ~engine:config.engine source with
      | Result.Error e ->
          Result.Error
            (Printf.sprintf "cannot compile initial ruleset: %s"
               (Pipeline.error_to_string e))
      | Ok live -> create_live config live
      | exception Invalid_argument msg -> Result.Error msg)

let port t = t.bound_port

let generation t =
  Mutex.lock t.admin_m;
  let g = Live.generation t.live in
  Mutex.unlock t.admin_m;
  g

let n_rules t =
  Mutex.lock t.admin_m;
  let n = Live.n_rules t.live in
  Mutex.unlock t.admin_m;
  n

let connections_active t =
  Mutex.lock t.conn_m;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conn_m;
  n

(* ------------------------------------------------------ Requests *)

let sort_events =
  List.sort (fun (a : P.event) b ->
      if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
      else Int.compare a.rule b.rule)

let remap rule_ids events =
  sort_events
    (List.map
       (fun { Engine_sig.fsa; end_pos } ->
         { P.rule = rule_ids.(fsa); end_pos })
       events)

let serve_error_to_err = function
  | Serve.Closed -> { P.code = P.Closed; message = Serve.error_to_string Serve.Closed }
  | Serve.Rejected _ as e -> { P.code = P.Rejected; message = Serve.error_to_string e }
  | Serve.Timeout _ as e -> { P.code = P.Timeout; message = Serve.error_to_string e }

(* A SUBMIT races generation swaps by design: grab the current pool,
   and if an admin update closed it before the batch was admitted,
   take the fresh pool and try again. Real work is never lost — a
   batch the old pool admitted is drained to completion by the swap —
   so the retry only ever re-runs batches that executed nothing. *)
let rec submit t inputs attempt =
  match current t with
  | None -> P.Results (Array.map (fun _ -> []) inputs)
  | Some g -> (
      match
        Serve.try_match_batch ?deadline:t.cfg.batch_deadline g.serve inputs
      with
      | Ok results -> P.Results (Array.map (remap g.rule_ids) results)
      | Result.Error Serve.Closed
        when attempt < 8 && not (Atomic.get t.stopped) ->
          (* The pool was swapped out from under us; the fresh one is
             (or will shortly be) in [t.cur]. *)
          Thread.yield ();
          submit t inputs (attempt + 1)
      | Result.Error e -> P.Error (serve_error_to_err e)
      | exception Serve.Job_error { slot; error } ->
          P.Error
            {
              code = P.Job_failed;
              message =
                Printf.sprintf "input %d failed: %s" slot
                  (Printexc.to_string error);
            })

(* Swap the serving pool to the live ruleset's current generation and
   drain the previous one. Runs under [admin_m] (one swap at a time);
   the drain returns only once every batch the old pool admitted has
   settled, which is exactly the no-drop guarantee ADMIN advertises. *)
let swap_generation t =
  let next = make_gen t.cfg t.live in
  Mutex.lock t.m;
  let old = t.cur in
  t.cur <- next;
  Mutex.unlock t.m;
  Option.iter (fun g -> Serve.shutdown g.serve) old

let admin t op =
  Mutex.lock t.admin_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.admin_m)
    (fun () ->
      match op with
      | P.Add pattern -> (
          match Live.add_rule t.live pattern with
          | Result.Error e ->
              P.Error
                { code = P.Compile_failed; message = Pipeline.error_to_string e }
          | Ok rule ->
              swap_generation t;
              Log.info (fun m ->
                  m "gen %d: added rule %d %S" (Live.generation t.live) rule
                    pattern);
              P.Added { rule; generation = Live.generation t.live })
      | P.Remove id ->
          if Live.remove_rule t.live id then begin
            swap_generation t;
            Log.info (fun m ->
                m "gen %d: removed rule %d" (Live.generation t.live) id);
            P.Removed { generation = Live.generation t.live }
          end
          else
            P.Error
              {
                code = P.Unknown_rule;
                message = Printf.sprintf "no live rule %d" id;
              }
      | P.List_rules ->
          P.Rule_list
            { generation = Live.generation t.live; rules = Live.rules t.live })

let handle_request t = function
  | P.Ping -> P.Pong
  | P.Submit inputs ->
      if Atomic.get t.stopped then
        P.Error { code = P.Closed; message = "server is draining" }
      else submit t inputs 0
  | P.Metrics fmt ->
      let snap = metrics t in
      P.Metrics_data
        (match fmt with
        | P.Prometheus -> Snapshot.to_prometheus snap
        | P.Json -> Snapshot.to_json snap ^ "\n")
  | P.Admin op ->
      if Atomic.get t.stopped then
        P.Error { code = P.Closed; message = "server is draining" }
      else admin t op
  | P.Shutdown -> P.Bye

(* --------------------------------------------------- Connections *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let stop t =
  if not (Atomic.exchange t.stopped true) then
    (* One byte into the self-pipe; EPIPE/EBADF mean [serve] already
       drained and closed it, which is exactly the no-op we want. *)
    try ignore (Unix.write_substring t.wake_w "x" 0 1 : int)
    with Unix.Unix_error _ -> ()

let handle_signals t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let on_signal _ = stop t in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle on_signal)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* Best-effort response write: a peer that vanished mid-reply takes
   only its connection with it. *)
let try_write fd resp =
  match P.write_frame fd (P.response_to_frame resp) with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
    ->
      false

let handle_conn t id fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  if t.cfg.read_deadline > 0. then
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_deadline
     with Unix.Unix_error _ -> ());
  let continue = ref true in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.conn_m;
      Hashtbl.remove t.conns id;
      Mutex.unlock t.conn_m;
      Obs.gauge_add t.active_g (-1.);
      close_quietly fd)
    (fun () ->
      while !continue do
        match P.read_frame ~max_payload:t.cfg.max_frame fd with
        | P.Eof -> continue := false
        | P.Fail err ->
            Obs.inc t.proto_errors_c;
            (* Framing is broken (or the peer idled out): answer with
               the typed error if the socket still takes it, then
               close — resynchronising an unframed byte stream is not
               worth guessing at. *)
            ignore (try_write fd (P.Error err) : bool);
            continue := false
        | P.Frame frame -> (
            match P.request_of_frame frame with
            | Result.Error err ->
                Obs.inc t.proto_errors_c;
                ignore (try_write fd (P.Error err) : bool);
                continue := false
            | Ok req ->
                let op = op_label req in
                Obs.inc (requests_c t op);
                let resp =
                  Obs.time (request_h t op) (fun () -> handle_request t req)
                in
                if not (try_write fd resp) then continue := false;
                (match req with
                | P.Shutdown ->
                    continue := false;
                    stop t
                | _ -> ()))
      done)

(* ----------------------------------------------------- Accepting *)

let drain t =
  if not (Atomic.exchange t.drained true) then begin
    close_quietly t.listen_fd;
    (* Nudge every handler out of a blocking read: in-flight requests
       finish (the write side stays open for the response), the next
       read sees EOF. *)
    Mutex.lock t.conn_m;
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      t.conns;
    let handlers = t.handlers in
    t.handlers <- [];
    Mutex.unlock t.conn_m;
    List.iter Thread.join handlers;
    (match current t with
    | Some g -> Serve.shutdown g.serve
    | None -> ());
    close_quietly t.wake_r;
    close_quietly t.wake_w
  end

let serve t =
  while not (Atomic.get t.stopped) do
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem t.wake_r readable then
          (* Woken for shutdown; the loop condition does the rest. *)
          ()
        else if List.mem t.listen_fd readable then (
          match Unix.accept ~cloexec:true t.listen_fd with
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                  | Unix.EWOULDBLOCK ),
                  _,
                  _ ) ->
              ()
          | exception Unix.Unix_error (e, _, _) ->
              (* Transient resource exhaustion (EMFILE & co): log,
                 back off a beat, keep serving. *)
              Log.warn (fun m -> m "accept: %s" (Unix.error_message e));
              Unix.sleepf 0.01
          | fd, _peer ->
              Obs.inc t.connections_c;
              Obs.gauge_add t.active_g 1.;
              Mutex.lock t.conn_m;
              let id = t.next_conn in
              t.next_conn <- id + 1;
              Hashtbl.replace t.conns id fd;
              let th = Thread.create (fun () -> handle_conn t id fd) () in
              t.handlers <- th :: t.handlers;
              Mutex.unlock t.conn_m)
  done;
  drain t
