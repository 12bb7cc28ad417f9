(** The networked serving daemon: one merged automaton behind a TCP
    socket.

    Everything below the ROADMAP's "millions of users" north star
    already exists in-process — {!Mfsa_serve.Serve} shards batches
    across domains, {!Mfsa_live.Live} swaps rule generations with
    zero downtime, {!Mfsa_obs.Obs} counts it all — but had no remote
    surface. This module is that surface: a single-process TCP server
    speaking the length-prefixed {!Protocol}, with

    - [SUBMIT]: a batch of inputs → per-input match events against
      {e stable rule ids}, executed by a domain-parallel
      {!Mfsa_serve.Serve} pool and byte-identical to sequential
      execution of the current generation;
    - [ADMIN ADD/REMOVE/LIST]: the remote driver for
      {!Mfsa_live.Live}'s generation-swap machinery — an accepted
      update compiles the next generation, swaps it in atomically and
      drains the previous pool, so in-flight batches finish on the
      generation they started on and nothing is dropped;
    - [METRICS]: one Prometheus (or JSON) exposition merging the
      process-wide compile spans, the daemon's own request/connection
      series, the live-ruleset gauges and the current pool's full
      view, process gauges included;
    - [PING] and [SHUTDOWN] for liveness and remote drain.

    Robustness: per-connection read deadlines (an idle or stalled
    peer is disconnected), a maximum frame size (the length prefix
    never drives an unchecked allocation), typed protocol errors
    mapped from {!Mfsa_serve.Serve.error}, and graceful drain — on
    {!stop} (or SIGINT/SIGTERM via {!handle_signals}) the listener
    closes, in-flight requests complete, connections are closed and
    the pool drains before {!serve} returns. A dropped client mid-
    response surfaces as [EPIPE], not [SIGPIPE], and kills only that
    connection.

    Concurrency: the accept loop runs on the caller of {!serve}; each
    connection gets a (sys)thread; batches execute on the pool's
    worker domains. One server per {!t}; several servers can coexist
    in a process (each owns its registry and pool). *)

type config = {
  engine : string;  (** Registry engine name, [faulty{..}:] wrappers included. *)
  domains : int;  (** Worker domains per generation pool. *)
  host : string;  (** Bind address, default ["127.0.0.1"]. *)
  port : int;  (** TCP port; [0] binds an ephemeral one (see {!port}). *)
  queue_capacity : int option;  (** Pool submission-queue bound. *)
  admission : Mfsa_serve.Serve.admission;
  retries : int;  (** Per-job retry budget of the pool. *)
  backoff : float;  (** Base retry backoff, seconds. *)
  read_deadline : float;
      (** Per-connection read deadline in seconds; an idle connection
          is answered with a [Deadline] error and closed when it
          expires. [0.] disables it. *)
  max_frame : int;  (** Per-frame payload bound, bytes. *)
  batch_deadline : float option;
      (** Per-[SUBMIT] serving deadline handed to the pool; an
          expired one maps to a [Timeout] protocol error. *)
}

val default_config : config
(** imfant engine, 2 domains, loopback, ephemeral port, Block
    admission, 0 retries, 1 ms backoff, 30 s read deadline,
    {!Protocol.default_max_payload} frame bound, no batch deadline. *)

type t

val create_source :
  ?config:config -> Mfsa_engine.Source.t -> (t, string) result
(** Build the daemon from a unified {!Mfsa_engine.Source} through
    {!Mfsa_live.Live.of_source}, spin up the generation-0 pool and
    bind the listening socket — but accept nothing until {!serve}. A
    rules source compiles the initial ruleset (rule [i] gets stable
    id [i]); an automaton or binary-artifact source is adopted, so
    the daemon's first generation comes up in O(artifact size)
    without recompiling — the fast cold-start path. [Error] on an
    unknown engine, a malformed rule, invalid knobs, a source
    yielding more than one automaton, or a bind failure;
    artifact/IO failures propagate as their typed exceptions. *)

val port : t -> int
(** The bound TCP port (the actual one when [config.port] was 0). *)

val generation : t -> int

val n_rules : t -> int

val connections_active : t -> int

val serve : t -> unit
(** Run the accept loop on the calling thread until {!stop} (or a
    remote [SHUTDOWN], or a handled signal), then drain: close the
    listener, let in-flight requests finish, join the connection
    handlers, shut the pool down. Returns when the drain is
    complete. *)

val stop : t -> unit
(** Request a graceful drain. Async-signal-safe in the OCaml sense
    (it only flips an atomic and writes to a wake-up pipe) — this is
    what {!handle_signals} installs. Idempotent. *)

val handle_signals : t -> unit
(** Install {!stop} as the [SIGINT]/[SIGTERM] handler and ignore
    [SIGPIPE]. Call once, from the binary; library users (tests)
    leave signals alone and call {!stop} directly. *)

val metrics : t -> Mfsa_obs.Snapshot.t
(** The merged metric view the [METRICS] opcode serves: process-wide
    registry, daemon series ([mfsa_served_*],
    [mfsa_process_start_time_seconds],
    [mfsa_process_connections_active]), live-ruleset gauges and the
    current generation's pool snapshot (tagged
    [generation=<g>]). *)
