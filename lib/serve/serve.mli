(** Domain-parallel batched match service, with fault tolerance.

    The paper's multi-threaded evaluation (§VI-C2) distributes {e
    automata} over a thread pool; this module adds the dual,
    data-parallel axis needed to serve heavy traffic: one automaton,
    many inputs, sharded across OCaml 5 domains. A {!t} owns a pool of
    worker domains, each holding its {e own} replica of the selected
    engine — engines carry mutable scratch (state vectors, caches)
    and must never be shared across domains — plus a bounded
    submission queue in front of the pool. Every replica, respawns
    included, is loaded from one table bundle per service
    ({!Mfsa_engine.Tables.t}), derived or decoded once and shared
    read-only.

    {!match_batch} pushes every input of a batch into the queue, the
    workers drain it greedily, and the results are aggregated in
    submission order: element [i] of the result is exactly
    [Engine_sig.run replica inputs.(i)], byte-identical to sequential
    execution. A job that raises does not wedge the pool: the workers
    keep draining, and {!Job_error} is re-raised by [match_batch]
    once its batch has settled (the same drain-then-raise contract as
    {!Mfsa_engine.Pool.run}).

    {2 Fault tolerance}

    Serving hardens the pool in four ways:

    - {e Deadlines.} [match_batch ?deadline] bounds the wall-clock
      time a batch may take, submission included; an expired deadline
      cancels the batch's unexecuted jobs and surfaces {!Timeout}.
    - {e Retries.} A job that fails with a transient fault
      ({!Mfsa_engine.Faulty.Transient_fault}) is retried up to
      [retries] times with exponential backoff before the failure is
      reported to the submitter.
    - {e Supervision.} A fault that poisons a replica
      ({!Mfsa_engine.Faulty.Replica_poisoned}) triggers a respawn: the
      worker loads a fresh engine from the service's table bundle and
      carries on; the job follows the retry policy.
    - {e Admission control.} A full submission queue can {!Block} the
      submitter (backpressure, the default), {!Reject} the batch, or
      shed the oldest queued job of another batch ({!Shed_oldest}).

    All outcomes are typed ({!error}); {!try_match_batch} returns them
    as a [result], {!match_batch} raises them as {!Error}.

    {[
      let srv = Serve.create ~engine:"hybrid" ~domains:4 ~retries:2 z in
      match Serve.try_match_batch ~deadline:0.050 srv packets with
      | Ok results -> (* results.(i) are packets.(i)'s matches *) ...
      | Error (Timeout { settled; pending }) -> ...
      | Error e -> failwith (Serve.error_to_string e)
    ]} *)

type t

(** What happens when a submission finds the bounded queue full. *)
type admission =
  | Block  (** Wait for room — backpressure, never drops (default). *)
  | Reject
      (** Fail the batch immediately with {!Rejected}; jobs of the
          batch already queued are drained without execution. *)
  | Shed_oldest
      (** Evict the oldest queued job belonging to {e another} batch
          (whose submitter gets [Rejected {shed = true}]) and enter.
          Falls back to waiting when everything queued is the
          submitter's own batch. *)

(** Why a batch produced no results. *)
type error =
  | Closed  (** The service was shut down ({!drain}/{!shutdown}). *)
  | Rejected of { queue_capacity : int; shed : bool }
      (** Refused admission: [shed = false] — the queue was full under
          {!Reject}; [shed = true] — another submitter's
          {!Shed_oldest} push evicted one of this batch's queued
          jobs. *)
  | Timeout of { settled : int; pending : int }
      (** The deadline expired with [settled] jobs finished and
          [pending] still queued (the latter drain without
          executing). *)

exception Error of error
(** Raised by {!match_batch}; {!try_match_batch} returns the payload
    instead. *)

exception Job_error of { slot : int; error : exn }
(** A job raised [error] (after exhausting any retries) while
    processing input [slot] of its batch. Re-raised to the submitter
    with the {e original} backtrace
    ([Printexc.raise_with_backtrace]) once the batch has drained. *)

val error_to_string : error -> string

type stats = {
  domains : int;
  batches : int;  (** Batches completed. *)
  inputs : int;  (** Inputs processed. *)
  bytes : int;  (** Input bytes processed. *)
  elapsed : float;
      (** Wall-clock seconds spent inside {!match_batch} (submission
          to last result), {e including} batches still in flight at
          the moment of the {!stats} call — each contributes the time
          since its submission, so throughput and utilisation read
          sensibly mid-batch instead of 0 (or the last settled value)
          until the batch returns. *)
  queue_hwm : int;
      (** Submission-queue depth high-water mark — how hard the
          backpressure bound was pushed. *)
  queue_capacity : int;
  per_domain_jobs : int array;  (** Jobs executed per worker domain. *)
  per_domain_busy : float array;
      (** Seconds each worker spent executing jobs. *)
  timeouts : int;  (** Batches whose deadline expired. *)
  rejected : int;  (** Batches refused admission (rejected or shed). *)
  retries : int;  (** Job attempts retried after a fault. *)
  restarts : int;  (** Replicas respawned after a poison fault. *)
}

val create :
  ?engine:string ->
  ?domains:int ->
  ?queue_capacity:int ->
  ?admission:admission ->
  ?retries:int ->
  ?backoff:float ->
  Mfsa_model.Mfsa.t ->
  t
(** Derive the automaton's table bundle once
    ({!Mfsa_engine.Imfant.tables}), load [domains] replicas (default
    {!Mfsa_engine.Pool.available_parallelism}) of the named engine
    from it (default ["imfant"], any {!Mfsa_engine.Registry} name —
    including [faulty{...}:<engine>] wrappers) and spawn one worker
    domain per replica. [queue_capacity] (default [2 * domains])
    bounds the submission queue; [admission] (default {!Block}) picks
    the full-queue policy.

    [retries] (default 0) is the number of {e extra} attempts a job
    gets after a {!Mfsa_engine.Faulty.Transient_fault} or a
    {!Mfsa_engine.Faulty.Replica_poisoned} fault; the [n]-th retry is
    preceded by a [backoff * 2^n] seconds sleep (default base 1 ms).
    A poison fault always respawns the replica from the same bundle,
    retried or not.

    @raise Invalid_argument on an unknown engine name, [domains < 1],
    [queue_capacity < 1], [retries < 0] or [backoff < 0]. *)

val create_source :
  ?engine:string ->
  ?domains:int ->
  ?queue_capacity:int ->
  ?admission:admission ->
  ?retries:int ->
  ?backoff:float ->
  Mfsa_engine.Source.t ->
  t
(** {!create} from a unified {!Mfsa_engine.Source}: rules compile
    through the pipeline, a binary artifact loads once, and every
    replica (initial and respawned) is loaded from the one resulting
    table bundle, shared read-only — per-replica mutable scratch stays
    private, so the sharing is safe. The source must yield exactly
    one automaton.

    @raise Invalid_argument additionally when the source yields zero
    or several automata. Source-level failures propagate as their
    typed exceptions ({!Mfsa_core.Pipeline.Compile_error}, the
    artifact library's error, [Source.Error]). *)

val engine : t -> string

val domains : t -> int

val try_match_batch :
  ?deadline:float ->
  t ->
  string array ->
  (Mfsa_engine.Engine_sig.match_event list array, error) result
(** Shard the batch across the worker domains and wait for every
    result. [Ok results] has [results.(i)] equal to
    [Engine_sig.run e inputs.(i)] for a fresh engine [e] — aggregated
    in submission order regardless of completion order. Safe to call
    from several client threads at once.

    [deadline] is a relative bound in seconds covering the whole call
    (submission {e and} execution); when it expires the batch is
    cancelled — jobs already queued drain without executing — and
    [Error (Timeout _)] is returned. Without a deadline a full queue
    blocks indefinitely under {!Block}.

    Failed jobs follow the service retry policy; an exhausted failure
    raises {!Job_error} (with the original backtrace) after the batch
    has drained — job failures are a property of the {e batch}, not an
    admission outcome, so they raise from [try_match_batch] too. *)

val match_batch :
  ?deadline:float ->
  t ->
  string array ->
  Mfsa_engine.Engine_sig.match_event list array
(** {!try_match_batch}, raising {!Error} instead of returning
    [result]. @raise Error on shutdown, rejection or timeout.
    @raise Job_error as {!try_match_batch}. *)

val stats : t -> stats
(** Cumulative counters since {!create}. *)

val throughput_mbps : stats -> float
(** [bytes / elapsed], in MB/s; 0 before any batch. *)

val utilisation : stats -> float array
(** Per-domain busy fraction of the elapsed serving time ([1.0] =
    that worker never waited); an empty-history service reports 0. *)

val snapshot : t -> Mfsa_obs.Snapshot.t
(** The full metric view of the service: {!stats} as
    [mfsa_serve_domains], [mfsa_serve_batches_total],
    [mfsa_serve_inputs_total], [mfsa_serve_bytes_total],
    [mfsa_serve_elapsed_seconds_total], [mfsa_serve_throughput_mbps],
    [mfsa_serve_queue_depth_hwm] and [mfsa_serve_queue_capacity]; the
    fault-tolerance counters [mfsa_serve_timeouts_total],
    [mfsa_serve_rejected_total], [mfsa_serve_retries_total] and
    [mfsa_serve_replica_restarts_total]; per-domain
    [mfsa_serve_jobs_total], [mfsa_serve_busy_seconds_total] and
    [mfsa_serve_utilisation] (labelled [domain=<i>]); the latency
    histograms [mfsa_serve_batch_seconds] and
    [mfsa_serve_job_seconds{domain=<i>}]; and each replica's own
    engine metrics tagged with its domain.

    Replica engine counters are owned by their worker domains
    ({!Mfsa_engine.Engine_sig.S.stats} is domain-confined), so they
    are {e not} read directly: each worker publishes its own replica's
    snapshot at a quiescent point between jobs, nudged awake by a
    best-effort queue ping when idle. The call therefore waits for
    every worker to reach such a point — under sustained load the
    figures are exact as of each worker's most recent job boundary. *)

val drain : ?deadline:float -> t -> bool
(** Graceful shutdown: refuse new batches, wait for every in-flight
    batch to settle, then stop and join the workers. [true] once the
    workers are joined; [false] if [deadline] (relative seconds)
    expired first — the service stays closed and draining, and
    [drain] may be called again to keep waiting. Concurrent callers
    are safe: one joins, the rest wait for it. *)

val shutdown : t -> unit
(** [drain] without a deadline, result ignored. Idempotent; in-flight
    batches drain first, {e then} the stop messages are queued — a
    submitter that was admitted before the close can never strand its
    jobs behind a stop (the historical shutdown/submit race). *)
