(** The first-class engine interface.

    Every execution engine in this library — the transition-centric
    {!Imfant}, the lazy-DFA {!Hybrid} and the wrappers over them —
    answers the same question: given a compiled MFSA and an input,
    which merged FSAs match where? Every one of them is built the same
    way, from the MFSA's table bundle ({!Tables.t}), so a ruleset
    compiled in-process and one loaded from an artifact reach the same
    constructor. {!S} captures that contract once, so callers (the
    live-update layer, the CLIs, the benchmark harness, the serving
    layer) select an engine by name through {!Registry} instead of
    hard-wiring per-engine branches.

    {!t} is the packed form: an existential pairing a first-class
    module implementing {!S} with one of its compiled values, so a
    caller can hold "a compiled engine" without knowing which. The
    {!run}/{!count}/{!session} wrappers below unpack it.

    All implementations share the matching conventions of {!Imfant}:
    unanchored matching with per-FSA [^]/[$] flags honoured, non-empty
    matches, one report per (FSA, end position). Events are totally
    ordered: by end position, then by ascending FSA id within one
    position, so two engines agree on an input iff their event lists
    are equal. A session's [feed] results follow the same order;
    end-anchored matches at the end of the stream come from [finish],
    after them.

    Compiled engines own mutable scratch (state vectors, caches,
    counters): a compiled value must not be shared across domains.
    Load one replica per domain from a shared bundle —
    {!Mfsa_serve.Serve} does exactly that.

    {b Domain confinement of [stats]/[reset_stats]:} engine counters
    are plain mutable fields updated inside {!S.run}, so reading them
    from another domain while the owner is mid-run is an
    unsynchronized cross-domain access. The rule is that {e every}
    operation on a compiled value — including [stats] and
    [reset_stats] — must run on the domain that owns it.
    {!Mfsa_serve.Serve.snapshot} honours this by routing replica stat
    reads through the worker protocol: each worker snapshots its own
    replica at a quiescent point (between jobs) and publishes the
    result under the service lock. *)

type match_event = { fsa : int; end_pos : int }
(** A match of merged FSA [fsa] ending at byte offset [end_pos]. The
    per-engine event types ({!Imfant.match_event},
    {!Hybrid.match_event}) are equalities with this one. *)

(** The common engine signature. *)
module type S = sig
  val name : string
  (** Registry name, lowercase (["imfant"], ["hybrid"], …). *)

  val doc : string
  (** One-line description for [-e help] listings. *)

  type compiled
  (** A compiled automaton plus the engine's mutable scratch. *)

  val of_tables : Tables.t -> compiled
  (** The one constructor: come up from an engine-ready table bundle
      in O(size), deriving nothing but the step kernel's own layout.
      A fresh compile hands it {!Imfant.tables} of the automaton; an
      artifact load hands it the decoded bundle. The bundle is
      read-only and may be shared: one bundle seeds every replica of
      a {!Mfsa_serve.Serve} pool, each with its own mutable
      scratch. *)

  val mfsa : compiled -> Mfsa_model.Mfsa.t
  (** The underlying automaton. *)

  val run : compiled -> string -> match_event list
  (** All matches on one input. *)

  val count : compiled -> string -> int
  (** Number of match events, without materialising the list — the
      timing entry point of the benchmarks. *)

  val count_per_fsa : compiled -> string -> int array
  (** Match counts per merged FSA (the agreement-check primitive). *)

  val stats : compiled -> Mfsa_obs.Snapshot.t
  (** Engine counters as a typed metric snapshot, every sample
      labelled [engine=<name>] and named in the [mfsa_engine_*]
      namespace (catalogue in the README's Observability section).
      Every engine reports something: at minimum its automaton size,
      plus whatever instrumentation it accumulates across {!run}s
      (iMFAnt: prefilter skips; hybrid: cache behaviour). Snapshots feed the {!Mfsa_obs.Snapshot} exporters
      directly and merge with pipeline and serving metrics. *)

  val reset_stats : compiled -> unit
  (** Return the observable metric state to that of a fresh
      {!of_tables}: cumulative counters to zero, and any internal state
      the metrics expose (the hybrid's configuration cache) dropped
      with them — [reset_stats] followed by a run reproduces the
      metric snapshot of a fresh compile, the reproducibility
      property the test suite checks. A no-op for engines without
      mutable instrumentation. *)

  val reset_counters : compiled -> unit
  (** Zero the cumulative counters {e only}, leaving warm state (the
      hybrid's configuration cache and its adaptive capacity) in
      place. This is the measurement-window
      reset: the benchmark harness calls it between repetitions so
      each rep's snapshot reflects steady-state behaviour, not the
      warm-up of earlier reps. For engines whose metrics expose no
      warm state it coincides with {!reset_stats}. *)

  (** {2 Streaming}

      Feeding chunks [c1, …, cn] then {!finish} produces exactly
      [run c (c1 ^ … ^ cn)]: end positions are global stream offsets
      and end-anchored FSAs report at {!finish}. *)

  type session

  val session : compiled -> session
  (** Fresh session at stream position 0. *)

  val feed : session -> string -> match_event list
  (** Consume one chunk; matches completed in it (except end-anchored
      ones). *)

  val finish : session -> match_event list
  (** End of stream: the pending matches of end-anchored FSAs. The
      session stays valid for {!reset}. *)

  val reset : session -> unit
  (** Back to position 0. *)

  val position : session -> int
  (** Bytes consumed since the last {!reset}. *)
end

(** {2 Packed engines} *)

type t =
  | Packed :
      (module S with type compiled = 'c and type session = 's) * 'c
      -> t
(** A compiled engine with its implementation erased. *)

type session =
  | Session :
      (module S with type compiled = 'c and type session = 's) * 's
      -> session

val pack : (module S with type compiled = 'c and type session = 's) -> 'c -> t

val name : t -> string
val mfsa : t -> Mfsa_model.Mfsa.t
val run : t -> string -> match_event list
val count : t -> string -> int
val count_per_fsa : t -> string -> int array
val stats : t -> Mfsa_obs.Snapshot.t
val reset_stats : t -> unit
val reset_counters : t -> unit

val session : t -> session
val feed : session -> string -> match_event list
val finish : session -> match_event list
val reset : session -> unit
val position : session -> int
