(** The iMFAnt execution algorithm — iNFAnt extended to MFSAs (paper
    §V).

    iMFAnt keeps iNFAnt's symbol-first transition table and state
    vector, and adds to every active state the result of the
    activation function [J] upon reaching it. For each input byte,
    every transition [q1 --c--> q2] the byte enables is checked for
    {e consistency}: the new activation set

    [J' = (J(q1) ∪ {j | q1 initial for j}) ∩ bel(q1 --c--> q2)]

    applies Equation 4 (an FSA j is pushed when leaving its initial
    state) and Equation 6 (an FSA j is popped when the traversed
    transition does not belong to it); the move is performed only when
    [J' ≠ ∅]. Every [j ∈ J'] for which [q2] is final yields a match
    for FSA [j] (Equation 5). This prevents the false-positive
    over-matching of a naively merged automaton: a path is accepted
    only if at least one FSA stays active along all of it (Equation 9).

    Matching conventions are those of {!Infant}: unanchored (per-FSA
    [^]/[$] flags honoured), non-empty matches, one report per
    (FSA, end position). *)

type t
(** Compiled MFSA: pre-processing of the extended-ANML-level automaton
    into the engine's table, done once per MFSA. Transition tables are
    indexed by byte-equivalence class ({!Mfsa_model.Mfsa.classes}), and
    a literal prefilter ({!Prefilter}) is attached whenever
    {!Prefilter.analyze} builds one.

    Every activation set the step reads — [bel] and the final sets —
    is also laid out word-major in one flat [int array] per table, and
    one allocation-free per-byte kernel over those words runs every
    entry point below: the batch runs, the chunked SFA passes and
    sessions. The kernel walks only live states. Injection does not
    depend on the input, so each initial-set table is precomputed per
    byte class: the destinations it makes live, their activation words
    and the FSAs it matches. Each live state then visits only its own
    transitions that the byte's class enables (rows grouped by source
    state). Per byte, the cost is the live states' enabled transitions
    plus the injected destinations, not every enabled transition. *)

type match_event = Engine_sig.match_event = { fsa : int; end_pos : int }

type stats = {
  positions : int;  (** Input bytes processed. *)
  avg_active : float;
      (** Mean over input positions of the number of distinct FSAs
          active after consuming the byte — the [Avg Nact] column of
          the paper's Table II. *)
  max_active : int;  (** Peak of the same quantity ([Max Nact]). *)
}

val compile : Mfsa_model.Mfsa.t -> t

val of_tables : Tables.t -> t
(** Adopt a pre-derived table bundle (an artifact load, or another
    engine's export) in O(size of the tables): nothing is re-derived
    except what the step kernel reads — the flat activation words, the
    per-class injection tables and the per-class transition rows by
    source state (O((transitions + states + Σ enabled) × ⌈fsas/62⌉ +
    classes × states)). The bundle's class map and prefilter are used
    as stored. The bundle's arrays are shared, not copied: they must
    not be mutated afterwards. *)

val export_tables : t -> Tables.t
(** The complete compiled state minus mutable scratch, for the
    artifact layer. [of_tables (export_tables t)] behaves exactly like
    [t]. *)

val mfsa : t -> Mfsa_model.Mfsa.t
(** The underlying automaton. *)

val run : t -> string -> match_event list
(** All matches, ordered by end position (ties by FSA id). *)

val count : t -> string -> int
(** Total number of match events. *)

val run_with_stats : t -> string -> match_event list * stats
(** [run] plus the active-set instrumentation of Table II: an offline
    measurement of the automaton, so this pass injects at every
    position and never uses the prefilter. The other entry points do
    not count active FSAs. *)

val count_per_fsa : t -> string -> int array
(** Match counts per merged FSA — used by the equivalence tests and
    the per-rule reporting. *)

(** {2 Chunked execution}

    Primitives for the SFA-style intra-input parallelism of
    {!Sfa}: the per-byte step distributes over thread-set union, so
    the sequential configuration at a chunk boundary is
    (threads injected inside the chunk) ∪ (the carried-in boundary
    configuration stepped with no injection). The first term is
    computed by {!run_chunk} — embarrassingly parallel across chunks —
    and the second by {!carry_step} during the left-to-right join. *)

type carry = int array
(** An explicit boundary configuration in flat form (see
    Configurations below); [[||]] is the empty one. A fresh array
    with no aliasing into engine scratch — safe to hand across
    domains. *)

val run_chunk :
  t -> string -> start:int -> stop:int -> on_match:(int -> int -> unit) ->
  carry * int
(** Injection-driven local pass over [input.[start..stop-1]]:
    [execute] restricted to the window. Global position 0 (when
    [start = 0]) keeps the anchored-start injection; prefilter
    candidates are computed on the window extended by [max_len - 1]
    bytes so literals straddling the chunk end still inject at their
    in-chunk start; end-anchored matches only fire at the global end
    of input. Returns the carry-out configuration after the last
    chunk byte and the bytes the prefilter skipped. Does not mutate
    the engine: concurrent calls over one shared [t] are safe. *)

val carry_step :
  t -> carry -> string -> start:int -> stop:int ->
  on_match:(int -> int -> unit) -> carry * int
(** Step a carried boundary configuration through
    [input.[start..stop-1]] with {e no} injection, reporting the
    matches the carried threads complete. Early-exits as soon as the
    carried set dies; returns the surviving carry and the bytes
    actually consumed. *)

val carry_union : t -> carry -> carry -> carry
(** Statewise union of two boundary configurations; arguments are not
    mutated, and the result may be one of them. *)

(** {2 Streaming}

    Deep-packet-inspection engines see traffic in chunks; a session
    carries the state vector across {!feed} calls so matches spanning
    chunk boundaries are found. Feeding chunks [c1, …, cn] and then
    {!finish} produces exactly [run t (c1 ^ … ^ cn)] (end positions
    are global stream offsets); end-anchored rules report at
    {!finish}, when the end of the stream is known. *)

type session

val session : t -> session
(** Fresh session at stream position 0. *)

val feed : session -> string -> match_event list
(** Consume one chunk; matches completed within or at the end of this
    chunk (except end-anchored ones), ordered by end position (ties by
    FSA id). *)

val finish : session -> match_event list
(** End of stream: the pending matches of end-anchored FSAs. The
    session stays valid for {!reset}. *)

val reset : session -> unit
(** Back to position 0 with an empty state vector. *)

val position : session -> int
(** Bytes consumed so far. *)

(** {2 Configurations}

    The lazy-DFA engine ({!Hybrid}) memoises this kernel over whole
    configurations. A configuration in {e flat form} is one
    [int array]: the active states in ascending order, each followed
    by its ⌈fsas/62⌉ activation words (bit [b] of word [w] is FSA
    [62w + b]). Two configurations are equal iff their flat forms are
    equal as int arrays. *)

type stepper = private {
  sc : scan;  (** The kernel's state vector the step runs on. *)
  next : int array;
      (** After {!config_step}: the successor configuration in flat
          form, in [next.(0 .. next_len - 1)]. *)
  mutable next_len : int;  (** [0] when the successor is empty. *)
  matched : int array;
      (** After {!config_step}: the FSAs that matched on the step,
          ascending, in [matched.(0 .. n_matched - 1)]. *)
  mutable n_matched : int;
}
(** Scratch for {!config_step}, allocated once. Not to be shared
    across domains. *)

and scan
(** The kernel's state vector. *)

val stepper : t -> stepper

val config_step : t -> stepper -> int array -> int -> at_start:bool -> unit
(** [config_step t sp cfg cls ~at_start] runs the step kernel once
    from flat configuration [cfg] on one byte of class [cls] (see
    {!class_of}), injecting the position-0 initial sets when
    [at_start] and the unanchored ones otherwise. The result is left
    in [sp]'s [next] and [matched] buffers, overwriting the previous
    call's. Allocates nothing. *)

val session_of_config :
  t -> int array -> pos:int -> pending_end:int list -> session
(** A session standing at stream position [pos] in flat configuration
    [cfg] (as if it had consumed [pos] bytes), with the end-anchored
    FSAs [pending_end] (descending) matched exactly at [pos] and
    awaiting {!finish}. *)

val config_of_session : session -> int array
(** The session's current configuration in flat form. *)

val pending_end : session -> int list
(** The end-anchored FSAs matched exactly at {!position}, descending;
    {!finish} reports them unless the stream continues. *)

(** {2 Compiled tables}

    Read-only views into the compiled representation, consumed by the
    lazy-DFA engine ({!Hybrid}). *)

val n_classes : t -> int
(** Size of the byte-class alphabet the tables are indexed by. *)

val class_of : t -> bytes
(** The 256-entry byte -> class map. Must not be mutated. *)

val prefilter : t -> Prefilter.t option
(** The literal prefilter compiled into this engine, if any. *)

val skipped_bytes : t -> int
(** Input bytes the prefilter allowed the batch entry points to jump
    over, cumulative since compile (or {!reset_skipped}). *)

val reset_skipped : t -> unit
