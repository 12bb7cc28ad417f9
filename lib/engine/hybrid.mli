(** Lazy-DFA execution over an MFSA: RE2-style subset construction,
    done configuration by configuration, on demand.

    {!Imfant} recomputes every byte: it copies the byte class's
    precomputed injection and walks each live state's enabled
    transitions with bitset algebra per transition (Equations 4–6),
    even when the active configuration repeats across millions of
    positions. This engine memoizes that work. A {e configuration} is the entire runtime
    state of iMFAnt at one input position — the map from active
    states to their activation sets [J(q)] — interned in iMFAnt's flat
    form (states ascending, each followed by its activation words, one
    [int array]) so equal configurations share one integer id. For
    every (configuration, byte class) pair seen, the successor
    configuration and the set of FSAs that match on that edge are
    computed once and cached; from then on, processing that byte in
    that configuration is a table lookup.

    One loop walks the memo rows for every entry point: {!run},
    {!count}, {!count_per_fsa}, {!run_chunk} and a cached session's
    {!feed}. A hit on an edge without matches costs a class-map read,
    one memo load and one stamp compare, a reference-bit store, and
    no call, allocation or write barrier; the loop keeps the rows, the
    class map, the row id and the position in locals. It leaves the
    inner loop only at an edge whose match bit is set, where it looks
    the match set up once and reports it, and at a miss. The hit and
    step counters are written back per run of hits, not per byte, and
    a session settles its pending end-anchored matches once, from the
    last byte of the chunk.

    A cache miss is one call of iMFAnt's step kernel
    ({!Imfant.config_step}) from the row's configuration; the
    successor is hashed and compared in place and copied into a new
    key only when it is new. The memo rows are flat int arrays, so a
    miss that lands on a known configuration, or reuses an evicted
    slot, allocates nothing beyond a new key. The cache is bounded: a
    full cache evicts exactly {e one} configuration — second-chance
    (clock) over the memo rows, reusing the victim's slot in place —
    instead of dropping the whole table. Memoised successor ids are
    validated with per-slot mint stamps, so a stale pointer into a
    reused slot reads as a miss, never as a wrong answer. The capacity
    additionally adapts to observed eviction pressure, growing up to
    8x the configured size while the working set keeps displacing
    itself; it only returns to the configured size on a {!flush}.
    Rulesets whose configuration space churns
    faster than even the grown cache can hold cost iMFAnt's step plus
    hashing on nearly every byte; {!stats} makes that visible, and
    {!demote} (the [auto:] planner's escape hatch) turns the engine
    into a plain iMFAnt scan.

    Matches are reported identically to {!Imfant}: unanchored
    matching, per-FSA [^]/[$] flags honoured, non-empty matches, one
    report per (FSA, end position). Within one end position events
    are ordered by FSA id.

    An engine value owns mutable cache and scratch state: it must not
    be shared across domains (compile one engine per domain — what
    {!Pool} jobs already do). *)

type t

type match_event = Engine_sig.match_event = { fsa : int; end_pos : int }

type stats = {
  steps : int;  (** Input bytes processed since compile. *)
  hits : int;  (** Steps answered by the memo table alone. *)
  misses : int;
      (** Steps that ran iMFAnt's step kernel: cache misses, plus
          every byte stepped while demoted. *)
  configs_interned : int;
      (** Configurations interned since compile, cumulative across
          flushes and evictions. *)
  resident_configs : int;
      (** Configurations currently interned (including the two
          built-ins: the position-0 start configuration and the dead
          configuration). *)
  flushes : int;
      (** Times the full cache was dropped ({!flush}, {!demote}). *)
  evictions : int;
      (** Individual configurations evicted by the clock (victim
          selection on a full cache). *)
  capacity : int;
      (** Current live capacity in rows. Starts at the configured
          cache size; the adaptive band grows it up to 8x that base,
          and a flush returns it to the base. A gauge, not a
          counter. *)
  grows : int;  (** Times the adaptive band doubled the capacity. *)
  demotions : int;  (** Times {!demote} turned the engine into iMFAnt. *)
  cache_bytes : int;
      (** Approximate resident cache footprint: memo rows, interned
          configurations, the intern index and per-edge match sets. *)
  skipped_bytes : int;
      (** Input bytes iMFAnt's literal prefilter jumped over in batch
          passes run while demoted. The memo cache steps every byte, so
          a cached engine never skips. *)
}

val compile : ?cache_size:int -> Mfsa_model.Mfsa.t -> t
(** [cache_size] is the base capacity, in rows, of the cache of
    {e dynamically} interned configurations (default 4096). The
    adaptive band grows the live capacity up to 8x this base.
    Correctness never depends on it.
    @raise Invalid_argument if [cache_size < 1]. *)

val of_imfant : ?cache_size:int -> Imfant.t -> t
(** Wrap an already compiled iMFAnt engine, sharing its tables. *)

val of_tables : ?cache_size:int -> Tables.t -> t
(** [of_imfant] over {!Imfant.of_tables}: adopt a persisted table
    bundle in O(size). The configuration cache starts empty, exactly
    as after {!compile}. *)

val mfsa : t -> Mfsa_model.Mfsa.t

val imfant : t -> Imfant.t
(** The wrapped transition-centric engine (shares the automaton). *)

val n_classes : t -> int
(** Size of the byte-class alphabet the memo rows are indexed by
    (inherited from the wrapped {!Imfant} engine). *)

val capacity : t -> int
(** The current adaptive capacity, in rows (= [stats.capacity]). *)

val steps_total : t -> int
(** [stats.steps] without the O(resident rows) footprint walk — for
    per-call online monitors (the [auto] planner's churn detector). *)

val hits_total : t -> int
(** [stats.hits], same O(1) contract as {!steps_total}. *)

val stats : t -> stats
(** Cumulative cache counters; {!reset_stats} zeroes them without
    touching the cache. Hit rate is [hits / steps]. *)

val reset_stats : t -> unit
(** Zero every counter in {!stats} — including the eviction, resize
    and demotion series and the adaptive band's internal window marks
    — without touching the cache contents, the current capacity, or
    the demotion state. *)

val flush : t -> unit
(** Drop every dynamically interned configuration, return the
    capacity to its configured base, and bump the epoch: the next
    step from any configuration is a cache miss again.
    Outstanding sessions survive (they re-intern their
    configuration). Counts as a flush in {!stats}; combined with
    {!reset_stats} it returns the engine to its freshly-compiled
    observable state — what the registry adapter's [reset_stats]
    does. *)

(** {2 Demotion}

    The [auto:] planner's online escape hatch. A demoted engine stops
    using (and paying for) the memo cache entirely and is a plain
    iMFAnt scan: batch calls run {!Imfant}'s own pass, and each
    streaming session steps a kernel scan it owns. A session converts
    its configuration to and from the interned form only when the
    engine changes mode between two of its feeds, so no session loses
    its position, activation state or pending end-anchored matches. *)

val demote : t -> unit
(** Become a plain iMFAnt scan (idempotent). Frees the cache (counts
    as a flush) and counts a demotion in {!stats}. *)

val promote : t -> unit
(** Go back through the (empty, to-be-refilled) memo cache.
    Idempotent. *)

val demoted : t -> bool

val run : t -> string -> match_event list
(** All matches, ordered by end position (ties by FSA id). Equal to
    {!Imfant.run} on the same automaton and input. *)

val count : t -> string -> int

val count_per_fsa : t -> string -> int array

val run_chunk :
  t -> string -> start:int -> stop:int -> on_match:(int -> int -> unit) ->
  Imfant.carry
(** Chunk-local pass for the SFA decomposition ({!Sfa}): the matches
    and carry-out configuration produced by threads injected inside
    [input.[start..stop-1]] only. Starts from the position-0
    configuration when [start = 0] and from the dead configuration
    otherwise; end-anchored matches only fire at the global end of
    input. The returned carry is the interned key of the last row:
    immutable, so nothing is built per call. Demoted, this is
    {!Imfant.run_chunk}. *)

(** {2 Streaming}

    Same contract as {!Imfant.session}: feeding chunks [c1, …, cn]
    then {!finish} equals [run t (c1 ^ … ^ cn)], end positions are
    global stream offsets, end-anchored rules report at {!finish}.
    Sessions share their engine's cache — concurrent sessions on one
    engine are fine within a single domain and make the cache warmer
    for each other. A cache flush or an eviction forced by one
    session (or by a [run] on the same engine) does not disturb the
    others: each session keeps its current configuration as the
    durable handle and re-interns it when its row id went stale (the
    engine detects both a flushed table, via the epoch, and an
    individually reused slot, via per-slot mint stamps), at the cost
    of one extra cache insertion. *)

type session

val session : t -> session

val feed : session -> string -> match_event list

val finish : session -> match_event list

val reset : session -> unit

val position : session -> int
