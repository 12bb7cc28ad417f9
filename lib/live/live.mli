(** Live ruleset management: incremental updates over a running
    matcher.

    The paper's framework compiles a ruleset once and runs it forever,
    but the deployments it targets (DPI, IDS, WAF) update their rule
    feeds continuously. This module layers a dynamic ruleset over the
    existing pipeline:

    - {!add_rule} compiles one rule and merges its FSA into the
      existing automaton with the cascaded body of Algorithm 1
      ({!Mfsa_model.Builder.add}) — no re-merge of the rules already
      in;
    - {!remove_rule} retires the rule from every belonging vector in
      O(bits); the structural garbage it leaves behind is compacted
      away only when its fraction crosses [gc_threshold], so removal
      cost is O(1) full-compaction passes amortised;
    - every successful update produces a new {e generation}: an
      immutable {!snapshot} (automaton + lazily compiled iMFAnt
      tables) swapped in atomically behind the handle. Callers never
      observe a half-updated automaton; long-lived {!session}s keep
      streaming on the generation they opened and pick up the current
      one on {!reset}.

    Matches are reported against {e stable rule ids} (assigned by
    {!add_rule}, never reused), regardless of how the rules are packed
    into the automaton internally.

    The correctness anchor, checked by the property suite: after any
    interleaving of adds and removes, {!run} equals a fresh
    {!Mfsa_core.Ruleset} compile of the surviving rules.

    {[
      let lv = Live.create () in
      let admin = Live.add_rule_exn lv "GET /admin" in
      let _dots = Live.add_rule_exn lv "\\.\\./\\.\\." in
      ignore (Live.remove_rule lv admin);
      Live.run lv payload
      |> List.iter (fun { Live.rule; end_pos } -> ...)
    ]} *)

type t

type match_event = { rule : int;  (** Stable rule id. *) end_pos : int }

type stats = {
  generation : int;
  live_rules : int;
  states : int;  (** Builder states, including garbage. *)
  transitions : int;  (** Builder transitions, including dead ones. *)
  dead_transitions : int;
  compactions : int;  (** Compaction passes run so far. *)
}

val create : ?gc_threshold:float -> ?engine:string -> unit -> t
(** Empty live ruleset at generation 0. [gc_threshold] (default 0.25)
    is the fraction of dead transitions that triggers a compaction
    pass after a removal — 0 compacts on every removal, 1 (almost)
    never.
    [engine] (default ["imfant"]) names the execution engine — any
    name registered in {!Mfsa_engine.Registry} — compiled by every
    snapshot; matching semantics are identical across engines, so the
    choice is purely a performance trade-off. (The closed
    [`Imfant]/[`Hybrid] variant of earlier releases is replaced by
    these registry names; see the CHANGELOG.)
    @raise Invalid_argument if [gc_threshold] is outside [\[0, 1\]] or
    [engine] is not a registered engine name. *)

val of_rules :
  ?gc_threshold:float ->
  ?engine:string ->
  string array ->
  (t, Mfsa_core.Pipeline.error) result
(** Bulk initial load: rule [i] of the array gets id [i]. Equivalent
    to {!create} followed by {!add_rule} for each rule, in one
    generation. *)

val of_source :
  ?gc_threshold:float ->
  ?engine:string ->
  Mfsa_engine.Source.t ->
  (t, Mfsa_core.Pipeline.error) result
(** {!of_rules} from a unified {!Mfsa_engine.Source}. Rules sources
    are {!of_rules} exactly. Any other source (automata, a binary
    artifact, table bundles) is {e adopted}: it resolves to one table
    bundle, merged FSA [j] becomes rule id [j] (its pattern is the
    automaton's stored provenance), the builder reconstitutes around
    the merged structure, and the first generation's engine is loaded
    from the bundle on first use, so a hot-standby process resumes
    serving from an artifact in O(artifact size). Later updates
    refresh through the normal compile path. The source must yield
    exactly one automaton (merge with [m = 0]).

    @raise Invalid_argument when the source yields zero or several
    automata. Artifact/IO failures propagate as their typed
    exceptions. *)

val add_rule : t -> string -> (int, Mfsa_core.Pipeline.error) result
(** Compile the rule (front-end + single-FSA middle-end) and merge it
    into the automaton incrementally. Returns the rule's stable id and
    advances the generation. A malformed rule leaves the ruleset
    untouched. *)

val add_rule_exn : t -> string -> int
(** @raise Mfsa_core.Pipeline.Compile_error on a malformed rule; the
    ruleset is untouched and the previous generation keeps serving. *)

val remove_rule : t -> int -> bool
(** Retire the rule: matches for it stop with the new generation.
    [false] (and no generation change) if the id is unknown or already
    removed. *)

val generation : t -> int
(** Generations advance by one on every successful update. *)

val engine : t -> string
(** The registered engine name every snapshot compiles. *)

val n_rules : t -> int
(** Live rules. *)

val rules : t -> (int * string) list
(** Live [(id, pattern)] pairs in increasing id order. *)

val pattern : t -> int -> string option

val compact : t -> unit
(** Force a compaction pass regardless of the garbage threshold. *)

val stats : t -> stats

val metrics : t -> Mfsa_obs.Snapshot.t
(** {!stats} plus the update counters as a metric snapshot:
    [mfsa_live_generation], [mfsa_live_rules], [mfsa_live_states],
    [mfsa_live_transitions], [mfsa_live_dead_transitions] gauges,
    the [mfsa_live_compactions_total] counter and
    [mfsa_live_updates_total{result="ok"|"rejected"}] — every sample
    tagged [generation=<current generation>]. Includes the serving
    engine's own metrics if (and only if) the current generation's
    lazy engine has already been forced by a match — exporting
    metrics never triggers engine compilation. *)

(** {2 Matching}

    {!run}/{!count} execute on the current generation. For explicit
    generation pinning — e.g. to keep serving queries on one automaton
    while updates continue — take a {!snapshot}. *)

type snapshot
(** An immutable compiled generation: the automaton and its engine
    tables. Snapshots stay valid (and keep matching their own rule
    set) however the live ruleset evolves afterwards. *)

val snapshot : t -> snapshot

val snapshot_generation : snapshot -> int

val snapshot_mfsa : snapshot -> Mfsa_model.Mfsa.t option
(** The underlying automaton; [None] when the generation has no live
    rules. *)

val snapshot_rule_ids : snapshot -> int array
(** The generation's merged-FSA index → stable rule id map: element
    [fsa] of the array is the stable id that an
    {!Mfsa_engine.Engine_sig.match_event} with that [fsa] field
    reports as — what {!snapshot_run} applies internally, exposed so
    an external executor of {!snapshot_mfsa} (a
    {!Mfsa_serve.Serve} pool compiled from it, say) can translate its
    events to the same stable ids. Empty when the generation has no
    live rules. *)

val snapshot_run : snapshot -> string -> match_event list

val run : t -> string -> match_event list
(** All matches on the current generation, ordered by end position
    (rule id within ties). *)

val count : t -> string -> int

(** {2 Streaming}

    Sessions wrap the selected engine's streaming session
    ({!Mfsa_engine.Engine_sig.S.session}) on the generation current at
    creation ({!session}) or at the last {!reset}. A
    session's generation never changes mid-stream — updates to the
    owner do not disturb it — which is exactly the zero-downtime swap
    discipline: drain the old generation, reset, continue on the new
    one. *)

type session

val session : t -> session
(** Fresh session pinned to the owner's current generation. *)

val feed : session -> string -> match_event list
(** Consume one chunk; completed matches with global stream offsets
    (end-anchored rules report at {!finish}). *)

val finish : session -> match_event list
(** End of stream: pending matches of end-anchored rules. The session
    stays valid for {!reset}. *)

val reset : session -> unit
(** Back to stream position 0 — re-pinned to the owner's {e current}
    generation. *)

val session_generation : session -> int

val position : session -> int
(** Bytes consumed since the last {!reset}. *)
