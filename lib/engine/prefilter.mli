(** Required-literal prefix analysis and the merged Aho–Corasick
    prefilter (the RE2/Hyperscan idiom).

    For each rule the front-end AST is analysed for a {e mandatory
    prefix set}: a small set of literals such that every match of the
    rule starts with one of them. When every unanchored rule in an
    MFSA has a usable set (all members at least {!min_prefix_len}
    bytes), the union of the sets is compiled into one Aho–Corasick
    automaton; scanning the input with it yields the {e candidate}
    positions — the only offsets where any match can begin. iMFAnt's
    batch passes ({!Imfant}) exploit this soundly in two ways: never
    inject initial states at non-candidate offsets, and when the active
    configuration is empty, jump straight to the next candidate instead
    of stepping the full automaton byte by byte. Position 0 always
    injects the start-anchored rules (they need no literal).

    The analysis runs at engine-compile time from the automaton's
    stored source patterns, so Live generations and Serve replicas
    carry their prefilter with them; its cost is traced as the
    [literal_prefilter] stage of [mfsa_compile_stage_seconds]. *)

type t

val min_prefix_len : int
(** Minimum usable literal length (2): 1-byte literals fire on too
    many positions to pay for the scan, and a 0-byte "literal" would
    make every position a candidate. *)

val analyze : Mfsa_model.Mfsa.t -> t option
(** [None] when some unanchored rule has no usable mandatory prefix
    set (or fails to re-parse) — engines then run unfiltered. *)

val candidates : t -> string -> int array
(** Sorted, duplicate-free start offsets in the input at which some
    required literal occurs — the only offsets where a match of an
    unanchored rule can begin. *)

val candidates_in : t -> string -> start:int -> stop:int -> int array
(** The candidates inside [input.[start..stop-1]], as sorted offsets
    into [input]. The scan window extends one byte short of the
    longest literal past [stop], so a literal straddling [stop] still marks its in-window
    start; a whole-input window is scanned without a copy. *)

val n_literals : t -> int
val ac_states : t -> int

(** {2 Table round trip}

    The compiled filter as plain arrays for the binary artifact layer
    — the Aho–Corasick tables plus per-literal lengths. A loaded
    filter behaves exactly like the one {!analyze} built: the literal
    {e strings} are not stored, only the automaton that scans for
    them. *)

type tables = {
  pf_ac : Aho_corasick.tables;
  pf_lens : int array;  (** Length of literal [id] (ends → starts). *)
  pf_maxlen : int;
}

val export : t -> tables

val import : ?copy:bool -> tables -> (t, string) result
(** Validates via {!Aho_corasick.import} plus the length invariants.
    [copy] as in {!Aho_corasick.import}: [~copy:false] adopts the
    caller's arrays instead of duplicating them. *)

(** {2 Per-rule analysis} (exposed for the planner and tests) *)

val prefix_set : Mfsa_frontend.Ast.t -> string list option
(** The usable mandatory prefix set of one rule: every match starts
    with a member; members are truncated, deduplicated and at least
    {!min_prefix_len} bytes. [None] when no usable set exists (e.g.
    leading [.*], or a nullable pattern). *)

