(** Aho–Corasick multi-pattern string matching.

    The classical answer to "match many patterns in one pass" when the
    patterns are plain strings (paper §I: string matching is the
    well-understood special case that REs generalise). It serves two
    roles in this library: a correctness oracle and performance
    baseline for MFSAs built from literal-only rulesets (where the
    MFSA's merged-prefix structure and the AC trie coincide
    conceptually), and the building block of decomposition-style
    matchers à la Hyperscan that the paper compares against (§VII).

    The automaton is the standard goto/fail/output construction with
    the fail function flattened into a total byte-indexed transition
    table, so matching is a strict one-lookup-per-byte scan. *)

type t

val build : string array -> t
(** Build the matcher. Empty patterns are rejected; duplicate patterns
    are fine (each keeps its own identifier = its index).
    @raise Invalid_argument on an empty pattern. *)

type match_event = { pattern : int; end_pos : int }

val run : t -> string -> match_event list
(** Every occurrence of every pattern, ordered by end position
    (pattern-id order within one position). Overlapping and nested
    occurrences are all reported. *)

val count : t -> string -> int

val count_per_pattern : t -> string -> int array

val n_states : t -> int
(** Trie nodes (for size comparisons against merged automata). *)

val scan : t -> string -> on_match:(int -> int -> unit) -> unit
(** [scan t input ~on_match] calls [on_match id e] for every
    occurrence, with the pattern id and the end offset [e]. *)

(** {2 Table round trip}

    The automaton as plain arrays, for the binary artifact layer: the
    flattened transition table plus the output lists in CSR form
    (state [q]'s pattern ids are
    [ac_out_ids.(ac_out_off.(q)) .. ac_out_ids.(ac_out_off.(q+1)-1)],
    in list order). [import (export t)] reproduces [t] exactly. *)

type tables = {
  ac_states : int;
  ac_next : int array;  (** [ac_states * 256] entries. *)
  ac_out_off : int array;  (** [ac_states + 1] entries, monotone. *)
  ac_out_ids : int array;
}

val export : t -> tables

val import : ?copy:bool -> tables -> (t, string) result
(** Validates shape and bounds (state targets in range, offsets
    monotone and covering the id table) — the artifact reader's
    defence against a corrupt or hand-edited file. [copy] (default
    [true]) duplicates the transition array; pass [~copy:false] only
    when ownership of [tables] transfers to the automaton (the
    artifact loader's freshly parsed arrays), sparing a multi-megabyte
    copy on large literal sets. *)
