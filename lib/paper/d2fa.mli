(** Default-transition DFA compression (D²FA) — the classic DFA
    memory-reduction technique the paper positions itself against
    (§II, §VII; Kumar et al., SIGCOMM 2006; Becchi & Crowley).

    Many DFA states have near-identical outgoing rows. D²FA picks,
    per state, a {e default transition} to a similar state and stores
    only the bytes whose target differs from the default state's; the
    matcher follows default arcs, consuming no input, until an
    explicit arc for the current byte is found. The structure trades
    per-byte traversal bound for space — the opposite end of the
    design space from the MFSA, which compresses across rules rather
    than within one automaton. The benchmark harness uses it as the
    compression baseline in the ablation study.

    This implementation uses the Becchi–Crowley refinement: a state's
    default may only point to a state with strictly smaller BFS depth,
    which bounds default-chain length by the automaton depth and
    guarantees ⌈no cycles⌉ among default arcs. *)

type t = private {
  n_states : int;
  default_of : int array;  (** Default target per state; -1 = none. *)
  labelled : (int * int array * int array) array;
      (** Per state: (count, sorted byte values, targets) of the
          explicitly stored arcs. *)
  start : int;
  finals : bool array;
  anchored_start : bool;
  anchored_end : bool;
  pattern : string;
}

val compress : Dfa.t -> t
(** Build the D²FA from a (total) DFA. *)

val n_stored_transitions : t -> int
(** Explicit arcs plus one per default arc — the memory-footprint
    metric default-transition papers report. *)

val step : t -> int -> char -> int
(** Resolve a move, following default arcs as needed. *)

val accepts : t -> string -> bool
(** Whole-string acceptance; must agree exactly with the source DFA. *)

val match_ends : t -> string -> int list
(** Engine-convention unanchored matching (see
    {!Mfsa_automata.Simulate.match_ends}). *)

val max_default_chain : t -> int
(** Longest chain of default arcs (the traversal-overhead bound). *)
