(** Deterministic finite automata over the 256-byte alphabet.

    The DFA side of the paper's Background (§II): deterministic
    traversal has an O(1)-per-byte upper bound but risks exponential
    state explosion, which is why the MFSA work stays on NFAs. This
    module provides the deterministic substrate used by the baseline
    engines and by the compression comparisons of the related work
    (§VII): subset construction from an ε-free NFA, Hopcroft
    minimisation, and the dense transition-table representation the
    engines consume.

    The transition function is total: every state has a successor for
    every byte; a distinguished non-accepting {e sink} state absorbs
    dead inputs (a minimised DFA keeps the sink only when it is
    reachable). *)

type t = private {
  n_states : int;
  (* Row-major table: [next.(q * 256 + c)] is δ(q, c). *)
  next : int array;
  start : int;
  finals : bool array;
  anchored_start : bool;
  anchored_end : bool;
  pattern : string;
}

val create :
  n_states:int ->
  next:int array ->
  start:int ->
  finals:bool array ->
  ?anchored_start:bool ->
  ?anchored_end:bool ->
  pattern:string ->
  unit ->
  t
(** Validates table dimensions and ranges.
    @raise Invalid_argument on malformed input. *)

val step : t -> int -> char -> int
(** [step dfa q c] is δ(q, c). *)

val state_budget : int
(** The most states {!determinize} builds before giving up: above the
    largest per-rule minimised DFA of the paper-scale datasets, far
    below what an exponential blow-up such as [.*a.{20}] reaches. *)

type error = Over_budget  (** Subset construction passed {!state_budget}. *)

val error_message : error -> string

val determinize : Mfsa_automata.Nfa.t -> (t, error) result
(** Subset construction, stopped with [Error Over_budget] once it
    discovers more than {!state_budget} states. The input must be
    ε-free ({!Mfsa_automata.Epsilon.remove} first); anchoring flags
    and pattern carry over.
    @raise Invalid_argument on ε-arcs. *)

val byte_classes : t -> int array * int
(** [(class_of, k)]: bytes [c] and [c'] share a class iff
    δ(q, c) = δ(q, c') for every state q — the alphabet reduction the
    minimiser, the 2-stride table and the scanning engine fold their
    rows over. *)

val minimize : t -> t
(** Hopcroft's algorithm. The result is the unique (up to
    isomorphism) minimal DFA for the same language; unreachable states
    are removed first. *)

val accepts : t -> string -> bool
(** Whole-string acceptance. *)

val match_ends : t -> string -> int list
(** Unanchored match end positions under the engine conventions of
    {!Mfsa_automata.Simulate.match_ends} (non-empty matches, one report per end
    position, anchor flags honoured). *)

val n_reachable : t -> int
(** Number of states reachable from the start. *)

val to_nfa : t -> Mfsa_automata.Nfa.t
(** View as an NFA with class-labelled transitions (dead arcs to an
    unreachable sink are dropped). Useful to reuse NFA tooling. *)
