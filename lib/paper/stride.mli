(** Multi-stride DFA (k = 2) — the other classic single-automaton
    acceleration the paper's related work surveys (§VII: multi-stride
    DFAs consume k symbols per traversal at the price of squaring the
    alphabet).

    The construction first computes the DFA's {e byte equivalence
    classes} (bytes are equivalent when every state moves to the same
    target on both — the alphabet-reduction step that makes
    multi-striding affordable), then builds the stride-2 table over
    class pairs: one lookup consumes two input bytes. A parallel
    bit-table records whether the {e intermediate} state (after the
    first of the two bytes) is accepting, so no match is lost at odd
    offsets. Used as a throughput baseline in the ablation benches. *)

type t = private {
  n_states : int;
  n_classes : int;
  class_of : int array;  (** byte → equivalence class, length 256. *)
  (* [next2.((q * k + c1) * k + c2)] is δ(δ(q,c1),c2) with k = n_classes. *)
  next2 : int array;
  mid_final : bool array;
      (** Same indexing: was δ(q,c1) accepting? *)
  next1 : int array;
      (** 1-stride view over classes, for odd phases and trailing
          bytes: [next1.(q * k + c)] = δ(q, c). *)
  start : int;
  finals : bool array;
  anchored_start : bool;
  anchored_end : bool;
  pattern : string;
}

val build : Dfa.t -> t
(** Stride-2 construction over the reduced alphabet
    ({!Dfa.byte_classes}). *)

val accepts : t -> string -> bool
(** Whole-string acceptance; agrees with the source DFA. *)

val match_ends : t -> string -> int list
(** Engine-convention unanchored matching; agrees with
    {!Dfa.match_ends} on the source DFA (mid-pair matches included). *)

val n_table_entries : t -> int
(** Size of the stride-2 table — the cost multi-stride papers track. *)
