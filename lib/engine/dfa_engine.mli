(** Deterministic scanning engine — the DFA baseline of the paper's
    Background (§II): one table lookup per input byte, constant-time
    traversal, at the price of subset-construction state growth.

    Unanchored matching is compiled in rather than simulated: the
    engine determinises the rule's NFA augmented with an all-bytes
    self-loop on a fresh start state (the classic [.*R] scanning
    construction), so the run is a single-state walk that reports a
    match whenever the current state is accepting. Match semantics
    are specified to agree exactly with {!Infant} /
    {!Mfsa_automata.Simulate.match_ends} (non-empty matches, per-end
    deduplication, anchors honoured) — the property suite checks
    this.

    The transition table is stored class-indexed: the DFA's byte
    equivalence classes ({!Mfsa_automata.Stride.byte_classes}) fold
    the 256-way rows down to one cell per class, shrinking the table
    by the alphabet-reduction factor while keeping the one-lookup
    step (a 256-entry byte → class map is consulted first). *)

type t

val compile : ?minimize:bool -> Mfsa_automata.Nfa.t -> t
(** Build the scanning DFA ([minimize] defaults to [true], running
    Hopcroft on the augmented automaton). The input must be ε-free.
    @raise Invalid_argument on ε-arcs. *)

val run : t -> string -> int list
(** Match end positions, ascending. *)

val count : t -> string -> int

val n_states : t -> int
(** Scanning-DFA size — the state-explosion metric of §II. *)

val n_classes : t -> int
(** Byte-equivalence classes indexing the table. *)

val table_cells : t -> int
(** Resident transition-table cells: [n_states * n_classes]. *)
