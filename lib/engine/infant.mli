(** The iNFAnt execution algorithm for plain FSAs — the paper's
    baseline engine (§V, [32]).

    iNFAnt links each of the 256 alphabet symbols to the packed list of
    transitions that symbol enables and maintains a state vector [sv]
    marking the currently active states. For every input byte it scans
    exactly the transitions the byte enables: a transition fires when
    its source is active or initial (unanchored matching re-enables the
    initial state at every position), and a match is reported whenever
    a final state becomes active. This engine executes a single FSA;
    running a ruleset means running one engine per rule — precisely the
    multiple-FSA configuration the MFSA approach is compared against. *)

type t
(** A compiled (pre-processed) automaton: the symbol-first transition
    table plus reusable state vectors. Compile once, run many. *)

val compile : Mfsa_automata.Nfa.t -> t
(** @raise Invalid_argument unless the automaton is ε-free. *)

val run : t -> string -> int list
(** Match end positions (ascending, deduplicated), honouring the
    automaton's anchoring flags; non-empty matches only. Behaviour is
    specified to agree exactly with
    {!Mfsa_automata.Simulate.match_ends}. *)

val count : t -> string -> int
(** Number of match end positions, without materialising the list. *)

val n_states : t -> int

val n_classes : t -> int
(** Byte-equivalence classes indexing the symbol-first table
    ({!Mfsa_charset.Charclass.partition} over the rule's transition
    labels). *)
