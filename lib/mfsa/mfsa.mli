(** The Multi-RE Finite State Automaton (paper §III-B).

    An MFSA is the tuple [z = (Q, Σ, Δ, I, F, J, R)] (paper Eq. 10):
    states [Q = \[0, n_states)], the byte alphabet Σ, a transition
    relation stored in adjacency-matrix Coordinate Format (the [row],
    [col], [idx] vectors of the paper's Fig. 2) extended with the
    belonging vector [bel] recording which merged FSAs each transition
    derives from, the per-FSA initial states [I], the per-FSA final
    state sets [F], and the merged-FSA identifier set
    [R = \[0, n_fsas)]. The activation function [J] is not stored — it
    is the run-time structure maintained by the iMFAnt engine according
    to Equations 4–6.

    Merged-FSA identifiers are the positions of the source FSAs in the
    array handed to {!Merge.merge}. *)

type classes = {
  class_of_byte : bytes;
      (** 256-entry map from byte value to equivalence-class id. *)
  n_classes : int;  (** Number of classes, in [\[1, 256\]]. *)
  class_repr : int array;
      (** [class_repr.(k)] = smallest byte value in class [k]. *)
}
(** The byte-class partition of an automaton's alphabet: two bytes are
    equivalent iff every transition's enabling class either contains
    both or neither, so the engines can index their transition tables
    by class id instead of raw byte — the RE2/Hyperscan table
    compression, computed once per compiled MFSA. *)

type t = private {
  n_states : int;
  n_fsas : int;
  row : int array;  (** Source state per transition. *)
  col : int array;  (** Destination state per transition. *)
  idx : Mfsa_charset.Charclass.t array;  (** Enabling class per transition. *)
  bel : Mfsa_util.Bitset.t array;
      (** [bel.(t)] ⊆ [\[0, n_fsas)]: FSAs transition [t] belongs to. *)
  init_of : int array;  (** [init_of.(j)] = initial state of FSA [j]. *)
  init_sets : Mfsa_util.Bitset.t array;
      (** [init_sets.(q)] = FSAs for which [q] is initial (inverse of
          [init_of]). *)
  final_sets : Mfsa_util.Bitset.t array;
      (** [final_sets.(q)] = FSAs for which [q] is final. *)
  anchored_start : bool array;  (** Per-FSA [^] flag. *)
  anchored_end : bool array;  (** Per-FSA [$] flag. *)
  patterns : string array;  (** Source REs, for provenance/reporting. *)
  classes_memo : classes option Atomic.t;
      (** Byte-class partition, memoised by {!classes}; use the
          accessor, never this field. *)
}

val n_transitions : t -> int

val classes : t -> classes
(** The byte-class partition of [z]'s alphabet, computed from the
    [idx] vector on first use and memoised on the automaton (safe to
    race from multiple domains — the computation is idempotent).
    Class ids are assigned in increasing byte order, so byte 0 is
    always class 0. *)

val of_fsa : Mfsa_automata.Nfa.t -> t
(** The trivial MFSA of a single FSA (merging factor M = 1): every
    transition belongs to FSA 0. Requires an ε-free automaton.
    @raise Invalid_argument otherwise. *)

val create :
  n_states:int ->
  n_fsas:int ->
  transitions:(int * Mfsa_charset.Charclass.t * int * int list) list ->
  inits:(int * int) list ->
  finals:(int * int) list ->
  ?anchored_start:bool array ->
  ?anchored_end:bool array ->
  patterns:string array ->
  unit ->
  t
(** General constructor, mainly for tests and the ANML reader.
    [transitions] are [(src, class, dst, belongs-to)];
    [inits]/[finals] are [(fsa, state)] pairs. Validates every range
    and that each FSA has exactly one initial state.
    @raise Invalid_argument on malformed input. *)

val of_arrays :
  n_states:int ->
  n_fsas:int ->
  row:int array ->
  col:int array ->
  idx:Mfsa_charset.Charclass.t array ->
  bel:Mfsa_util.Bitset.t array ->
  init_of:int array ->
  final_sets:Mfsa_util.Bitset.t array ->
  anchored_start:bool array ->
  anchored_end:bool array ->
  patterns:string array ->
  t
(** Constructor for already-assembled COO vectors (used by the merging
    builder and the ANML reader); computes [init_sets] and validates
    the same invariants as {!create}. The arrays are owned by the
    result and must not be mutated afterwards.
    @raise Invalid_argument on malformed input. *)

val project : t -> int -> Mfsa_automata.Nfa.t
(** [project z j] extracts FSA [j]: the sub-automaton of transitions
    whose belonging contains [j], with states renumbered compactly.
    By the merging procedure's correctness argument (paper §III-A, the
    morphology of initial FSAs is preserved), [project z j] is
    isomorphic to the [j]-th input FSA — the property tests check
    exactly this. @raise Invalid_argument if [j] is out of range. *)

val retire : t -> int -> t option
(** [retire z j] removes merged FSA [j] from the automaton: [j] is
    cleared from every belonging vector and from the initial/final
    structures, transitions whose belonging set became empty are
    dropped, states nothing live touches are compacted away, and the
    surviving identifiers above [j] shift down by one (staying the
    positions of the original merge sequence). [None] when [j] was the
    last FSA — an MFSA is never empty; the live layer represents the
    empty ruleset without an automaton. The input is unchanged.
    Projections of the survivors are preserved: [project (retire z j) k']
    is isomorphic to [project z k] for every surviving [k].
    @raise Invalid_argument if [j] is out of range. *)

val validate : t -> (unit, string) result
(** Structural invariants: vector lengths agree, states and FSA ids in
    range, no empty class, no empty belonging set, [init_sets] is the
    inverse of [init_of]. *)

val states_compression : before:int -> after:int -> float
(** Percentage reduction [(before - after) / before * 100] — the
    %comp metric of paper §VI-A. Returns 0 for [before = 0]. *)

val total_states : t list -> int
val total_transitions : t list -> int

val cc_stats : t -> int * int
(** [(count, total length)] of multi-character classes, as in Table I. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump: per-FSA metadata plus one line per transition. *)

val pp_coo : Format.formatter -> t -> unit
(** The COO table exactly as the paper's Fig. 2 draws it: four rows
    ([bel], [row], [col], [idx]) with one column per transition. *)

val to_dot : t -> string
(** Graphviz rendering; transition labels carry the belonging sets. *)
