(** Merging a set of FSAs into a single MFSA — the paper's Algorithm 1
    (§III-A).

    FSAs are merged in a cascaded fashion: the first automaton is
    copied into the evolving MFSA as-is; each subsequent automaton [a]
    is compared against the MFSA [z] to find common sub-paths — chains
    of transitions with pairwise-equal labels (single characters and
    character classes are compared uniformly as classes, covering both
    of the paper's tuple sets [X] and [Y]) — which are collected into
    merging structures. The merging structures induce a relabeling of
    [a]'s states onto [z]'s states; the relabeling is kept {e
    injective in both directions} so that each input FSA's morphology
    is preserved exactly (the paper's correctness condition: no
    transition is removed or changed, and [Mfsa.project] recovers an
    isomorphic copy of every input). Relabelled transitions of [a]
    that coincide with an existing [z] transition update its belonging
    vector with [a]'s identifier; the remaining transitions and states
    are appended fresh.

    The three outcomes of the paper's search are all covered: no
    common sub-path (pure copy with disjoint relabeling), partial
    overlap (belonging update on the shared prefix), and identical
    automata (pure belonging update, no growth).

    A chain may start at any label-equal transition pair — the maximal
    reading of the paper's X/Y tuple sets. *)

type stats = Builder.stats = {
  seeds : int;  (** Label-equal transition pairs that started a chain. *)
  chains : int;  (** Merging structures (maximal matched chains). *)
  merged_transitions : int;
      (** Transitions of incoming FSAs that landed on an existing MFSA
          transition (belonging update instead of a copy). *)
  merged_states : int;
      (** States of incoming FSAs relabelled onto existing MFSA
          states. *)
}

val merge : ?stats:stats ref -> Mfsa_automata.Nfa.t array -> Mfsa.t
(** [merge fsas] merges all automata into one MFSA; identifier [j] is
    the index of the automaton in [fsas]. Automata must be ε-free
    ({!Mfsa_automata.Epsilon.remove} first).
    @raise Invalid_argument on an empty array or ε-arcs. *)

val merge_into :
  ?stats:stats ref -> Mfsa.t -> Mfsa_automata.Nfa.t -> int -> Mfsa.t
(** [merge_into z a j] adds one more compiled FSA to an {e existing}
    MFSA, reusing the cascaded body of Algorithm 1 instead of
    re-merging the whole group: the incoming automaton is searched
    against [z] for common sub-paths, relabelled, and appended, so the
    cost is that of one merge step — independent of how many FSAs [z]
    already holds. [j] is the merged-FSA identifier assigned to [a]
    and must be [z.n_fsas] (identifiers stay the positions of the
    merge sequence). The input MFSA is unchanged.

    This is the one-shot entry point; callers performing many updates
    should hold a persistent {!Builder.t} (as [lib/live] does) to
    avoid re-indexing [z] on every addition.
    @raise Invalid_argument on ε-arcs or [j <> z.n_fsas]. *)

val merge_groups :
  ?stats:stats ref -> m:int -> Mfsa_automata.Nfa.t array -> Mfsa.t list
(** Partitions the ruleset into ⌈N/M⌉ consecutive groups of (up to)
    [m] automata, as in the paper's evaluation ("sampling the input M
    REs sequentially from the dataset"), and merges each group.
    [m = 0] or [m >= N] merges everything into one MFSA ([M = all]).
    @raise Invalid_argument if [m < 0] or the array is empty. *)
