(** NFA state reduction by forward bisimulation.

    DFA minimisation does not apply to NFAs, but the quotient by
    {e forward bisimulation} — repeatedly merging states that agree on
    finality and have identical (label, successor-block) signatures —
    is language-preserving and cheap, and automata toolchains (e.g.
    Becchi's, which produced the paper's datasets) routinely apply
    such reductions before further processing. Thompson + ε-removal
    leaves many bisimilar states (parallel alternation tails, expanded
    loop copies), so this pass typically shrinks rule automata before
    merging.

    The pass is exposed as an optional pre-merging step and measured
    as an ablation in the benchmark harness; it is not on the default
    pipeline path, so the Table I statistics stay comparable with the
    paper's. *)

val reduce : Mfsa_automata.Nfa.t -> Mfsa_automata.Nfa.t
(** Quotient the automaton by the coarsest forward bisimulation.
    Requires an ε-free automaton; the result recognises exactly the
    same language, with [n_states] no larger than the input's.
    Duplicate transitions between merged states are fused.
    @raise Invalid_argument on ε-arcs. *)

val n_blocks : Mfsa_automata.Nfa.t -> int
(** Number of bisimulation classes (the size [reduce] would produce),
    without building the quotient. *)
