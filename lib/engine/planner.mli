(** Static per-ruleset engine planning — the brain of the [auto:]
    meta-engine.

    No single engine dominates across rulesets
    (BENCH_engines.json): the lazy-DFA hybrid wins literal-heavy
    rulesets by an order of magnitude, and the merged
    transition-centric iMFAnt is the never-pathological fallback. The
    per-rule scanning DFAs are never planned: their eager subset
    construction is unbounded. The planner picks between the two from
    cheap static features that the compile pipeline already computes
    — nothing here runs the input.

    The decision is a heuristic over thresholds fitted to the bundled
    benchmark datasets (documented in DESIGN.md); it can be wrong on
    adversarial rulesets, which is what the online escape hatch
    ({!demote_window}/{!demote_below_rate}, enforced by the [auto]
    registry engine via {!Hybrid.demote}) is for. *)

type features = {
  f_states : int;  (** States in the merged automaton. *)
  f_fsas : int;  (** Merged rules. *)
  f_transitions : int;
  f_classes : int;  (** Byte-equivalence classes of the alphabet. *)
  f_density : float;
      (** Mean [|bel(t)| / n_fsas] over transitions: how much the
          rules' structure actually shares. *)
  f_literal_share : float;
      (** Fraction of rules with a usable required literal prefix
          ({!Prefilter.prefix_set}). *)
  f_prefilter : bool;
      (** Whether every unanchored rule is literal-covered, i.e.
          iMFAnt's Aho–Corasick prefilter engages — the single
          strongest predictor of a hybrid win. *)
}
(** The hybrid decision keys on [f_prefilter] alone: literal coverage
    predicts a cacheable working set, where configurations repeat.
    Static automaton size does not predict
    cacheability (PRO's 86 merged states yield a ~44k-configuration
    working set; TCP's 119 cache fully), so no size threshold gates
    the choice — pathological churn is caught online by the demotion
    monitor instead. *)

val features_of_mfsa : Mfsa_model.Mfsa.t -> features

val features_of_tables : Tables.t -> features
(** Features from a table bundle, derived from its automaton as
    {!features_of_mfsa} does — what [auto] plans from, so an artifact
    plans the same engine as compiling its rules. *)

val choose : features -> string
(** Registry name of the planned engine: ["hybrid"] or ["imfant"]. *)

val demote_window : int
(** Steps per online-monitoring window (16384). *)

val demote_below_rate : float
(** A windowed hybrid hit rate below this (0.45) demotes to iMFAnt. *)
