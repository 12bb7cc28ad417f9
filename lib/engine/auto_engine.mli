(** The [auto] registry engine: the {!Planner} meta-engine.

    It plans a concrete engine per ruleset from the static features
    {!Planner} computes at compile time, then delegates everything to
    the planned engine's adapter ({!Imfant_engine} or
    {!Hybrid_engine}). When the plan is [hybrid] it keeps a typed
    handle on the engine and watches the windowed cache hit rate after
    every chunk and batch call, and between the window-sized slices of
    a long batch call: sustained churn demotes the hybrid
    ({!Hybrid.demote}), and the demoted hybrid is an iMFAnt scan whose
    sessions keep their state. Stats are the inner engine's series
    relabelled [engine="auto"], plus the planner's own series (what was
    planned, what is active, and the features that decided). *)

include Engine_sig.S
