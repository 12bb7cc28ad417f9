(** The [hybrid] registry engine: {!Hybrid}, the lazy-DFA
    configuration cache over iMFAnt, behind {!Engine_sig.S}. The
    compiled type stays transparent: {!Auto_engine} reuses this
    adapter's compile/stats/session plumbing while keeping a typed
    handle on the engine for its demotion monitor. *)

include Engine_sig.S with type compiled = Hybrid.t
