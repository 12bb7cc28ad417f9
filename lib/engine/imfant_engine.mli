(** The [imfant] registry engine: {!Imfant}, the paper's
    transition-centric MFSA engine, behind {!Engine_sig.S}. Its stats
    are the automaton size, run and byte counters, the class count
    and the prefilter's skipped bytes. *)

include Engine_sig.S
