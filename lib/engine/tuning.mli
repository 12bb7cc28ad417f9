(** Global hot-loop tuning knobs.

    {!Engine_sig.S.compile} takes no options, so the optimisation
    toggles live here: engines snapshot the current tuning once at
    compile time and bake it into the compiled instance (a compiled
    engine never changes behaviour when the knobs move afterwards —
    Live generations and Serve replicas each capture the tuning in
    force when they compiled). Both toggles default to on.

    - [classes]: index transition tables by byte-equivalence-class id
      ({!Mfsa_model.Mfsa.classes}) instead of raw byte. Off means the
      identity partition (256 classes) — same layout, no compression.
    - [prefilter]: build an Aho–Corasick prefilter over required
      literal prefixes ({!Prefilter}) and skip cold regions. Only
      engages when every unanchored rule has a usable prefix set.
    - [cache_size]: base capacity of the hybrid engine's interned
      configuration cache, in rows. The adaptive sizing bands grow the
      live capacity up to 8x this base under churn and shrink it back
      when the cache runs hot; artifacts snapshot the value so a
      loaded engine reproduces the compile-time setting. *)

type t = { classes : bool; prefilter : bool; cache_size : int }

val default : t
(** [{ classes = true; prefilter = true; cache_size = 4096 }]. *)

val get : unit -> t

val set : t -> unit
(** @raise Invalid_argument if [cache_size < 1]. *)

val with_tuning : t -> (unit -> 'a) -> 'a
(** Run [f] with the knobs temporarily replaced; restores the previous
    tuning on exit (benches and equivalence tests use this). *)
