(** The evolving MFSA of Algorithm 1 as a first-class mutable value.

    {!Merge} historically owned this structure privately and consumed
    it in one shot: merge every FSA of a group, freeze, throw the
    builder away. The live-ruleset layer ([lib/live]) needs the same
    structure to {e persist} across updates, so the builder is now a
    module of its own supporting the full dynamic life cycle:

    - {!add} merges one more ε-free FSA into the evolving automaton,
      reusing the cascaded search / relabel / generateNew body of
      Algorithm 1 — adding a rule never re-merges the others;
    - {!retire} clears a merged-FSA identifier (a {e slot}) from every
      belonging vector and from the initial/final structures.
      Transitions whose belonging set becomes empty turn into {e dead}
      structure: they are skipped by {!freeze}, invisible to matching,
      but stay in the merge indexes where a later {!add} may resurrect
      them (shared sub-paths are reusable skeleton, not garbage);
    - {!compact} drops dead transitions and the states nothing live
      touches, renumbering slots and states compactly — the O(T) pass
      that callers amortise behind a garbage threshold;
    - {!freeze} snapshots the current live contents as an immutable,
      validated {!Mfsa.t} for the execution engines.

    Slots are allocated in increasing order by {!add} and never reused
    until a {!compact} renumbers them; belonging bitsets grow
    geometrically so adds stay amortised O(1) in the slot count. *)

type t

type stats = {
  seeds : int;
  chains : int;
  merged_transitions : int;
  merged_states : int;
}
(** Cumulative merge statistics over every {!add} so far; the fields
    are those of {!Merge.stats}. *)

val create : unit -> t
(** Empty builder. *)

val of_mfsa : Mfsa.t -> t
(** Reconstitute a builder from a frozen MFSA: slot [j] holds merged
    FSA [j], all structure live. O(states + transitions). *)

val n_slots : t -> int
(** Slots ever allocated (and not yet compacted away): the next {!add}
    returns [n_slots]. *)

val n_live : t -> int
(** Slots currently holding an FSA ([n_slots] minus retirements). *)

val is_live : t -> int -> bool

val n_states : t -> int

val n_transitions : t -> int
(** Including dead transitions. *)

val dead_transitions : t -> int

val garbage_ratio : t -> float
(** [dead_transitions / n_transitions] (0 when empty): the fraction of
    the structure matching no longer uses, compared against the live
    layer's garbage threshold. *)

val stats : t -> stats

val add : t -> Mfsa_automata.Nfa.t -> int
(** Merge one FSA into the evolving MFSA (the body of Algorithm 1's
    outer loop) and return the slot assigned to it.
    @raise Invalid_argument on an automaton with ε-arcs. *)

val retire : t -> int -> unit
(** Clear the slot from every belonging vector and the initial/final
    structures. Dead transitions are counted, not removed — run
    {!compact} when {!garbage_ratio} crosses the caller's threshold.
    @raise Invalid_argument if the slot is out of range or already
    retired. *)

val compact : t -> int array
(** Drop dead transitions and untouched states, renumber the live
    slots compactly (preserving relative order) and shrink the
    belonging bitsets. Returns the slot relocation map: entry [s] is
    the new slot of old slot [s], or [-1] if [s] was retired. *)

val freeze : t -> (Mfsa.t * int array) option
(** Immutable snapshot of the live contents: dead transitions are
    skipped and live slots become merged-FSA identifiers [0..L-1] in
    slot order. Returns the MFSA plus the identifier-to-slot map
    (entry [j] is the slot merged FSA [j] lives in), or [None] when no
    slot is live. The builder is unchanged and stays usable. *)
