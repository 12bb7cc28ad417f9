(** Fixed-capacity dense bitsets.

    Used throughout the MFSA implementation for sets of merged-FSA
    identifiers: the belonging vector [bel] attached to every MFSA
    transition and the activation sets [J(q)] maintained by the iMFAnt
    engine (paper §III-B, Eq. 4–6). Capacity is fixed at creation; all
    binary operations require operands of equal capacity. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)].
    @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int
(** Size of the universe the set ranges over. *)

val copy : t -> t

val bits_per_word : int
(** Elements per word of {!words} (62: words are immediate ints). *)

val words : t -> int array
(** The underlying words, shared (not copied): element [i] is bit
    [i mod bits_per_word] of word [i / bits_per_word], and a set of
    capacity [n] has [max 1 (ceil (n / bits_per_word))] words. For
    flat word-major tables that copy sets in and out word by word; a
    writer must leave the bits at or above the capacity clear. *)

val resize : t -> int -> t
(** [resize s n] is a set of capacity [n] holding the elements of [s]
    that are smaller than [n]; [s] is unchanged. Used by the live
    ruleset layer when the merged-FSA universe grows or shrinks.
    @raise Invalid_argument if [n < 0]. *)

val singleton : int -> int -> t
(** [singleton n i] is [{i}] over universe [\[0, n)]. *)

val of_list : int -> int list -> t

val add : t -> int -> unit
(** In-place insertion. @raise Invalid_argument if out of range. *)

val remove : t -> int -> unit

val mem : t -> int -> bool

val is_empty : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order (lexicographic on the underlying words); suitable for
    use in [Map]/[Set] functors. *)

val cardinal : t -> int

val union : t -> t -> t
(** Functional union; operands unchanged. *)

val inter : t -> t -> t

val diff : t -> t -> t

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] adds [src] into [dst] in place; returns
    [true] iff [dst] changed. This is the engine's hot path when an
    already-active state receives a second activation set. *)

val inter_into : dst:t -> t -> unit

val disjoint : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] is in [b]. *)

val clear : t -> unit
(** Remove all elements in place. *)

val fill : t -> unit
(** Add every element of the universe in place. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** Elements in increasing order. *)

val choose : t -> int option
(** Smallest element, if any. *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Renders as [{1,4,7}]. *)
