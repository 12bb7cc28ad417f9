(** Engine-ready tables: what every engine is built from.

    A value of this type is the complete compiled state of the
    transition-centric engine ({!Imfant}) minus its mutable scratch:
    the automaton, the byte-class alphabet, the class-indexed
    transition tables and the literal prefilter. The flat activation
    tables the step kernel reads are cheap word copies of the
    automaton's own sets, so they are rebuilt on adoption, not
    stored.
    {!Imfant.tables} derives one from an automaton, and an artifact
    load decodes one; either way every registry engine comes up from
    it through its one constructor, {!Engine_sig.S.of_tables}, in
    O(size of the tables) — no re-derivation, which is what makes
    artifact loading cheap.

    Everything here is treated as read-only by the engines that adopt
    it; the arrays may be shared between engine instances (the serving
    layer loads one replica per domain from one shared bundle). *)

type t = {
  z : Mfsa_model.Mfsa.t;
  n_classes : int;
  class_of : bytes;  (** 256-entry byte → class map. *)
  trans_by_cls : int array array;
      (** Per class, the transition indices its bytes enable. *)
  prefilter : Prefilter.t option;
}
