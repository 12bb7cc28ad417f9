(* The engine-ready table bundle: everything an artifact stores beyond
   the automaton itself, and everything an engine needs to come up
   without re-running its compile-time derivations. *)

module Mfsa = Mfsa_model.Mfsa

type t = {
  z : Mfsa.t;
  n_classes : int;
  class_of : bytes;
  trans_by_cls : int array array;
  prefilter : Prefilter.t option;
}
