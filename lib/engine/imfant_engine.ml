module Mfsa = Mfsa_model.Mfsa
module Snapshot = Mfsa_obs.Snapshot

let name = "imfant"

let doc =
  "transition-centric merged-automaton engine (paper \xc2\xa7V, the default)"

(* [run] counts its calls and bytes; [count] does not — it is the
   benchmarks' timing entry point. *)
type compiled = {
  im : Imfant.t;
  mutable bytes : int;  (* bytes processed by runs *)
  mutable runs : int;
}

let of_tables tb = { im = Imfant.of_tables tb; bytes = 0; runs = 0 }

let mfsa c = Imfant.mfsa c.im

let run c input =
  c.bytes <- c.bytes + String.length input;
  c.runs <- c.runs + 1;
  Imfant.run c.im input

let count c input = Imfant.count c.im input

let count_per_fsa c input = Imfant.count_per_fsa c.im input

let stats c =
  let z = mfsa c in
  let labels = [ ("engine", name) ] in
  [
    Snapshot.gauge_i ~labels ~help:"States in the compiled automaton"
      "mfsa_engine_states" z.Mfsa.n_states;
    Snapshot.gauge_i ~labels ~help:"Transitions in the compiled automaton"
      "mfsa_engine_transitions" (Mfsa.n_transitions z);
    Snapshot.counter_i ~labels ~help:"Runs executed"
      "mfsa_engine_runs_total" c.runs;
    Snapshot.counter_i ~labels ~help:"Input bytes processed by runs"
      "mfsa_engine_bytes_total" c.bytes;
    Snapshot.gauge_i ~labels
      ~help:"Byte-equivalence classes indexing the transition tables"
      "mfsa_engine_class_count" (Imfant.n_classes c.im);
    Snapshot.counter_i ~labels
      ~help:"Input bytes skipped by the literal prefilter"
      "mfsa_engine_prefilter_skipped_bytes_total" (Imfant.skipped_bytes c.im);
  ]

let reset_stats c =
  c.bytes <- 0;
  c.runs <- 0;
  Imfant.reset_skipped c.im

(* Nothing behind the counters is warm state: both resets agree. *)
let reset_counters = reset_stats

type session = Imfant.session

let session c = Imfant.session c.im

let feed = Imfant.feed

let finish = Imfant.finish

let reset = Imfant.reset

let position = Imfant.position
