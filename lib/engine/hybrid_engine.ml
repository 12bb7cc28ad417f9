module Mfsa = Mfsa_model.Mfsa
module Snapshot = Mfsa_obs.Snapshot

let name = "hybrid"

let doc = "lazy-DFA configuration cache over iMFAnt (RE2-style)"

type compiled = Hybrid.t

let of_tables tb = Hybrid.of_tables tb

let mfsa = Hybrid.mfsa

let run = Hybrid.run

let count = Hybrid.count

let count_per_fsa = Hybrid.count_per_fsa

let stats c =
  let s = Hybrid.stats c in
  let hit_rate =
    if s.Hybrid.steps = 0 then 0.
    else float_of_int s.Hybrid.hits /. float_of_int s.Hybrid.steps
  in
  let labels = [ ("engine", name) ] in
  [
    Snapshot.gauge_i ~labels ~help:"States in the compiled automaton"
      "mfsa_engine_states" (Hybrid.mfsa c).Mfsa.n_states;
    Snapshot.counter_i ~labels ~help:"Bytes stepped through the lazy DFA"
      "mfsa_engine_steps_total" s.Hybrid.steps;
    Snapshot.counter_i ~labels ~help:"Memoised steps"
      "mfsa_engine_cache_hits_total" s.Hybrid.hits;
    Snapshot.counter_i ~labels
      ~help:"Steps run through the iMFAnt step kernel (misses, and every demoted byte)"
      "mfsa_engine_cache_misses_total" s.Hybrid.misses;
    Snapshot.gauge ~labels ~help:"hits / steps since the last reset"
      "mfsa_engine_cache_hit_ratio" hit_rate;
    Snapshot.gauge_i ~labels ~help:"Configurations resident in the cache"
      "mfsa_engine_cache_resident_configs" s.Hybrid.resident_configs;
    Snapshot.counter_i ~labels ~help:"Configurations interned"
      "mfsa_engine_cache_interned_total" s.Hybrid.configs_interned;
    Snapshot.counter_i ~labels ~help:"Full cache flushes"
      "mfsa_engine_cache_flushes_total" s.Hybrid.flushes;
    Snapshot.counter_i ~labels
      ~help:"Configurations individually evicted by the clock"
      "mfsa_engine_cache_evictions_total" s.Hybrid.evictions;
    Snapshot.gauge_i ~labels
      ~help:"Current adaptive cache capacity in rows"
      "mfsa_engine_cache_capacity" s.Hybrid.capacity;
    Snapshot.counter_i ~labels
      ~help:"Adaptive capacity doublings under churn"
      "mfsa_engine_cache_grows_total" s.Hybrid.grows;
    Snapshot.counter_i ~labels
      ~help:"Demotions to a plain iMFAnt scan (planner escape hatch)"
      "mfsa_engine_demotions_total" s.Hybrid.demotions;
    Snapshot.gauge_i ~labels ~help:"Approximate cache footprint"
      "mfsa_engine_cache_bytes" s.Hybrid.cache_bytes;
    Snapshot.gauge_i ~labels
      ~help:"Byte-equivalence classes indexing the transition tables"
      "mfsa_engine_class_count" (Hybrid.n_classes c);
    Snapshot.counter_i ~labels
      ~help:"Input bytes skipped by the literal prefilter"
      "mfsa_engine_prefilter_skipped_bytes_total" s.Hybrid.skipped_bytes;
  ]

(* Metric reproducibility (Engine_sig contract): the counters AND
   the cache state they describe go back to the freshly-compiled
   state — cache dropped, capacity back to base, demotion lifted —
   so reset + run replays the cold-cache metric trajectory. *)
let reset_stats c =
  Hybrid.promote c;
  Hybrid.flush c;
  Hybrid.reset_stats c

(* The measurement-window reset: counters to zero, cache (and
   capacity, and demotion state) left warm. *)
let reset_counters c = Hybrid.reset_stats c

type session = Hybrid.session

let session = Hybrid.session

let feed = Hybrid.feed

let finish = Hybrid.finish

let reset = Hybrid.reset

let position = Hybrid.position
