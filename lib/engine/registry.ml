module Mfsa = Mfsa_model.Mfsa
module Snapshot = Mfsa_obs.Snapshot
open Engine_sig

(* ------------------------------------------------------------------ *)
(* Adapter plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let sort_events =
  List.stable_sort (fun a b ->
      if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
      else Int.compare a.fsa b.fsa)

(* The batch half of an engine, without streaming. *)
module type Base = sig
  val name : string
  val doc : string

  type compiled

  val compile : Mfsa.t -> compiled
  val of_tables : (Tables.t -> compiled) option
  val to_tables : compiled -> Tables.t option
  val mfsa : compiled -> Mfsa.t
  val run : compiled -> string -> match_event list
  val count : compiled -> string -> int
  val count_per_fsa : compiled -> string -> int array
  val stats : compiled -> Mfsa_obs.Snapshot.t
  val reset_stats : compiled -> unit
  val reset_counters : compiled -> unit
end

(* Streaming for engines without native cross-chunk state: keep the
   whole stream in a buffer and re-run it on every chunk, reporting
   only the events that end inside the new chunk. Correct by prefix
   determinism — a match ending at position p depends only on the
   stream's first p bytes — but quadratic in stream length; the
   native-session engines are the ones to use for streaming
   workloads. End-anchored FSAs are withheld until [finish], when the
   buffer end really is the stream end. *)
module Buffered_session (E : Base) :
  Engine_sig.S with type compiled = E.compiled = struct
  include E

  type session = { c : E.compiled; buf : Buffer.t; mutable pos : int }

  let session c = { c; buf = Buffer.create 256; pos = 0 }

  let feed s chunk =
    Buffer.add_string s.buf chunk;
    let old = s.pos in
    s.pos <- Buffer.length s.buf;
    if s.pos = old then []
    else
      let anchored_end = (E.mfsa s.c).Mfsa.anchored_end in
      List.filter
        (fun e -> e.end_pos > old && not anchored_end.(e.fsa))
        (E.run s.c (Buffer.contents s.buf))

  let finish s =
    let anchored_end = (E.mfsa s.c).Mfsa.anchored_end in
    List.filter
      (fun e -> anchored_end.(e.fsa))
      (E.run s.c (Buffer.contents s.buf))

  let reset s =
    Buffer.clear s.buf;
    s.pos <- 0

  let position s = s.pos
end

(* ------------------------------------------------------------------ *)
(* imfant                                                              *)
(* ------------------------------------------------------------------ *)

module Imfant_engine : Engine_sig.S = struct
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

  let of_imfant im = { im; bytes = 0; runs = 0 }

  let compile z = of_imfant (Imfant.compile z)

  let of_tables = Some (fun tb -> of_imfant (Imfant.of_tables tb))

  let to_tables c = Some (Imfant.export_tables c.im)

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
end

(* ------------------------------------------------------------------ *)
(* hybrid                                                              *)
(* ------------------------------------------------------------------ *)

(* The compiled type stays transparent: the [auto] planner below
   reuses this adapter's compile/stats/session plumbing while keeping
   a typed handle on the engine for its demotion monitor. *)
module Hybrid_engine : Engine_sig.S with type compiled = Hybrid.t = struct
  let name = "hybrid"

  let doc = "lazy-DFA configuration cache over iMFAnt (RE2-style)"

  type compiled = Hybrid.t

  let compile z = Hybrid.compile z

  let of_tables = Some (fun tb -> Hybrid.of_tables tb)

  let to_tables c = Some (Imfant.export_tables (Hybrid.imfant c))

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
end

(* ------------------------------------------------------------------ *)
(* infant — the per-rule baseline on the projected FSAs                *)
(* ------------------------------------------------------------------ *)

module Infant_base = struct
  let name = "infant"

  let doc = "per-rule iNFAnt baseline on the FSAs projected out of the MFSA"

  type compiled = { z : Mfsa.t; engines : Infant.t array }

  let compile z =
    { z; engines = Array.init z.Mfsa.n_fsas (fun j -> Infant.compile (Mfsa.project z j)) }

  (* The per-rule baselines derive per-projection tables an artifact
     does not carry — no table loader. *)
  let of_tables = None

  let to_tables _ = None

  let mfsa c = c.z

  let run c input =
    let acc = ref [] in
    Array.iteri
      (fun j eng ->
        List.iter
          (fun end_pos -> acc := { fsa = j; end_pos } :: !acc)
          (Infant.run eng input))
      c.engines;
    sort_events !acc

  let count c input =
    Array.fold_left (fun acc eng -> acc + Infant.count eng input) 0 c.engines

  let count_per_fsa c input = Array.map (fun eng -> Infant.count eng input) c.engines

  let stats c =
    let states =
      Array.fold_left (fun acc eng -> acc + Infant.n_states eng) 0 c.engines
    in
    let labels = [ ("engine", name) ] in
    [
      Snapshot.gauge_i ~labels ~help:"Projected per-rule automata"
        "mfsa_engine_rules" (Array.length c.engines);
      Snapshot.gauge_i ~labels ~help:"States across the projected automata"
        "mfsa_engine_states" states;
      Snapshot.gauge_i ~labels
        ~help:"Byte-equivalence classes indexing the transition tables"
        "mfsa_engine_class_count"
        (Array.fold_left (fun acc eng -> max acc (Infant.n_classes eng)) 0
           c.engines);
    ]

  let reset_stats _ = ()

  let reset_counters = reset_stats
end

module Infant_engine = Buffered_session (Infant_base)

(* ------------------------------------------------------------------ *)
(* dfa — per-rule scanning DFAs                                        *)
(* ------------------------------------------------------------------ *)

module Dfa_base = struct
  let name = "dfa"

  let doc = "per-rule scanning DFAs (subset construction + Hopcroft)"

  type compiled = { z : Mfsa.t; engines : Dfa_engine.t array }

  let compile z =
    { z; engines = Array.init z.Mfsa.n_fsas (fun j -> Dfa_engine.compile (Mfsa.project z j)) }

  let of_tables = None

  let to_tables _ = None

  let mfsa c = c.z

  let run c input =
    let acc = ref [] in
    Array.iteri
      (fun j eng ->
        List.iter
          (fun end_pos -> acc := { fsa = j; end_pos } :: !acc)
          (Dfa_engine.run eng input))
      c.engines;
    sort_events !acc

  let count c input =
    Array.fold_left (fun acc eng -> acc + Dfa_engine.count eng input) 0 c.engines

  let count_per_fsa c input =
    Array.map (fun eng -> Dfa_engine.count eng input) c.engines

  let stats c =
    let states =
      Array.fold_left (fun acc eng -> acc + Dfa_engine.n_states eng) 0 c.engines
    in
    let labels = [ ("engine", name) ] in
    [
      Snapshot.gauge_i ~labels ~help:"Projected per-rule automata"
        "mfsa_engine_rules" (Array.length c.engines);
      Snapshot.gauge_i ~labels ~help:"DFA states across the projected rules"
        "mfsa_engine_states" states;
      Snapshot.gauge_i ~labels
        ~help:"Class-indexed transition table cells resident"
        "mfsa_engine_table_cells"
        (Array.fold_left (fun acc eng -> acc + Dfa_engine.table_cells eng) 0
           c.engines);
      Snapshot.gauge_i ~labels
        ~help:"Byte-equivalence classes indexing the transition tables"
        "mfsa_engine_class_count"
        (Array.fold_left (fun acc eng -> max acc (Dfa_engine.n_classes eng)) 0
           c.engines);
    ]

  let reset_stats _ = ()

  let reset_counters = reset_stats
end

module Dfa_engine_engine = Buffered_session (Dfa_base)

(* ------------------------------------------------------------------ *)
(* decomposed — literal pre-filter + confirmation                      *)
(* ------------------------------------------------------------------ *)

module Decomposed_base = struct
  let name = "decomposed"

  let doc = "literal pre-filter + FSA confirmation (Hyperscan-style)"

  type compiled = { z : Mfsa.t; d : Decomposed.t }

  let compile z =
    { z; d = Decomposed.compile (Array.init z.Mfsa.n_fsas (Mfsa.project z)) }

  let of_tables = None

  let to_tables _ = None

  let mfsa c = c.z

  let run c input =
    List.map
      (fun e -> { fsa = e.Decomposed.rule; end_pos = e.Decomposed.end_pos })
      (Decomposed.run c.d input)

  let count c input = Decomposed.count c.d input

  let count_per_fsa c input =
    let counts = Array.make c.z.Mfsa.n_fsas 0 in
    List.iter
      (fun e -> counts.(e.Decomposed.rule) <- counts.(e.Decomposed.rule) + 1)
      (Decomposed.run c.d input);
    counts

  let stats c =
    let labels = [ ("engine", name) ] in
    [
      Snapshot.gauge_i ~labels
        ~help:"Rules handled through the literal pre-filter"
        "mfsa_engine_rules_prefiltered" (Decomposed.n_prefiltered c.d);
      Snapshot.gauge_i ~labels ~help:"Rules scanned conventionally"
        "mfsa_engine_rules_fallback" (Decomposed.n_fallback c.d);
    ]

  let reset_stats _ = ()

  let reset_counters = reset_stats
end

module Decomposed_engine = Buffered_session (Decomposed_base)

(* ------------------------------------------------------------------ *)
(* ac — pure Aho–Corasick on literal-only rulesets                     *)
(* ------------------------------------------------------------------ *)

(* A restricted engine: it compiles only rulesets in which every
   rule's language is a finite set of literals ({!Prefilter.exact_strings}),
   and rejects anything else at compile time. On those rulesets it is
   the paper's string-matching special case made concrete — one
   goto/fail automaton, one table lookup per byte — and serves as the
   speed-of-light baseline the merged-automaton engines are measured
   against. Being restricted, it is resolvable and registerable like
   any engine but excluded from {!general_names}, which is what the
   cross-engine experiments iterate. *)
module Ac_engine : Engine_sig.S = struct
  module Parser = Mfsa_frontend.Parser
  module Ast = Mfsa_frontend.Ast

  let name = "ac"

  let doc =
    "Aho\xe2\x80\x93Corasick on literal-only rulesets (restricted: every rule \
     must denote a finite literal set)"

  type compiled = {
    z : Mfsa.t;
    ac : Aho_corasick.t option;  (* None when no rule has a literal *)
    owner : int array;  (* literal id -> FSA *)
    lens : int array;  (* literal id -> byte length *)
  }

  let compile z =
    let lits = ref [] in
    let n = z.Mfsa.n_fsas in
    for j = n - 1 downto 0 do
      match Parser.parse z.Mfsa.patterns.(j) with
      | Error _ ->
          invalid_arg
            (Printf.sprintf "ac: rule %d does not re-parse: %S" j
               z.Mfsa.patterns.(j))
      | Ok rule -> (
          match Prefilter.exact_strings rule.Ast.ast with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "ac: rule %d (%S) is not a finite literal set — use a \
                    general engine"
                   j z.Mfsa.patterns.(j))
          | Some l ->
              (* Engines report non-empty matches only: the empty
                 literal can never produce one. *)
              List.iter
                (fun s -> if String.length s > 0 then lits := (s, j) :: !lits)
                l)
    done;
    let lits = Array.of_list !lits in
    {
      z;
      ac =
        (if Array.length lits = 0 then None
         else Some (Aho_corasick.build (Array.map fst lits)));
      owner = Array.map snd lits;
      lens = Array.map (fun (s, _) -> String.length s) lits;
    }

  (* The stored table bundle has no per-rule literal ownership and the
     rules may not be literal sets anyway. *)
  let of_tables = None

  let to_tables _ = None

  let mfsa c = c.z

  (* Occurrence -> match event, applying the per-FSA anchors and the
     one-report-per-(FSA, end) convention shared by every engine. *)
  let scan c input ~on_match =
    match c.ac with
    | None -> ()
    | Some ac ->
        let z = c.z in
        let len = String.length input in
        let last = Array.make z.Mfsa.n_fsas (-1) in
        ignore
          (Aho_corasick.scan_from ac ~state:Aho_corasick.start_state input
             ~on_match:(fun id e ->
               let j = c.owner.(id) in
               if
                 last.(j) <> e
                 && ((not z.Mfsa.anchored_start.(j)) || e = c.lens.(id))
                 && ((not z.Mfsa.anchored_end.(j)) || e = len)
               then begin
                 last.(j) <- e;
                 on_match j e
               end))

  let run c input =
    let acc = ref [] in
    scan c input ~on_match:(fun fsa e -> acc := { fsa; end_pos = e } :: !acc);
    sort_events !acc

  let count c input =
    let n = ref 0 in
    scan c input ~on_match:(fun _ _ -> incr n);
    !n

  let count_per_fsa c input =
    let counts = Array.make c.z.Mfsa.n_fsas 0 in
    scan c input ~on_match:(fun j _ -> counts.(j) <- counts.(j) + 1);
    counts

  let stats c =
    let labels = [ ("engine", name) ] in
    [
      Snapshot.gauge_i ~labels ~help:"Rules compiled to literal sets"
        "mfsa_engine_rules" c.z.Mfsa.n_fsas;
      Snapshot.gauge_i ~labels ~help:"Literals in the Aho\xe2\x80\x93Corasick automaton"
        "mfsa_engine_literals" (Array.length c.owner);
      Snapshot.gauge_i ~labels ~help:"Aho\xe2\x80\x93Corasick trie states"
        "mfsa_engine_states"
        (match c.ac with None -> 1 | Some ac -> Aho_corasick.n_states ac);
    ]

  let reset_stats _ = ()

  let reset_counters = reset_stats

  (* Streaming is native: the scanner state carries across chunks, so
     literals straddling chunk boundaries are found without buffering
     the stream. *)
  type session = {
    c : compiled;
    mutable state : int;
    mutable pos : int;  (* stream offset of the next byte *)
    mutable last : int array;  (* per-FSA last reported global end *)
    mutable pending_end : int list;
        (* end-anchored FSAs matched exactly at [pos] *)
  }

  let session c =
    {
      c;
      state = Aho_corasick.start_state;
      pos = 0;
      last = Array.make c.z.Mfsa.n_fsas (-1);
      pending_end = [];
    }

  let feed s chunk =
    let c = s.c in
    let z = c.z in
    let len = String.length chunk in
    if len > 0 then s.pending_end <- [];
    let acc = ref [] in
    (match c.ac with
    | None -> ()
    | Some ac ->
        s.state <-
          Aho_corasick.scan_from ac ~state:s.state chunk ~on_match:(fun id e ->
              let j = c.owner.(id) in
              let ge = s.pos + e in
              if
                s.last.(j) <> ge
                && ((not z.Mfsa.anchored_start.(j)) || ge = c.lens.(id))
              then
                if z.Mfsa.anchored_end.(j) then begin
                  (* Valid only if the stream ends exactly here — keep
                     it pending while this chunk's remainder can still
                     invalidate it. *)
                  if e = len then begin
                    s.last.(j) <- ge;
                    s.pending_end <- j :: s.pending_end
                  end
                end
                else begin
                  s.last.(j) <- ge;
                  acc := { fsa = j; end_pos = ge } :: !acc
                end));
    s.pos <- s.pos + len;
    sort_events !acc

  let finish s =
    List.sort_uniq Int.compare s.pending_end
    |> List.map (fun j -> { fsa = j; end_pos = s.pos })

  let reset s =
    s.state <- Aho_corasick.start_state;
    s.pos <- 0;
    Array.fill s.last 0 (Array.length s.last) (-1);
    s.pending_end <- []

  let position s = s.pos
end

(* ------------------------------------------------------------------ *)
(* auto — the planner meta-engine                                      *)
(* ------------------------------------------------------------------ *)

(* [auto] plans a concrete engine per ruleset from the static features
   {!Planner} computes at compile time, then delegates everything to
   the planned engine's adapter. When the plan is [hybrid] it keeps a
   typed handle on the engine and watches the windowed cache hit rate
   after every batch call and chunk: sustained churn demotes the
   hybrid ({!Hybrid.demote}), and the demoted hybrid is an iMFAnt
   scan whose sessions keep their state. Stats are the inner engine's
   series relabelled [engine="auto"], plus the planner's own series
   (what was planned, what is active, and the features that decided). *)
module Auto_engine : Engine_sig.S = struct
  let name = "auto"

  let doc =
    "planner meta-engine: picks imfant/hybrid/dfa per ruleset from static \
     features; a churning hybrid demotes to iMFAnt mid-stream"

  type compiled = {
    packed : Engine_sig.t;
    choice : string;  (* the planned engine's registry name *)
    feats : Planner.features;
    hy : Hybrid.t option;  (* the typed handle when the plan was hybrid *)
    mutable mark_steps : int;  (* monitor-window marks *)
    mutable mark_hits : int;
  }

  let wrap feats choice packed hy =
    { packed; choice; feats; hy; mark_steps = 0; mark_hits = 0 }

  let compile z =
    let feats = Planner.features_of_mfsa z in
    match Planner.choose feats with
    | "hybrid" ->
        let h = Hybrid_engine.compile z in
        wrap feats "hybrid" (Engine_sig.pack (module Hybrid_engine) h) (Some h)
    | "dfa" ->
        wrap feats "dfa"
          (Engine_sig.pack
             (module Dfa_engine_engine)
             (Dfa_engine_engine.compile z))
          None
    | _ ->
        wrap feats "imfant"
          (Engine_sig.pack (module Imfant_engine) (Imfant_engine.compile z))
          None

  let of_tables =
    Some
      (fun tb ->
        let feats = Planner.features_of_tables tb in
        match Planner.choose_tables feats with
        | "hybrid" ->
            let h = Hybrid.of_tables tb in
            wrap feats "hybrid"
              (Engine_sig.pack (module Hybrid_engine) h)
              (Some h)
        | _ ->
            let load =
              match Imfant_engine.of_tables with
              | Some load -> load
              | None -> assert false
            in
            wrap feats "imfant"
              (Engine_sig.pack (module Imfant_engine) (load tb))
              None)

  let to_tables c = Engine_sig.to_tables c.packed

  let mfsa c = Engine_sig.mfsa c.packed

  (* The online escape hatch: close any elapsed monitoring window and
     demote on sustained churn. O(1) per call — two counter reads. *)
  let monitor c =
    match c.hy with
    | None -> ()
    | Some h ->
        if not (Hybrid.demoted h) then begin
          let steps = Hybrid.steps_total h in
          let w = steps - c.mark_steps in
          if w >= Planner.demote_window then begin
            let hits = Hybrid.hits_total h in
            let rate = float_of_int (hits - c.mark_hits) /. float_of_int w in
            if rate < Planner.demote_below_rate then Hybrid.demote h;
            c.mark_steps <- steps;
            c.mark_hits <- hits
          end
        end

  let run c input =
    let evs = Engine_sig.run c.packed input in
    monitor c;
    evs

  let count c input =
    let n = Engine_sig.count c.packed input in
    monitor c;
    n

  let count_per_fsa c input =
    let a = Engine_sig.count_per_fsa c.packed input in
    monitor c;
    a

  let active c =
    match c.hy with
    | Some h when Hybrid.demoted h -> "imfant"
    | _ -> c.choice

  let stats c =
    let inner =
      Snapshot.with_labels
        [ ("engine", name) ]
        (Snapshot.without_label "engine" (Engine_sig.stats c.packed))
    in
    let labels = [ ("engine", name) ] in
    Snapshot.merge
      [
        inner;
        [
          Snapshot.gauge_i
            ~labels:(labels @ [ ("planned", c.choice); ("active", active c) ])
            ~help:
              "Always 1; the labels carry the planner's static choice and \
               the engine actually running (they differ after a demotion)"
            "mfsa_engine_planner_choice" 1;
          Snapshot.gauge ~labels
            ~help:"Fraction of rules with a usable required literal prefix"
            "mfsa_engine_planner_literal_share"
            c.feats.Planner.f_literal_share;
          Snapshot.gauge ~labels
            ~help:"Mean |bel(t)| / n_fsas over the merged transitions"
            "mfsa_engine_planner_activation_density" c.feats.Planner.f_density;
          Snapshot.gauge_i ~labels
            ~help:"1 when the Aho\xe2\x80\x93Corasick literal prefilter engages"
            "mfsa_engine_planner_prefilter"
            (if c.feats.Planner.f_prefilter then 1 else 0);
        ];
      ]

  let reset_stats c =
    (* The inner reset lifts any demotion (the hybrid adapter
       promotes), so the fresh-compile trajectory — including the
       planner series — replays exactly. *)
    Engine_sig.reset_stats c.packed;
    c.mark_steps <- 0;
    c.mark_hits <- 0

  let reset_counters c =
    Engine_sig.reset_counters c.packed;
    c.mark_steps <- 0;
    c.mark_hits <- 0

  type session = { c : compiled; s : Engine_sig.session }

  let session c = { c; s = Engine_sig.session c.packed }

  let feed s chunk =
    let evs = Engine_sig.feed s.s chunk in
    monitor s.c;
    evs

  let finish s = Engine_sig.finish s.s

  let reset s = Engine_sig.reset s.s

  let position s = Engine_sig.position s.s
end

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let table : (string, (module Engine_sig.S)) Hashtbl.t = Hashtbl.create 8

let register (module E : Engine_sig.S) = Hashtbl.replace table E.name (module E : Engine_sig.S)

(* Restricted engines compile only a subset of rulesets (they raise
   on the rest), so the cross-engine experiments must not iterate
   them blindly; they stay resolvable and help-listed. *)
let restricted : (string, unit) Hashtbl.t = Hashtbl.create 2

let register_restricted (module E : Engine_sig.S) =
  register (module E);
  Hashtbl.replace restricted E.name ()

let () =
  List.iter register
    [
      (module Imfant_engine);
      (module Hybrid_engine);
      (module Infant_engine);
      (module Dfa_engine_engine);
      (module Decomposed_engine);
      (module Auto_engine);
    ];
  register_restricted (module Ac_engine)

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort String.compare

let general_names () =
  List.filter (fun n -> not (Hashtbl.mem restricted n)) (names ())

let unknown_message name =
  Printf.sprintf
    "unknown engine %S (registered: %s; any name can be wrapped as \
     faulty{seed=..,fail_every=..}:<engine> for fault injection, and \
     imfant/hybrid as sfa{domains=..,threshold=..}:<engine> for \
     intra-input parallelism)"
    name
    (String.concat ", " (names ()))

(* Name resolution: exact table entries win; otherwise the name is
   tried against the wrapper grammars — [faulty{...}:<inner>] recurses
   on the inner name so wrappers nest; [sfa{...}:<inner>] restricts
   its inner to the table-shaped engines its chunk primitives exist
   for. Each resolution of a wrapper spec builds a fresh first-class
   module closed over its config — stateless until compiled, so this
   is cheap. *)
let sfa_inners = [ "imfant"; "hybrid" ]

let rec resolve name =
  match Hashtbl.find_opt table name with
  | Some m -> Ok m
  | None -> (
      match Sfa.split_spec name with
      | Some (Error msg) -> Error (Printf.sprintf "bad sfa spec %S: %s" name msg)
      | Some (Ok (spec, inner)) ->
          if List.mem inner sfa_inners then Ok (Sfa.make ~name spec ~inner)
          else
            Error
              (Printf.sprintf
                 "bad sfa spec %S: inner engine must be one of %s, got %S"
                 name
                 (String.concat ", " sfa_inners)
                 inner)
      | None -> (
          match Faulty.split_spec name with
          | None -> Error (unknown_message name)
          | Some (Error msg) ->
              Error (Printf.sprintf "bad faulty spec %S: %s" name msg)
          | Some (Ok (cfg, inner)) ->
              Result.map (Faulty.make ~name cfg) (resolve inner)))

let find name = Result.to_option (resolve name)

let rec underlying name =
  match Sfa.split_spec name with
  | Some (Ok (_, inner)) -> underlying inner
  | _ -> (
      match Faulty.split_spec name with
      | Some (Ok (_, inner)) -> underlying inner
      | _ -> name)

(* The bare message, not a "Registry.find_exn:"-prefixed one: the
   CLIs print it verbatim after their own program name. *)
let find_exn name =
  match resolve name with Ok e -> e | Error msg -> invalid_arg msg

let doc name =
  Option.map (fun (module E : Engine_sig.S) -> E.doc) (find name)

let help () =
  (names ()
  |> List.map (fun name ->
         Printf.sprintf "%-12s %s\n" name
           (Option.value ~default:"" (doc name)))
  |> String.concat "")
  ^ "faulty{..}:<engine>  deterministic fault-injection wrapper \
     (seed=, fail_every=, poison_every=, delay_every=, delay_ms=, \
     fail=, poison=, delay=)\n"
  ^ "sfa{..}:<engine>     SFA intra-input parallel wrapper over imfant or \
     hybrid (domains=, threshold= split size in bytes)\n"

let compile_automaton name z =
  match resolve name with
  | Error msg -> Error msg
  | Ok (module E : Engine_sig.S) ->
      Ok (Engine_sig.pack (module E) (E.compile z))

let compile_automaton_exn name z =
  match compile_automaton name z with
  | Ok t -> t
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* The unified compile surface                                         *)
(* ------------------------------------------------------------------ *)

let can_load_tables name =
  match resolve name with
  | Error _ -> false
  | Ok (module E : Engine_sig.S) -> E.of_tables <> None

let table_capable_names () = List.filter can_load_tables (names ())

(* The capability error is a user error (they picked an engine and an
   artifact that don't go together), so it gets the same clean
   one-line treatment as an unknown engine name. *)
let no_table_loader name =
  Printf.sprintf
    "engine %S cannot load a compiled artifact (engines with a table \
     loader: %s); recompile from rules instead"
    name
    (String.concat ", " (table_capable_names ()))

let compile_tables name tb =
  match resolve name with
  | Error msg -> Error msg
  | Ok (module E : Engine_sig.S) -> (
      match E.of_tables with
      | None -> Error (no_table_loader name)
      | Some load -> Ok (Engine_sig.pack (module E) (load tb)))

let compile_tables_exn name tb =
  match compile_tables name tb with
  | Ok t -> t
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)

let compile name source =
  match resolve name with
  | Error msg -> Error msg
  | Ok (module E : Engine_sig.S) -> (
      (* Check the artifact capability before paying for the load: a
         syntactically artifact-shaped source with an incapable engine
         is refused without touching the file. *)
      match source with
      | (Source.Artifact_file _ | Source.Artifact_bytes _)
        when E.of_tables = None ->
          Error (no_table_loader name)
      | _ -> (
          match Source.resolve source with
          | Source.Compiled_automata zs ->
              Ok (List.map (fun z -> Engine_sig.pack (module E) (E.compile z)) zs)
          | Source.Compiled_tables ts -> (
              match E.of_tables with
              | None -> Error (no_table_loader name)
              | Some load ->
                  Ok
                    (List.map
                       (fun tb -> Engine_sig.pack (module E) (load tb))
                       ts))))

let compile_exn name source =
  match compile name source with
  | Ok t -> t
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)
