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
(* auto — the planner meta-engine                                      *)
(* ------------------------------------------------------------------ *)

(* [auto] plans a concrete engine per ruleset from the static features
   {!Planner} computes at compile time, then delegates everything to
   the planned engine's adapter. When the plan is [hybrid] it keeps a
   typed handle on the engine and watches the windowed cache hit rate
   after every chunk and batch call, and between the window-sized
   slices of a long batch call: sustained churn demotes the
   hybrid ({!Hybrid.demote}), and the demoted hybrid is an iMFAnt
   scan whose sessions keep their state. Stats are the inner engine's
   series relabelled [engine="auto"], plus the planner's own series
   (what was planned, what is active, and the features that decided). *)
module Auto_engine : Engine_sig.S = struct
  let name = "auto"

  let doc =
    "planner meta-engine: picks imfant/hybrid per ruleset from static \
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
    | _ ->
        wrap feats "imfant"
          (Engine_sig.pack (module Imfant_engine) (Imfant_engine.compile z))
          None

  let of_tables =
    Some
      (fun tb ->
        let feats = Planner.features_of_tables tb in
        match Planner.choose feats with
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

  (* A batch call longer than the monitor window on a live hybrid runs
     as one hybrid session, fed in window-sized slices with the
     monitor judging between them, so a churning cache demotes inside
     the call: [Hybrid.feed] crosses the demotion without losing
     position or pending matches. [on_events] sees each slice's
     events; returns [finish]'s, or [None], having run nothing, when
     the call is short or the hybrid is already demoted. *)
  let sliced c input ~on_events =
    let w = Planner.demote_window and n = String.length input in
    match c.hy with
    | Some h when n > w && not (Hybrid.demoted h) ->
        let s = Hybrid.session h in
        for i = 0 to (n - 1) / w do
          let pos = i * w in
          on_events (Hybrid.feed s (String.sub input pos (min w (n - pos))));
          monitor c
        done;
        Some (Hybrid.finish s)
    | _ -> None

  let run c input =
    let rev = ref [] in
    let on_events evs = rev := List.rev_append evs !rev in
    match sliced c input ~on_events with
    | Some fin ->
        (* [finish]'s matches end where the last slice's last ones do:
           only that end position needs re-sorting by FSA. *)
        let n = String.length input in
        let rec split last = function
          | e :: rest when e.end_pos = n -> split (e :: last) rest
          | rest -> List.rev_append rest (sort_events (last @ fin))
        in
        split [] !rev
    | None ->
        let evs = Engine_sig.run c.packed input in
        monitor c;
        evs

  let count c input =
    let n = ref 0 in
    let on_events evs = n := !n + List.length evs in
    match sliced c input ~on_events with
    | Some fin -> !n + List.length fin
    | None ->
        let n = Engine_sig.count c.packed input in
        monitor c;
        n

  let count_per_fsa c input =
    let a = Array.make (mfsa c).Mfsa.n_fsas 0 in
    let tally = List.iter (fun e -> a.(e.fsa) <- a.(e.fsa) + 1) in
    match sliced c input ~on_events:tally with
    | Some fin ->
        tally fin;
        a
    | None ->
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

let () =
  List.iter register
    [
      (module Imfant_engine);
      (module Hybrid_engine);
      (module Dfa_engine_engine);
      (module Auto_engine);
    ]

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort String.compare

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
