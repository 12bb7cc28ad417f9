module Builder = Mfsa_model.Builder
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Engine_sig = Mfsa_engine.Engine_sig
module Registry = Mfsa_engine.Registry
module Pipeline = Mfsa_core.Pipeline

let log_src = Logs.Src.create "mfsa.live" ~doc:"Live ruleset updates"

module Log = (val Logs.src_log log_src : Logs.LOG)

type match_event = { rule : int; end_pos : int }

type stats = {
  generation : int;
  live_rules : int;
  states : int;
  transitions : int;
  dead_transitions : int;
  compactions : int;
}

(* A compiled generation. [rule_of_fsa] maps the snapshot's merged-FSA
   identifiers back to stable rule ids; the engine is compiled lazily
   so a burst of updates pays for table construction once, at the
   first match after it. The engine is held packed
   (Engine_sig.t), so any registered engine works here without a
   Live edit. *)
type payload = {
  z : Mfsa.t;
  engine : Engine_sig.t Lazy.t;
  rule_of_fsa : int array;
}

type snapshot = { sgen : int; payload : payload option }

type t = {
  gc_threshold : float;
  engine_name : string;
  builder : Builder.t;
  slot_of : (int, int) Hashtbl.t;  (* stable rule id -> builder slot *)
  rule_of : (int, int) Hashtbl.t;  (* builder slot -> stable rule id *)
  patterns_tbl : (int, string) Hashtbl.t;
  mutable next_id : int;
  mutable gen : int;
  mutable compactions : int;
  mutable updates_ok : int;
  mutable updates_rejected : int;
  mutable snap : snapshot;
}

(* Rebuild the current snapshot from the builder. This is the atomic
   generation swap: [t.snap] flips from one immutable value to the
   next, so readers either see the old generation or the new one,
   never a mixture. *)
let refresh t =
  let payload =
    match Builder.freeze t.builder with
    | None -> None
    | Some (z, slot_of_id) ->
        Some
          {
            z;
            engine = lazy (Registry.compile_automaton_exn t.engine_name z);
            rule_of_fsa =
              Array.map (fun slot -> Hashtbl.find t.rule_of slot) slot_of_id;
          }
  in
  t.snap <- { sgen = t.gen; payload }

let create ?(gc_threshold = 0.25) ?(engine = "imfant") () =
  if gc_threshold < 0. || gc_threshold > 1. then
    invalid_arg "Live.create: gc_threshold must be within [0, 1]";
  if Option.is_none (Registry.find engine) then
    invalid_arg ("Live.create: " ^ Registry.unknown_message engine);
  {
    gc_threshold;
    engine_name = engine;
    builder = Builder.create ();
    slot_of = Hashtbl.create 64;
    rule_of = Hashtbl.create 64;
    patterns_tbl = Hashtbl.create 64;
    next_id = 0;
    gen = 0;
    compactions = 0;
    updates_ok = 0;
    updates_rejected = 0;
    snap = { sgen = 0; payload = None };
  }

let register t pattern slot =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.slot_of id slot;
  Hashtbl.replace t.rule_of slot id;
  Hashtbl.replace t.patterns_tbl id pattern;
  id

let of_rules ?gc_threshold ?engine patterns =
  let t = create ?gc_threshold ?engine () in
  match Pipeline.build_fsas patterns with
  | Error e -> Error e
  | Ok fsas ->
      Array.iteri
        (fun i a ->
          let slot = Builder.add t.builder a in
          ignore (register t patterns.(i) slot))
        fsas;
      t.updates_ok <- Array.length patterns;
      refresh t;
      Ok t

(* Unified-source construction. Rules route through [of_rules] (the
   builder wants the individual FSAs, which only the pipeline has);
   an automaton or artifact source is *adopted*: the builder
   reconstitutes around the merged automaton (slot j = merged FSA j,
   stable rule id j), and — for artifacts — the first generation's
   engine comes up eagerly from the persisted tables, no
   re-derivation. Updates after adoption refresh through the normal
   freeze-and-recompile path. *)
let of_source ?gc_threshold ?engine source =
  let module Source = Mfsa_engine.Source in
  match source with
  | Source.Rules patterns -> of_rules ?gc_threshold ?engine patterns
  | Source.Rules_file path ->
      of_rules ?gc_threshold ?engine (Source.read_rules_file path)
  | Source.Automata _ | Source.Artifact_file _ | Source.Artifact_bytes _ ->
      let adopt z eng =
        let t = create ?gc_threshold ?engine () in
        let b = Builder.of_mfsa z in
        let t = { t with builder = b } in
        Array.iteri (fun j p -> ignore (register t p j : int)) z.Mfsa.patterns;
        t.updates_ok <- z.Mfsa.n_fsas;
        t.snap <-
          {
            sgen = 0;
            payload =
              Some
                {
                  z;
                  engine = eng;
                  rule_of_fsa = Array.init z.Mfsa.n_fsas Fun.id;
                };
          };
        t
      in
      let one what = function
        | [ x ] -> x
        | l ->
            invalid_arg
              (Printf.sprintf
                 "Live.of_source: source yields %d %s; the live layer wants \
                  exactly one (merge with m=0)"
                 (List.length l) what)
      in
      (match Source.resolve source with
      | Source.Compiled_automata zs ->
          let z = one "automata" zs in
          let name = Option.value engine ~default:"imfant" in
          Ok (adopt z (lazy (Registry.compile_automaton_exn name z)))
      | Source.Compiled_tables tbs ->
          let tb = one "table bundles" tbs in
          let name = Option.value engine ~default:"imfant" in
          let eng = Registry.compile_tables_exn name tb in
          Ok (adopt tb.Mfsa_engine.Tables.z (Lazy.from_val eng)))

let add_rule t pattern =
  match Pipeline.build_fsa pattern with
  | Error e ->
      t.updates_rejected <- t.updates_rejected + 1;
      Error e
  | Ok a ->
      let slot = Builder.add t.builder a in
      let id = register t pattern slot in
      t.gen <- t.gen + 1;
      t.updates_ok <- t.updates_ok + 1;
      refresh t;
      Log.debug (fun m ->
          m "gen %d: added rule %d %S (slot %d)" t.gen id pattern slot);
      Ok id

let add_rule_exn t pattern =
  match add_rule t pattern with
  | Ok id -> id
  | Error e -> raise (Pipeline.Compile_error e)

(* Compaction renumbers builder slots; rethread the stable-id maps
   through the relocation map. *)
let compact_now t =
  let slot_map = Builder.compact t.builder in
  Hashtbl.reset t.rule_of;
  let moves =
    Hashtbl.fold (fun id slot acc -> (id, slot_map.(slot)) :: acc) t.slot_of []
  in
  List.iter
    (fun (id, slot') ->
      assert (slot' >= 0);
      Hashtbl.replace t.slot_of id slot';
      Hashtbl.replace t.rule_of slot' id)
    moves;
  t.compactions <- t.compactions + 1

let remove_rule t id =
  match Hashtbl.find_opt t.slot_of id with
  | None -> false
  | Some slot ->
      Builder.retire t.builder slot;
      Hashtbl.remove t.slot_of id;
      Hashtbl.remove t.rule_of slot;
      Hashtbl.remove t.patterns_tbl id;
      if Builder.garbage_ratio t.builder > t.gc_threshold then compact_now t;
      t.gen <- t.gen + 1;
      t.updates_ok <- t.updates_ok + 1;
      refresh t;
      Log.debug (fun m ->
          m "gen %d: removed rule %d (garbage %.2f)" t.gen id
            (Builder.garbage_ratio t.builder));
      true

let compact t =
  compact_now t;
  t.gen <- t.gen + 1;
  refresh t

let generation t = t.gen

let engine t = t.engine_name

let n_rules t = Hashtbl.length t.slot_of

let rules t =
  Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.patterns_tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pattern t id = Hashtbl.find_opt t.patterns_tbl id

let stats t =
  {
    generation = t.gen;
    live_rules = n_rules t;
    states = Builder.n_states t.builder;
    transitions = Builder.n_transitions t.builder;
    dead_transitions = Builder.dead_transitions t.builder;
    compactions = t.compactions;
  }

(* Every sample is tagged with the generation it describes, so a
   scraper watching a rolling deployment can line rule/state counts
   up with the update that produced them. Engine metrics appear only
   once the lazy engine of the current snapshot has actually been
   forced — metrics export must not be the thing that triggers table
   construction. *)
let metrics t =
  let module S = Mfsa_obs.Snapshot in
  let own =
    [
      S.gauge_i ~help:"Current ruleset generation" "mfsa_live_generation" t.gen;
      S.gauge_i ~help:"Live rules in the current generation"
        "mfsa_live_rules" (n_rules t);
      S.gauge_i ~help:"Builder states, including garbage" "mfsa_live_states"
        (Builder.n_states t.builder);
      S.gauge_i ~help:"Builder transitions, including dead ones"
        "mfsa_live_transitions"
        (Builder.n_transitions t.builder);
      S.gauge_i ~help:"Retired transitions awaiting compaction"
        "mfsa_live_dead_transitions"
        (Builder.dead_transitions t.builder);
      S.counter_i ~help:"Compaction passes run" "mfsa_live_compactions_total"
        t.compactions;
      S.counter_i ~help:"Ruleset updates by outcome"
        ~labels:[ ("result", "ok") ]
        "mfsa_live_updates_total" t.updates_ok;
      S.counter_i ~help:"Ruleset updates by outcome"
        ~labels:[ ("result", "rejected") ]
        "mfsa_live_updates_total" t.updates_rejected;
    ]
  in
  let engine =
    match t.snap.payload with
    | Some p when Lazy.is_val p.engine -> Engine_sig.stats (Lazy.force p.engine)
    | _ -> []
  in
  S.with_labels
    [ ("generation", string_of_int t.snap.sgen) ]
    (S.merge [ own; engine ])

(* ------------------------------------------------------- Matching *)

let sort_events =
  List.stable_sort (fun a b ->
      if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
      else Int.compare a.rule b.rule)

let remap payload events =
  List.map
    (fun { Engine_sig.fsa; end_pos } ->
      { rule = payload.rule_of_fsa.(fsa); end_pos })
    events
  |> sort_events

let snapshot t = t.snap

let snapshot_generation s = s.sgen

let snapshot_mfsa s = Option.map (fun p -> p.z) s.payload

let snapshot_rule_ids s =
  match s.payload with None -> [||] | Some p -> Array.copy p.rule_of_fsa

let snapshot_run s input =
  match s.payload with
  | None -> []
  | Some p -> remap p (Engine_sig.run (Lazy.force p.engine) input)

let run t input = snapshot_run t.snap input

let count t input = List.length (run t input)

(* ------------------------------------------------------ Streaming *)

type session = {
  owner : t;
  mutable snap : snapshot;
  mutable inner : Engine_sig.session option;
  mutable empty_pos : int;  (* stream position when the generation is empty *)
}

let make_inner snap =
  Option.map (fun p -> Engine_sig.session (Lazy.force p.engine)) snap.payload

let session (t : t) =
  let snap = t.snap in
  { owner = t; snap; inner = make_inner snap; empty_pos = 0 }

let session_generation s = s.snap.sgen

let position s =
  match s.inner with
  | Some i -> Engine_sig.position i
  | None -> s.empty_pos

let feed s chunk =
  match (s.inner, s.snap.payload) with
  | Some i, Some p -> remap p (Engine_sig.feed i chunk)
  | _ ->
      s.empty_pos <- s.empty_pos + String.length chunk;
      []

let finish s =
  match (s.inner, s.snap.payload) with
  | Some i, Some p -> remap p (Engine_sig.finish i)
  | _ -> []

let reset s =
  let snap = s.owner.snap in
  s.snap <- snap;
  s.inner <- make_inner snap;
  s.empty_pos <- 0
