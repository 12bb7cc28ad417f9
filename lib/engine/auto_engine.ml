module Mfsa = Mfsa_model.Mfsa
module Snapshot = Mfsa_obs.Snapshot
open Engine_sig

(* Events in the {!Engine_sig} order: end position, then FSA id. *)
let sort_events =
  List.stable_sort (fun a b ->
      if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
      else Int.compare a.fsa b.fsa)

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

let of_tables tb =
  let feats = Planner.features_of_tables tb in
  match Planner.choose feats with
  | "hybrid" ->
      let h = Hybrid_engine.of_tables tb in
      wrap feats "hybrid" (Engine_sig.pack (module Hybrid_engine) h) (Some h)
  | _ ->
      wrap feats "imfant"
        (Engine_sig.pack (module Imfant_engine) (Imfant_engine.of_tables tb))
        None

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
