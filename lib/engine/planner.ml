module Mfsa = Mfsa_model.Mfsa
module Parser = Mfsa_frontend.Parser
module Ast = Mfsa_frontend.Ast

type features = {
  f_states : int;
  f_fsas : int;
  f_transitions : int;
  f_classes : int;
  f_density : float;
  f_literal_share : float;
  f_prefilter : bool;
}

(* Thresholds (fitted against BENCH_planner.json's features and
   per-engine steady-state throughputs on the six bundled datasets —
   see the planner row of DESIGN.md):

   - The hybrid wins whenever every unanchored rule is literal-covered
     (the condition under which iMFAnt's prefilter engages). The
     hybrid runs no prefilter of its own, and its resident
     configurations are the same with or without one; coverage stays
     only as a predictor of a cacheable working set, where
     configurations repeat heavily and the adaptive capacity absorbs
     them. Cold at scale 1.0, on the live-state kernel, its 2 KiB-feed
     sessions run 1.2–2.7x over iMFAnt's on BRO/PEN/RG1 but 0.74x on
     DS9; TCP's working set churns and holds it to 0.19x
     (EXPERIMENTS.md, "Live-state kernel"), the case [demote] is for.
     Static automaton size does {e not} predict cacheability — PRO's
     86 merged states explode into a ~44k-configuration working set
     while TCP's 119 states stay under 24k and cache fully — so no
     state bound gates the choice; a ruleset whose configurations
     churn past even the grown cache is caught online by the
     [demote] escape hatch instead.
   - Otherwise the merged transition-centric engine is the safe
     choice: it is never pathological, and the demoted hybrid is an
     iMFAnt scan. The per-rule scanning DFAs are never planned: eager
     subset construction has no budget, so a one-rule ruleset such as
     [.*a.{20}] would blow it up, and where it was planned (small
     non-literal rulesets) the hybrid beat it anyway. An artifact
     plans from the same features, so a table bundle comes up as the
     engine its rules would. *)
let choose f = if f.f_prefilter then "hybrid" else "imfant"

(* Online escape hatch: a hybrid whose windowed hit rate stays below
   [demote_below_rate] over [demote_window] steps is churning faster
   than even the adaptively grown cache can absorb — demote it; the
   demoted hybrid is an iMFAnt scan, and sessions keep their state.
   Both constants are fitted to a cold hybrid's cumulative hit rate
   over its first 16 KiB (scale 1.0, 2 KiB feeds, stream seeds 1–10,
   EXPERIMENTS.md "Monitor window"): BRO 0.883–0.890, PEN
   0.791–0.798 and RG1 0.545–0.604 keep their hybrid, while TCP
   0.277–0.315 and DS9 0.094–0.123 demote; 0.45 leaves at least 0.095
   of margin on each side. At 8 KiB RG1 straddles 0.5, too close to
   call, and every extra step of the window is a cold, churning step
   on TCP. *)
let demote_window = 1 lsl 14

let demote_below_rate = 0.45

let literal_features (z : Mfsa.t) =
  let n = z.Mfsa.n_fsas in
  let covered = ref 0 in
  let unanchored_uncovered = ref 0 in
  for j = 0 to n - 1 do
    let has_prefix =
      match Parser.parse z.Mfsa.patterns.(j) with
      | Error _ -> false
      | Ok rule -> Prefilter.prefix_set rule.Ast.ast <> None
    in
    if has_prefix then incr covered
    else if not z.Mfsa.anchored_start.(j) then incr unanchored_uncovered
  done;
  let share = if n = 0 then 0. else float_of_int !covered /. float_of_int n in
  (* The prefilter engages iff every unanchored rule has a usable
     prefix (anchored-start rules can only match at position 0 and do
     not gate it) — the same condition {!Prefilter.analyze} checks,
     without building the scanner. *)
  (share, !unanchored_uncovered = 0)

let density (z : Mfsa.t) =
  let nt = Mfsa.n_transitions z in
  if nt = 0 || z.Mfsa.n_fsas = 0 then 0.
  else begin
    let total = ref 0 in
    Array.iter
      (fun b -> total := !total + Mfsa_util.Bitset.cardinal b)
      z.Mfsa.bel;
    float_of_int !total /. float_of_int (nt * z.Mfsa.n_fsas)
  end

let features_of_mfsa (z : Mfsa.t) =
  let share, pf = literal_features z in
  {
    f_states = z.Mfsa.n_states;
    f_fsas = z.Mfsa.n_fsas;
    f_transitions = Mfsa.n_transitions z;
    f_classes = (Mfsa.classes z).Mfsa.n_classes;
    f_density = density z;
    f_literal_share = share;
    f_prefilter = pf;
  }

(* The same features as compiling the bundle's rules, so an artifact
   plans the same engine; only the class count is the bundle's own. *)
let features_of_tables (tb : Tables.t) =
  { (features_of_mfsa tb.Tables.z) with f_classes = tb.Tables.n_classes }
