(* The write path: a live ruleset of the auto engine, updated one rule
   at a time while it keeps matching. Each cycle adds a held-out rule,
   probes, scans, removes the rule, probes and scans again. Every
   verdict is checked against per-rule imfant references: matching is
   per rule, so the expected digest of a generation is the base
   ruleset's plus that of the rule currently added. *)

open Mfsa_engine
module Live = Mfsa_live.Live

let kib = 1024

type cfg = {
  held : int;  (** Rules held out of the initial load, added and removed in turn. *)
  probe : int;  (** Bytes of the input that gives the first verdict after an update. *)
  scan : int;  (** Bytes of each scan. *)
  pool : int;  (** Distinct probe and scan inputs. *)
  min_updates : int;
  seconds : float;
}

let cycles (ctx : Work.ctx) r cfg ~(ds : Mfsa_datasets.Datasets.t) =
  let rules = ds.rules in
  let n = Array.length rules in
  let n_base = n - cfg.held in
  let base = Array.sub rules 0 n_base in
  let held = Array.sub rules n_base cfg.held in
  (* Inputs are drawn from the whole ruleset, so the held-out rules match too. *)
  let gen i size =
    Mfsa_datasets.Stream_gen.generate ~seed:((ctx.seed * 7919) + i) ~payload:ds.payload ~size rules
  in
  let probes = Array.init cfg.pool (fun i -> gen i cfg.probe) in
  let scans = Array.init cfg.pool (fun i -> gen (cfg.pool + i) cfg.scan) in
  let digest engine ~first input =
    List.fold_left
      (fun s (e : Engine_sig.match_event) -> Work.add s (first + e.fsa) e.end_pos)
      Work.empty (Engine_sig.run engine input)
  in
  let base_engine = Work.compile "imfant" (Work.mfsa base) in
  let held_engines = Array.map (fun p -> Work.compile "imfant" (Work.mfsa [| p |])) held in
  let reference input =
    (digest base_engine ~first:0 input, Array.mapi (fun h e -> digest e ~first:(n_base + h) input) held_engines)
  in
  let probe_refs = Array.map reference probes and scan_refs = Array.map reference scans in
  let expected (b, hs) = function
    | None -> b
    | Some h -> { Work.count = b.Work.count + hs.(h).Work.count; sum = b.sum + hs.(h).sum }
  in
  (* Live rule ids of the base are its catalogue indices; an added rule
     gets a fresh id, mapped back to its held-out index. *)
  let verdict what events ~added refs =
    let got =
      List.fold_left
        (fun s (e : Live.match_event) ->
          let rule = match added with Some (id, h) when e.rule = id -> n_base + h | _ -> e.rule in
          Work.add s rule e.end_pos)
        Work.empty events
    in
    Work.check r what (got = expected refs (Option.map snd added))
  in
  let setups = ref [] in
  let load () =
    let dt, lv =
      Measure.time (fun () ->
          Trace.span "setup" (fun () ->
              match Live.of_rules ~engine:"auto" base with
              | Ok lv ->
                  verdict "first probe" (Live.run lv probes.(0)) ~added:None probe_refs.(0);
                  lv
              | Error e -> failwith (Mfsa_core.Pipeline.error_to_string e)))
    in
    setups := dt :: !setups;
    lv
  in
  let lv = load () in
  let order = Mfsa_util.Prng.create ctx.seed in
  let updates = ref [] and scans_timed = ref [] and compactions = ref [] in
  (* A window is one round over the input pool; it starts with one
     more set-up, which spreads the set-up samples over the run. *)
  let k = ref 0 in
  let window () = !k / cfg.pool in
  let update what f ~added =
    let input = !k mod cfg.pool in
    let t0 = Measure.now () in
    let v = Trace.span what f in
    let t1 = Measure.now () in
    let events = Trace.span "live.first_run" (fun () -> Live.run lv probes.(input)) in
    updates := (window (), Measure.now () -. t0) :: !updates;
    verdict (what ^ " probe") events ~added:(added v) probe_refs.(input);
    (v, t1 -. t0)
  in
  let scan ~added =
    let input = !k mod cfg.pool in
    let dt, events = Measure.time (fun () -> Trace.span "live.scan" (fun () -> Live.run lv scans.(input))) in
    scans_timed := (window (), (cfg.scan, dt)) :: !scans_timed;
    verdict "scan" events ~added scan_refs.(input)
  in
  let t_start = Measure.now () in
  while 2 * !k < cfg.min_updates || Measure.now () -. t_start < cfg.seconds do
    if !k > 0 && !k mod cfg.pool = 0 then ignore (load () : Live.t);
    let h = Mfsa_util.Prng.int order cfg.held in
    let id, _ =
      update "live.add"
        (fun () ->
          match Live.add_rule lv held.(h) with
          | Ok id -> id
          | Error e -> failwith (Mfsa_core.Pipeline.error_to_string e))
        ~added:(fun id -> Some (id, h))
    in
    scan ~added:(Some (id, h));
    let before = (Live.stats lv).compactions in
    let removed, dt = update "live.remove" (fun () -> Live.remove_rule lv id) ~added:(fun _ -> None) in
    Work.check r "remove" removed;
    if (Live.stats lv).compactions > before then compactions := dt :: !compactions;
    scan ~added:None;
    incr k
  done;
  Work.throughput r !scans_timed;
  Work.latency r !updates;
  Work.summary r "setup_s" "s" (Measure.summarize (Array.of_list !setups));
  if Trace.enabled () then begin
    let spans = Trace.spans () in
    let ms name = Array.map (( *. ) 1e3) (Trace.self_times spans name) in
    Work.summary r "live.add_ms_p50" "ms" (Measure.summarize (ms "live.add"));
    Work.summary r "live.remove_ms_p50" "ms" (Measure.summarize (ms "live.remove"));
    Work.summary r "live.first_run_ms_p50" "ms" (Measure.summarize (ms "live.first_run"));
    Work.p99 r "live.first_run_ms_p99" "ms" (ms "live.first_run");
    Work.value r "live.compactions" "count" (float_of_int (List.length !compactions));
    Work.value r "live.compact_ms" "ms"
      (match !compactions with
      | [] -> 0.
      | l -> (Measure.summarize (Array.of_list (List.map (( *. ) 1e3) l))).median)
  end;
  let total refs = Array.fold_left (fun acc (b, _) -> acc + b.Work.count) 0 refs in
  (total probe_refs + total scan_refs, String.concat "" (Array.to_list scans))

let run (ctx : Work.ctx) r =
  let ds = Work.dataset "BRO" in
  let cfg =
    if ctx.smoke then { held = 10; probe = 4 * kib; scan = 8 * kib; pool = 4; min_updates = 20; seconds = 0. }
    else { held = 10; probe = 4 * kib; scan = 60 * kib; pool = 16; min_updates = 20; seconds = ctx.seconds }
  in
  let total, scans = cycles ctx r cfg ~ds in
  Work.pin ctx r "rule-churn" total;
  (ds, scans)

(* The live-update layer metrics of another workload's ruleset. *)
let probe (ctx : Work.ctx) r ~ds =
  let cfg =
    if ctx.smoke then { held = 4; probe = 256; scan = 512; pool = 2; min_updates = 4; seconds = 0. }
    else { held = 10; probe = kib; scan = 4 * kib; pool = 4; min_updates = 20; seconds = 0. }
  in
  ignore (cycles ctx r cfg ~ds : int * string)
