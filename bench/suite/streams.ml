(* The three stream workloads: one ruleset, one generated stream, fed
   to sessions of the auto engine chunk by chunk, pass after pass.
   Every chunk's matches are checked against a whole-buffer imfant run
   of the same stream, computed before any timing. *)

open Mfsa_engine

let kib = 1024

type cfg = {
  abbr : string;
  size : int;  (** Stream bytes. *)
  chunk : int;  (** Bytes per [feed]. *)
  fresh : bool;  (** Compile a new engine for every pass. *)
}

(* lit: the prefilter and the hybrid cache do nearly all the work.
   nolit: no required literals, so auto plans imfant; the chunks are
   small so that a run holds the thousand samples a p99 needs.
   demote: auto plans hybrid, the cache churns and the planner demotes
   mid-stream; a fresh engine per pass makes every pass pay for the
   plan and the demotion. *)
let cfg (ctx : Work.ctx) = function
  | "lit-stream" ->
      { abbr = "BRO"; size = (if ctx.smoke then 256 * kib else 4 * kib * kib); chunk = 64 * kib; fresh = false }
  | "nolit-stream" ->
      { abbr = "PRO"; size = (if ctx.smoke then 2 * kib else 32 * kib); chunk = 256; fresh = false }
  | "demote-stream" ->
      { abbr = "TCP"; size = (if ctx.smoke then 8 * kib else 256 * kib); chunk = 2 * kib; fresh = true }
  | w -> invalid_arg ("not a stream workload: " ^ w)

let compile_auto rules =
  match Registry.compile_exn "auto" (Source.Rules rules) with [ e ] -> e | _ -> assert false

(* Times every feed; returns the reference match count. *)
let measure r ~rules ~stream ~chunk ~fresh ~seconds =
  let len = String.length stream in
  let z = Work.mfsa rules in
  let t_ref, reference = Measure.time (fun () -> Engine_sig.run (Work.compile "imfant" z) stream) in
  let expected = Work.chunk_sigs ~chunk ~len reference in
  let chunks = Work.split stream chunk in
  let last = Array.length chunks - 1 in
  let setups = ref [] in
  let setup () =
    let dt, e = Measure.time (fun () -> Trace.span "setup" (fun () -> compile_auto rules)) in
    setups := dt :: !setups;
    e
  in
  let engine = ref (Some (setup ())) in
  (* The engine for the next pass. A fresh one is compiled after the
     previous one is collected, so that peak RSS measures one engine
     rather than how far the GC lags. *)
  let next_engine () =
    match !engine with
    | Some e when not fresh -> e
    | _ ->
        engine := None;
        Gc.full_major ();
        let e = compile_auto rules in
        engine := Some e;
        e
  in
  let feeds = ref [] and fed = ref 0 in
  let counts = Hashtbl.create 8 in
  let count name snap =
    let v = Option.value (Hashtbl.find_opt counts name) ~default:0. in
    Hashtbl.replace counts name (v +. Work.counter snap name)
  in
  let minor = ref 0. and major = ref 0 in
  let pass w =
    let e = next_engine () in
    Engine_sig.reset_counters e;
    let s = Engine_sig.session e in
    let gc0 = Gc.quick_stat () in
    Array.iteri
      (fun i c ->
        let dt, evs =
          Measure.time (fun () ->
              Trace.span "engine.feed" (fun () ->
                  let evs = Engine_sig.feed s c in
                  if i = last then evs @ Engine_sig.finish s else evs))
        in
        feeds := (w, (String.length c, dt)) :: !feeds;
        Work.check r (Printf.sprintf "chunk %d" i) (Work.events_sig evs = expected.(i)))
      chunks;
    let gc1 = Gc.quick_stat () in
    minor := !minor +. gc1.minor_words -. gc0.minor_words;
    major := !major + gc1.major_collections - gc0.major_collections;
    fed := !fed + len;
    let snap = Engine_sig.stats e in
    List.iter
      (fun n -> count n snap)
      [
        "mfsa_engine_cache_hits_total";
        "mfsa_engine_cache_misses_total";
        "mfsa_engine_cache_evictions_total";
        "mfsa_engine_prefilter_skipped_bytes_total";
        "mfsa_engine_demotions_total";
      ]
  in
  pass 0;
  feeds := [];
  fed := 0;
  minor := 0.;
  major := 0;
  Hashtbl.reset counts;
  (* One more set-up at the start of every window spreads the set-up
     samples over the run. *)
  let current = ref (-1) in
  Measure.for_seconds ~seconds ~window:1. (fun w ->
      if w <> !current then (current := w; ignore (setup () : Engine_sig.t));
      pass w);
  Work.throughput r !feeds;
  Work.latency r (List.map (fun (w, (_, dt)) -> (w, dt)) !feeds);
  Work.summary r "setup_s" "s" (Measure.summarize (Array.of_list !setups));
  if Trace.enabled () then begin
    let spans = Trace.spans () in
    let feed_us = Array.map (( *. ) 1e6) (Trace.self_times spans "engine.feed") in
    Work.summary r "engine.feed_us_p50" "us" (Measure.summarize feed_us);
    Work.p99 r "engine.feed_us_p99" "us" feed_us;
    let whole () =
      let e = next_engine () in
      let dt, n = Measure.time (fun () -> Trace.span "engine.count" (fun () -> Engine_sig.count e stream)) in
      Work.check r "whole-buffer count" (n = List.length reference);
      float_of_int len /. 1e6 /. dt
    in
    Work.summary r "engine.run_mbps" "MB/s"
      (Measure.summarize (Measure.repeat ~warmup:0 ~min_reps:2 ~seconds:0. whole));
    Work.value r "engine.imfant_mbps" "MB/s" (float_of_int len /. 1e6 /. t_ref);
    let c n = Option.value (Hashtbl.find_opt counts n) ~default:0. in
    let hits = c "mfsa_engine_cache_hits_total" and misses = c "mfsa_engine_cache_misses_total" in
    Work.value r "engine.cache_hit_ratio" "ratio"
      (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    Work.value r "engine.cache_evictions" "count" (c "mfsa_engine_cache_evictions_total");
    Work.value r "engine.prefilter_skip_ratio" "ratio"
      (c "mfsa_engine_prefilter_skipped_bytes_total" /. float_of_int !fed);
    Work.value r "engine.demotions" "count" (c "mfsa_engine_demotions_total");
    Work.value r "gc.minor_words_per_byte" "words/B" (!minor /. float_of_int !fed);
    Work.value r "gc.major_collections" "count" (float_of_int !major)
  end;
  List.length reference

let run (ctx : Work.ctx) r name =
  let c = cfg ctx name in
  let ds = Work.dataset c.abbr in
  let stream =
    Mfsa_datasets.Stream_gen.generate ~seed:ctx.seed ~payload:ds.payload ~size:c.size ds.rules
  in
  let total = measure r ~rules:ds.rules ~stream ~chunk:c.chunk ~fresh:c.fresh ~seconds:ctx.seconds in
  Work.pin ctx r name total;
  (ds, stream)

(* The engine-scan layer metrics of another workload's ruleset and
   input, fed in 2 KiB chunks. *)
let probe (ctx : Work.ctx) r ~rules ~stream =
  ignore
    (measure r ~rules ~stream ~chunk:(2 * kib) ~fresh:false
       ~seconds:(if ctx.smoke then 0. else 1.)
      : int)
