(* The benchmark suite: five workloads at paper scale, each run in its
   own process, with end-to-end metrics from an untraced run and
   per-layer metrics from a traced one.

     dune exec bench/suite/suite.exe -- [--workload NAME]... [--seed N]
       [--seconds S] [--trace [0|1]] [--smoke] [--out FILE] [--schema FILE]

   Prints one "workload metric value unit n=<samples>" line per metric,
   writes the same as JSON to FILE (and the spans of a traced run to
   FILE.trace.json), and ends with one JSON line: correct, attempted,
   failed and the metrics. Exits 1 on any divergence. *)

let workloads = [ "lit-stream"; "nolit-stream"; "demote-stream"; "rule-churn"; "served" ]

let end_to_end =
  [
    ("throughput_mbps", "MB/s");
    ("latency_p50_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("latency_p99_ms", "ms");
    ("frontend.parse_ms", "ms");
    ("automata.build_ms", "ms");
    ("mfsa.merge_ms", "ms");
    ("engine.compile_ms", "ms");
    ("engine.states", "count");
    ("engine.transitions", "count");
    ("engine.classes", "count");
    ("artifact.export_ms", "ms");
    ("artifact.encode_ms", "ms");
    ("artifact.decode_ms", "ms");
    ("artifact.bytes", "bytes");
    ("engine.feed_us_p50", "us");
    ("engine.feed_us_p99", "us");
    ("engine.run_mbps", "MB/s");
    ("engine.imfant_mbps", "MB/s");
    ("engine.cache_hit_ratio", "ratio");
    ("engine.cache_evictions", "count");
    ("engine.prefilter_skip_ratio", "ratio");
    ("engine.demotions", "count");
    ("gc.minor_words_per_byte", "words/B");
    ("gc.major_collections", "count");
    ("live.add_ms_p50", "ms");
    ("live.remove_ms_p50", "ms");
    ("live.first_run_ms_p50", "ms");
    ("live.first_run_ms_p99", "ms");
    ("live.compactions", "count");
    ("live.compact_ms", "ms");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("engine.run_us_p50", "us");
    ("serve.batch_us_p50", "us");
    ("serve.overhead_us_p50", "us");
    ("trace.overhead_pct", "%");
  ]

type opts = {
  names : string list;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
  schema : string option;
  child : string option;
}

let usage =
  "usage: suite.exe [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]\n\
  \                 [--smoke] [--out FILE] [--schema BENCHMARK.json]\n\
   workloads: " ^ String.concat ", " workloads ^ "\n"

let die fmt =
  Printf.ksprintf (fun m -> Printf.eprintf "suite: %s\n%s" m usage; exit 2) fmt

let parse args =
  let num conv k v = match conv v with Some x -> x | None -> die "%s wants a number, got %S" k v in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if not (List.mem w workloads) then die "unknown workload %S" w;
        go { o with names = o.names @ [ w ] } rest
    | "--seed" :: v :: rest -> go { o with seed = num int_of_string_opt "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = num float_of_string_opt "--seconds" v in
        if not (s > 0.) then die "--seconds must be > 0";
        go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--out" :: v :: rest -> go { o with out = v } rest
    | "--schema" :: v :: rest -> go { o with schema = Some v } rest
    | "--child" :: w :: rest -> go { o with child = Some w } rest
    | ("-h" | "--help") :: _ -> print_string usage; exit 0
    | a :: _ -> die "bad argument %S" a
  in
  let o =
    go
      {
        names = [];
        seed = Work.default_seed;
        seconds = 15.;
        trace = false;
        smoke = false;
        out = "bench/suite/_out/suite.json";
        schema = None;
        child = None;
      }
      args
  in
  { o with names = (if o.names = [] then workloads else o.names) }

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ())

let spans_file o name = Filename.concat (Filename.dirname o.out) (name ^ ".spans.json")

(* ------------------------------------------------ workload process *)

(* In a traced run, the layers the workload's own path does not reach
   are measured on its ruleset and input, so that every workload
   reports every per-layer metric. *)
let sweep ctx r (ds : Mfsa_datasets.Datasets.t) sample =
  let into f =
    let extra = Work.result () in
    f extra;
    Work.absorb r extra
  in
  Layers.compile r ds.rules;
  if not (Work.has r "engine.feed_us_p50") then
    into (fun x -> Streams.probe ctx x ~rules:ds.rules ~stream:sample);
  if not (Work.has r "live.add_ms_p50") then into (fun x -> Churn.probe ctx x ~ds);
  if not (Work.has r "protocol.encode_us") then
    into (fun x ->
        let inputs = Work.split sample (if ctx.Work.smoke then 512 else Daemon.input_bytes) in
        ignore
          (Layers.request ctx x ~ds ~inputs:(Array.sub inputs 0 (min 16 (Array.length inputs)))
            : float * float))

let child o name =
  Trace.set_enabled o.trace;
  let ctx = { Work.seed = o.seed; seconds = o.seconds; smoke = o.smoke; dir = Filename.dirname o.out } in
  let r = Work.result () in
  let ds, sample =
    match name with
    | "rule-churn" -> Churn.run ctx r
    | "served" -> Daemon.run ctx r
    | w -> Streams.run ctx r w
  in
  if not (Work.has r "peak_rss_mb") then
    Work.value r "peak_rss_mb" "MB" (Work.vm_hwm_mb (Unix.getpid ()));
  if o.trace then begin
    sweep ctx r ds sample;
    let oc = open_out (spans_file o name) in
    output_string oc (Json.to_string (Trace.to_json (Trace.spans ())));
    close_out oc
  end;
  print_endline (Json.to_string (Work.to_json r))

(* ---------------------------------------------------------- parent *)

let run_child o name ~traced =
  let args =
    [ Sys.executable_name; "--child"; name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%.17g" o.seconds; "--trace"; (if traced then "1" else "0");
      "--out"; o.out ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  close_in ic;
  let crashed () =
    Printf.eprintf "suite: %s%s: the workload process failed\n%!" name (if traced then " (traced)" else "");
    let r = Work.result () in
    Work.check r name false;
    r
  in
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some l -> ( try Work.of_json (Json.of_string l) with Failure _ -> crashed ())
  | _ -> crashed ()

let find r name = List.find_opt (fun (m : Work.metric) -> m.name = name) (Work.metrics r)

(* One workload: the untraced run, and with tracing the traced run,
   whose per-layer metrics are added along with the tracing overhead
   on throughput. *)
let run_workload o name =
  let r = Work.result () in
  Work.absorb r (run_child o name ~traced:false);
  if o.trace then begin
    let t = run_child o name ~traced:true in
    (match (find r "throughput_mbps", find t "throughput_mbps") with
    | Some u, Some tr when u.value > 0. ->
        Work.value r "trace.overhead_pct" "%" ((u.value -. tr.value) /. u.value *. 100.)
    | _ -> ());
    Work.absorb r t
  end;
  r

(* The metrics a result line carries, and whether all are there. *)
let required o = List.map fst (if o.trace then per_layer else end_to_end)

let complete o r =
  List.for_all (fun n -> match find r n with Some m -> Float.is_finite m.value | None -> false) (required o)

(* [BENCHMARK.json] must name exactly these workloads and metrics. *)
let check_schema path =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let names key = List.map (fun x -> Json.to_str (Json.member "name" x)) (Json.to_list (Json.member key j)) in
  let units key = List.map (fun x -> Json.to_str (Json.member "unit" x)) (Json.to_list (Json.member key j)) in
  let ok what a b =
    if a <> b then Printf.eprintf "suite: %s differ from %s\n%!" what path;
    a = b
  in
  List.for_all Fun.id
    [
      ok "workloads" (names "workloads") workloads;
      ok "end-to-end metrics" (names "end_to_end") (List.map fst end_to_end);
      ok "end-to-end units" (units "end_to_end") (List.map snd end_to_end);
      ok "per-layer metrics" (names "per_layer") (List.map fst per_layer);
      ok "per-layer units" (units "per_layer") (List.map snd per_layer);
    ]

let main o =
  mkdir_p (Filename.dirname o.out);
  let results = List.map (fun name -> (name, run_workload o name)) o.names in
  List.iter
    (fun (name, r) ->
      List.iter
        (fun (m : Work.metric) ->
          Printf.printf "%s %s %.6g %s n=%d iqr=%.6g..%.6g min=%.6g p%g=%.6g\n" name m.name m.value
            m.unit_ m.n m.q1 m.q3 m.min (m.tail_q *. 100.) m.tail)
        (Work.metrics r))
    results;
  let ok (_, r) = Work.failed r = 0 in
  let complete_all = List.for_all (fun (_, r) -> complete o r) results in
  if not complete_all then prerr_endline "suite: a required metric is missing or not finite";
  let schema_ok = match o.schema with Some p -> check_schema p | None -> true in
  let correct = List.for_all ok results && complete_all && schema_ok in
  let workload_json (name, r) =
    (name, Json.Obj [ ("correct", Json.Bool (ok (name, r))); ("result", Work.to_json r) ])
  in
  Out_channel.with_open_bin o.out (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("seed", Json.int o.seed); ("seconds", Json.Num o.seconds); ("smoke", Json.Bool o.smoke);
                ("trace", Json.Bool o.trace); ("workloads", Json.Obj (List.map workload_json results)) ]));
      output_char oc '\n');
  if o.trace then begin
    let parts =
      List.map
        (fun name ->
          let f = spans_file o name in
          let spans = try Json.of_string (In_channel.with_open_bin f In_channel.input_all) with Sys_error _ | Failure _ -> Json.Arr [] in
          (try Sys.remove f with Sys_error _ -> ());
          (name, spans))
        o.names
    in
    Out_channel.with_open_bin (o.out ^ ".trace.json") (fun oc ->
        output_string oc (Json.to_string (Json.Obj parts)))
  end;
  let single = match results with [ _ ] -> true | _ -> false in
  let line_metrics =
    List.concat_map
      (fun (name, r) ->
        List.filter_map
          (fun n ->
            Option.map
              (fun (m : Work.metric) ->
                ( (if single then n else name ^ "/" ^ n),
                  Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] ))
              (find r n))
          (required o))
      results
  in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.int (sum Work.attempted));
            ("failed", Json.int (sum Work.failed)); ("metrics", Json.Obj line_metrics) ]));
  exit (if correct then 0 else 1)

let () =
  (* [Source.Artifact_file] resolves through the artifact library's
     loader hook; [Source.Rules] through the pipeline's, which [Work]
     links by calling it. *)
  Mfsa_artifact.Artifact.link ();
  match List.tl (Array.to_list Sys.argv) with
  | [ "--daemon"; artifact ] -> Daemon.serve artifact
  | args -> (
      let o = parse args in
      match o.child with Some name -> child o name | None -> main o)
