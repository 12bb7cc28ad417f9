(* Layer-by-layer timings taken from outside: each call into a layer's
   public functions runs inside a span, and a layer's number is the
   median self time of its spans. *)

open Mfsa_engine
module Artifact = Mfsa_artifact.Artifact
module Protocol = Mfsa_served.Protocol
module Serve = Mfsa_serve.Serve

let median_self spans name k = (Measure.summarize (Array.map (( *. ) k) (Trace.self_times spans name))).median

(* The compile stages one after another, rules to a loaded artifact.
   [Pipeline.build_fsas] parses again internally, so automata.build_ms
   includes a second front-end pass. *)
let compile r rules =
  let bytes = ref 0 and z = ref None in
  for _ = 1 to 3 do
    Trace.span "compile" (fun () ->
        ignore (Trace.span "frontend.parse" (fun () -> Mfsa_frontend.Parser.parse_many (Array.to_list rules)));
        let fsas =
          Trace.span "automata.build" (fun () ->
              match Mfsa_core.Pipeline.build_fsas rules with
              | Ok f -> f
              | Error e -> failwith (Mfsa_core.Pipeline.error_to_string e))
        in
        let m = Trace.span "mfsa.merge" (fun () -> List.hd (Mfsa_model.Merge.merge_groups ~m:0 fsas)) in
        ignore (Trace.span "engine.compile" (fun () -> Work.compile "auto" m));
        let tables = Trace.span "artifact.export" (fun () -> Artifact.export [ m ]) in
        let s = Trace.span "artifact.encode" (fun () -> Artifact.to_string tables) in
        ignore (Trace.span "artifact.decode" (fun () -> Artifact.of_string s));
        bytes := String.length s;
        z := Some m)
  done;
  let spans = Trace.spans () in
  List.iter
    (fun (metric, span) -> Work.value r metric "ms" (median_self spans span 1e3))
    [
      ("frontend.parse_ms", "frontend.parse");
      ("automata.build_ms", "automata.build");
      ("mfsa.merge_ms", "mfsa.merge");
      ("engine.compile_ms", "engine.compile");
      ("artifact.export_ms", "artifact.export");
      ("artifact.encode_ms", "artifact.encode");
      ("artifact.decode_ms", "artifact.decode");
    ];
  let f = Planner.features_of_mfsa (Option.get !z) in
  Work.value r "engine.states" "count" (float_of_int f.f_states);
  Work.value r "engine.transitions" "count" (float_of_int f.f_transitions);
  Work.value r "engine.classes" "count" (float_of_int f.f_classes);
  Work.value r "artifact.bytes" "bytes" (float_of_int !bytes)

let response events =
  Protocol.Results
    [|
      List.map (fun (e : Engine_sig.match_event) -> { Protocol.rule = e.fsa; end_pos = e.end_pos }) events
      |> List.sort (fun (a : Protocol.event) b -> compare (a.end_pos, a.rule) (b.end_pos, b.rule));
    |]

let decode s =
  match Protocol.decode_header (String.sub s 0 Protocol.header_len) with
  | Ok (opcode, len) -> { Protocol.opcode; payload = String.sub s Protocol.header_len len }
  | Error e -> failwith (Protocol.err_to_string e)

(* One request's in-process path: codec both ways, the engine alone,
   and the engine behind a one-domain Serve pool. Returns the medians
   (µs) of the codec and of the batch, which the served workload
   subtracts from its request latency. *)
let request (ctx : Work.ctx) r ~(ds : Mfsa_datasets.Datasets.t) ~inputs =
  let z = Work.mfsa ds.rules in
  let engine = Work.compile "auto" z in
  let serve = Serve.create ~engine:"auto" ~domains:1 z in
  Fun.protect ~finally:(fun () -> Serve.shutdown serve) (fun () ->
      let k = ref 0 in
      let rep () =
        let x = inputs.(!k mod Array.length inputs) in
        incr k;
        let events = Trace.span "engine.run" (fun () -> Engine_sig.run engine x) in
        let resp = response events in
        let req_s, resp_s =
          Trace.span "protocol.encode" (fun () ->
              ( Protocol.encode_frame (Protocol.request_to_frame (Protocol.Submit [| x |])),
                Protocol.encode_frame (Protocol.response_to_frame resp) ))
        in
        let req', resp' =
          Trace.span "protocol.decode" (fun () ->
              (Protocol.request_of_frame (decode req_s), Protocol.response_of_frame (decode resp_s)))
        in
        Work.check r "protocol round trip" (req' = Ok (Protocol.Submit [| x |]) && resp' = Ok resp);
        let batch = Trace.span "serve.batch" (fun () -> Serve.match_batch serve [| x |]) in
        Work.check r "serve batch" (response batch.(0) = resp);
        0.
      in
      ignore
        (if ctx.smoke then Measure.repeat ~warmup:1 ~min_reps:3 ~seconds:0. rep
         else Measure.repeat ~warmup:2 ~min_reps:8 ~seconds:1. rep
          : float array);
      let spans = Trace.spans () in
      let us name = median_self spans name 1e6 in
      let run = us "engine.run" and batch = us "serve.batch" in
      let encode = us "protocol.encode" and decode = us "protocol.decode" in
      Work.value r "protocol.encode_us" "us" encode;
      Work.value r "protocol.decode_us" "us" decode;
      Work.value r "engine.run_us_p50" "us" run;
      Work.value r "serve.batch_us_p50" "us" batch;
      Work.value r "serve.overhead_us_p50" "us" (batch -. run);
      (encode +. decode, batch))
