(* The served workload: a daemon process loads a BRO artifact and
   serves it with the auto engine on one worker domain. This process
   is the load generator: one connection with one request in flight.
   Latency requests carry one 2 KiB input from a pool of 64, throughput
   requests [batch] of them; every response is checked against the
   events computed in-process before the daemon starts. *)

open Mfsa_engine
module Served = Mfsa_served.Served
module Client = Mfsa_served.Client
module Protocol = Mfsa_served.Protocol

let pool_size = 64
let input_bytes = 2048
let batch = 16

(* The daemon side: [suite.exe --daemon ARTIFACT]. Announces its port
   on stdout and serves until SIGTERM. *)
let serve path =
  let config = { Served.default_config with engine = "auto"; domains = 1; port = 0 } in
  match Served.create_source ~config (Source.Artifact_file path) with
  | Error msg ->
      prerr_endline ("suite daemon: " ^ msg);
      exit 1
  | Ok t ->
      Served.handle_signals t;
      Printf.printf "%d\n%!" (Served.port t);
      Served.serve t;
      exit 0

external pin_first_cpu : unit -> int = "suite_pin_first_cpu"

type daemon = { pid : int; port : int; ready : float; pinged : float }

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error msg -> failwith ("connect: " ^ msg)

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status)

(* Spawn to first answered ping. *)
let spawn artifact =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = Measure.now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; artifact |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let port = try int_of_string (input_line ic) with End_of_file | Failure _ -> -1 in
  close_in ic;
  let d = { pid; port; ready = Measure.now () -. t0; pinged = 0. } in
  match
    if port < 0 then failwith "daemon did not start";
    let c = connect port in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        match Client.ping c with Ok () -> Measure.now () -. t0 | Error msg -> failwith ("ping: " ^ msg))
  with
  | pinged -> { d with pinged }
  | exception e ->
      stop d;
      raise e

type outcome = { latency : float; ok : bool }

(* One connection on the calling domain, one request in flight: request
   [k] carries [batch] consecutive pool inputs and is sent as soon as
   the answer to [k - 1] is in. Only one thread of the two processes
   runs at a time and the sender never sleeps, so a request does not
   wait for the scheduler or for a core to wake from idle (an open loop
   at 2000 req/s paid about 170 µs per request for that). *)
let load ~port ~pool ~expected ~batch ~duration =
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      let t0 = Measure.now () in
      let acc = ref [] and k = ref 0 in
      while Measure.now () -. t0 < duration do
        let first = !k * batch in
        let idx = Array.init batch (fun j -> (first + j) mod Array.length pool) in
        let sent = Measure.now () in
        let res =
          Trace.span ~req:(!k + 1) "served.request" (fun () -> Client.submit c (Array.map (Array.get pool) idx))
        in
        let now = Measure.now () in
        let ok =
          match res with
          | Ok evs -> Array.length evs = batch && Array.for_all2 (fun e i -> e = expected.(i)) evs idx
          | Error _ -> false
        in
        acc := { latency = now -. sent; ok } :: !acc;
        incr k
      done;
      List.rev !acc)

let scrape port name =
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.metrics c Protocol.Prometheus with
      | Error msg -> failwith ("metrics: " ^ msg)
      | Ok body ->
          String.split_on_char '\n' body
          |> List.filter (fun l ->
                 String.starts_with ~prefix:(name ^ "{") l || String.starts_with ~prefix:(name ^ " ") l)
          |> List.fold_left
               (fun acc l ->
                 match String.rindex_opt l ' ' with
                 | Some i -> acc +. Option.value (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))) ~default:0.
                 | None -> acc)
               0.)

let run (ctx : Work.ctx) r =
  let ds = Work.dataset "BRO" in
  let z = Work.mfsa ds.rules in
  let artifact = Filename.concat ctx.dir (Printf.sprintf "served-%d.mfsa" (Unix.getpid ())) in
  Mfsa_artifact.Artifact.save artifact (Mfsa_artifact.Artifact.export [ z ]);
  Fun.protect ~finally:(fun () -> Sys.remove artifact) (fun () ->
      let pool =
        Array.init pool_size (fun i ->
            Mfsa_datasets.Stream_gen.generate ~seed:((ctx.seed * 7919) + i) ~payload:ds.payload
              ~size:input_bytes ds.rules)
      in
      let reference = Work.compile "imfant" z in
      let expected =
        Array.map
          (fun x ->
            match Layers.response (Engine_sig.run reference x) with
            | Protocol.Results [| evs |] -> evs
            | _ -> assert false)
          pool
      in
      Work.pin ctx r "served" (Array.fold_left (fun acc l -> acc + List.length l) 0 expected);
      (* The generator and every daemon share one core, so a hand-off is
         a context switch on that core rather than the wake-up of an idle
         core, whose cost depends on the host. *)
      ignore (pin_first_cpu () : int);
      (* Set-ups: two daemons before the one that serves the load, one
         more in every round and two after, so that the samples span the
         run. *)
      let spawns = ref [] in
      let spawn_and_stop () =
        let d = spawn artifact in
        stop d;
        spawns := d :: !spawns
      in
      spawn_and_stop ();
      spawn_and_stop ();
      let d = spawn artifact in
      spawns := d :: !spawns;
      Fun.protect ~finally:(fun () -> stop d) (fun () ->
          let phase ~batch ~duration =
            let outs = load ~port:d.port ~pool ~expected ~batch ~duration in
            List.iter (fun o -> Work.check r "served response" o.ok) outs;
            outs
          in
          (* Rounds of one latency window (single-input requests) and one
             throughput window (batched requests), so that both metrics
             sample the whole run. *)
          let s = ctx.seconds in
          let window = Float.min 0.5 (0.45 *. s) in
          let rounds = max 1 (int_of_float (0.9 *. s /. (2. *. window))) in
          ignore (phase ~batch:1 ~duration:(0.05 *. s) : outcome list);
          ignore (phase ~batch ~duration:(0.05 *. s) : outcome list);
          let single = ref [] and batched = ref [] in
          for w = 0 to rounds - 1 do
            spawn_and_stop ();
            single := List.map (fun o -> (w, o)) (phase ~batch:1 ~duration:window) @ !single;
            let outs = phase ~batch ~duration:window in
            let bytes = List.length outs * batch * input_bytes in
            let busy = List.fold_left (fun acc o -> acc +. o.latency) 0. outs in
            batched := (w, (bytes, busy)) :: !batched
          done;
          Work.throughput r !batched;
          Work.latency r (List.map (fun (w, o) -> (w, o.latency)) !single);
          Work.value r "peak_rss_mb" "MB" (Work.vm_hwm_mb d.pid);
          spawn_and_stop ();
          spawn_and_stop ();
          let spawns = !spawns in
          Work.summary r "setup_s" "s" (Measure.summarize (Array.of_list (List.map (fun d -> d.pinged) spawns)));
          if Trace.enabled () then begin
            Work.summary r "served.ready_ms" "ms"
              (Measure.summarize (Array.of_list (List.map (fun d -> d.ready *. 1e3) spawns)));
            Work.value r "serve.queue_hwm" "count" (scrape d.port "mfsa_serve_queue_depth_hwm");
            Work.value r "serve.utilisation" "ratio" (scrape d.port "mfsa_serve_utilisation");
            let codec, batch_us = Layers.request ctx r ~ds ~inputs:pool in
            let req_us = (Measure.summarize (Array.of_list (List.map (fun (_, o) -> o.latency) !single))).median *. 1e6 in
            Work.value r "served.residual_us_p50" "us" (req_us -. codec -. batch_us)
          end);
      (ds, String.concat "" (Array.to_list pool)))
