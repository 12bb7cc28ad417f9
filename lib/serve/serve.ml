module Engine_sig = Mfsa_engine.Engine_sig
module Registry = Mfsa_engine.Registry
module Faulty = Mfsa_engine.Faulty
module Pool = Mfsa_engine.Pool
module Obs = Mfsa_obs.Obs
module Snapshot = Mfsa_obs.Snapshot

let now () = Mfsa_util.Clock.now ()

(* Granularity of the polling waits used where a deadline (or a
   best-effort wake-up) rules out a plain Condition.wait — OCaml's
   Condition has no timed wait. 0.2 ms: coarse enough to stay cheap,
   fine enough for millisecond deadlines. *)
let poll_interval = 0.0002

type admission = Block | Reject | Shed_oldest

type error =
  | Closed
  | Rejected of { queue_capacity : int; shed : bool }
  | Timeout of { settled : int; pending : int }

exception Error of error

exception Job_error of { slot : int; error : exn }

let error_to_string = function
  | Closed -> "service is shut down"
  | Rejected { queue_capacity; shed } ->
      if shed then
        Printf.sprintf
          "batch shed: a queued job was evicted under Shed_oldest (queue \
           capacity %d)"
          queue_capacity
      else
        Printf.sprintf "batch rejected: submission queue full (capacity %d)"
          queue_capacity
  | Timeout { settled; pending } ->
      Printf.sprintf "batch deadline expired (%d settled, %d still pending)"
        settled pending

(* One queued input. [batch] is the rendezvous its result is
   aggregated into: workers fill [results.(slot)], decrement
   [remaining] and wake the submitter when the batch settles. A
   cancelled batch (deadline expired, rejected mid-submission, or a
   job shed) is drained without execution: workers just decrement. *)
type batch = {
  results : Engine_sig.match_event list array;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
  mutable remaining : int;
  mutable cancelled : bool;
  mutable shed : bool;  (* a queued job was evicted under Shed_oldest *)
}

type job = { input : string; slot : int; batch : batch }

type msg =
  | Job of job
  | Ping  (* wake an idle worker so it publishes its replica stats *)
  | Stop

type stats = {
  domains : int;
  batches : int;
  inputs : int;
  bytes : int;
  elapsed : float;
  queue_hwm : int;
  queue_capacity : int;
  per_domain_jobs : int array;
  per_domain_busy : float array;
  timeouts : int;
  rejected : int;
  retries : int;
  restarts : int;
}

type t = {
  engine_name : string;
  spawn : unit -> Engine_sig.t;
      (* Fresh replica factory: what [create]d the initial replicas,
         and what supervision respawns poisoned ones from. Closes over
         the service's one table bundle, which is immutable, so
         calling it from any worker domain is safe. *)
  n_domains : int;
  admission : admission;
  retries : int;  (* extra attempts per job on transient/poison faults *)
  backoff : float;  (* base backoff seconds, doubled per retry *)
  queue : msg Bounded_queue.t;
  mutable workers : unit Domain.t array;
  (* Replica [i] belongs to worker [i], which is the only domain that
     may touch it (run, stats, respawn-on-poison) while workers are
     alive; the array cell itself is updated under [m]. *)
  replicas : Engine_sig.t array;
  per_domain_jobs : int array;
  per_domain_busy : float array;
  (* Per-instance registry: two services in one process never collide
     on a series. Counter/histogram updates are atomic, so workers
     observe without taking [m]. *)
  reg : Obs.t;
  batch_h : Obs.histogram;
  job_h : Obs.histogram array;
  timeouts_c : Obs.counter;
  rejected_c : Obs.counter;
  retries_c : Obs.counter;
  restarts_c : Obs.counter;
  m : Mutex.t;
  settled : Condition.t;
  (* broadcast when: a batch's [remaining] hits 0, [inflight] drops,
     a worker publishes stats, or the workers are joined *)
  mutable batches : int;
  mutable inputs : int;
  mutable bytes : int;
  mutable elapsed : float;
  mutable inflight : int;
  mutable inflight_t0 : float;
  mutable closed : bool;  (* no new batches admitted *)
  mutable stopping : bool;  (* somebody is pushing Stops / joining *)
  mutable joined : bool;  (* workers have exited and been joined *)
  (* Worker-published replica stats: [stat_gen] is bumped by each
     snapshot request; worker [i] publishes its replica's stats into
     [stat_cells.(i)] and advances [stat_done.(i)] whenever it sees
     its cell is behind, at a quiescent point between jobs. *)
  mutable stat_gen : int;
  stat_done : int array;
  stat_cells : Snapshot.t array;
}

(* ------------------------------------------------------- Workers *)

let respawn_replica t i =
  let fresh = t.spawn () in
  Mutex.lock t.m;
  t.replicas.(i) <- fresh;
  Mutex.unlock t.m;
  Obs.inc t.restarts_c;
  fresh

(* Publish this worker's replica stats if a snapshot is waiting on a
   fresher generation than the one we last published. The stats call
   itself runs unlocked — we own the replica — and only the handover
   of the result takes [m]. *)
let maybe_publish_stats t i replica =
  Mutex.lock t.m;
  let want = t.stat_gen in
  let stale = t.stat_done.(i) < want in
  Mutex.unlock t.m;
  if stale then begin
    let s = Engine_sig.stats !replica in
    Mutex.lock t.m;
    t.stat_cells.(i) <- s;
    if t.stat_done.(i) < want then t.stat_done.(i) <- want;
    Condition.broadcast t.settled;
    Mutex.unlock t.m
  end

(* Run one job with bounded retry and replica supervision. A poison
   fault ([Faulty.Replica_poisoned]) marks the replica dead; we
   respawn it (a fresh engine loaded from the service's bundle)
   before deciding whether the job itself gets another attempt, so
   even a non-retried poison leaves the worker healthy for the next
   job. A [Faulty.Transient_fault] is only retried. The backtrace is
   captured at the failure point and travels with the exception to
   the submitter. *)
let execute t i replica input =
  let rec attempt n =
    match Engine_sig.run !replica input with
    | events -> Ok events
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        let retryable =
          match e with
          | Faulty.Replica_poisoned _ ->
              replica := respawn_replica t i;
              true
          | Faulty.Transient_fault _ -> true
          | _ -> false
        in
        if retryable && n < t.retries then begin
          Obs.inc t.retries_c;
          if t.backoff > 0. then
            Unix.sleepf (t.backoff *. (2. ** float_of_int n));
          attempt (n + 1)
        end
        else Error (e, bt)
  in
  attempt 0

let worker t i () =
  let replica = ref t.replicas.(i) in
  let continue = ref true in
  while !continue do
    (match Bounded_queue.pop t.queue with
    | Stop -> continue := false
    | Ping -> ()
    | Job j ->
        Mutex.lock t.m;
        let cancelled = j.batch.cancelled in
        Mutex.unlock t.m;
        let outcome =
          if cancelled then None
          else begin
            let t0 = now () in
            let r = execute t i replica j.input in
            let dt = now () -. t0 in
            Obs.observe t.job_h.(i) dt;
            Some (r, dt)
          end
        in
        Mutex.lock t.m;
        (match outcome with
        | None -> ()  (* cancelled: drained, not executed *)
        | Some (r, dt) ->
            t.per_domain_jobs.(i) <- t.per_domain_jobs.(i) + 1;
            t.per_domain_busy.(i) <- t.per_domain_busy.(i) +. dt;
            (match r with
            | Ok events -> j.batch.results.(j.slot) <- events
            | Error (e, bt) ->
                if j.batch.failed = None then
                  j.batch.failed <- Some (j.slot, e, bt)));
        j.batch.remaining <- j.batch.remaining - 1;
        if j.batch.remaining = 0 then Condition.broadcast t.settled;
        Mutex.unlock t.m);
    if !continue then maybe_publish_stats t i replica
  done

(* -------------------------------------------------------- Create *)

(* The one construction path: the source resolves to one table
   bundle, and every replica — initial and respawned — is loaded from
   it in O(size). The bundle is immutable, so sharing it read-only
   across worker domains is safe; each replica's mutable scratch is
   its own. *)
let create_source ?(engine = "imfant") ?domains ?queue_capacity
    ?(admission = Block) ?(retries = 0) ?(backoff = 0.001) source =
  let tb =
    match Mfsa_engine.Source.resolve source with
    | [ tb ] -> tb
    | l ->
        invalid_arg
          (Printf.sprintf
             "Serve.create_source: source yields %d table bundles; serving \
              wants exactly one (merge with m=0, or serve each separately)"
             (List.length l))
  in
  let spawn () = Registry.compile_tables_exn engine tb in
  let n_domains =
    match domains with Some d -> d | None -> Pool.available_parallelism ()
  in
  if n_domains < 1 then invalid_arg "Serve.create: need at least one domain";
  let queue_capacity =
    match queue_capacity with Some c -> c | None -> 2 * n_domains
  in
  if queue_capacity < 1 then
    invalid_arg "Serve.create: queue_capacity must be >= 1";
  if retries < 0 then invalid_arg "Serve.create: retries must be >= 0";
  if backoff < 0. then invalid_arg "Serve.create: backoff must be >= 0";
  (* One replica per domain, loaded up front on the calling domain;
     each is handed to exactly one worker and never shared. *)
  let replicas = Array.init n_domains (fun _ -> spawn ()) in
  let reg = Obs.create () in
  let batch_h =
    Obs.histogram ~registry:reg
      ~help:"Batch latency in seconds, submission to last result"
      "mfsa_serve_batch_seconds"
  in
  let job_h =
    Array.init n_domains (fun i ->
        Obs.histogram ~registry:reg
          ~help:"Single-input execution latency in seconds, per worker domain"
          ~labels:[ ("domain", string_of_int i) ]
          "mfsa_serve_job_seconds")
  in
  let timeouts_c =
    Obs.counter ~registry:reg ~help:"Batches whose deadline expired"
      "mfsa_serve_timeouts_total"
  in
  let rejected_c =
    Obs.counter ~registry:reg
      ~help:"Batches refused admission (queue full under Reject, or shed)"
      "mfsa_serve_rejected_total"
  in
  let retries_c =
    Obs.counter ~registry:reg
      ~help:"Job attempts retried after a transient or poison fault"
      "mfsa_serve_retries_total"
  in
  let restarts_c =
    Obs.counter ~registry:reg
      ~help:"Worker replicas respawned with a freshly loaded engine"
      "mfsa_serve_replica_restarts_total"
  in
  let t =
    {
      engine_name = engine;
      spawn;
      n_domains;
      admission;
      retries;
      backoff;
      queue = Bounded_queue.create ~capacity:queue_capacity;
      workers = [||];
      replicas;
      per_domain_jobs = Array.make n_domains 0;
      per_domain_busy = Array.make n_domains 0.;
      reg;
      batch_h;
      job_h;
      timeouts_c;
      rejected_c;
      retries_c;
      restarts_c;
      m = Mutex.create ();
      settled = Condition.create ();
      batches = 0;
      inputs = 0;
      bytes = 0;
      elapsed = 0.;
      inflight = 0;
      inflight_t0 = 0.;
      closed = false;
      stopping = false;
      joined = false;
      stat_gen = 0;
      stat_done = Array.make n_domains 0;
      stat_cells = Array.make n_domains [];
    }
  in
  t.workers <- Array.init n_domains (fun i -> Domain.spawn (worker t i));
  t

let create ?engine ?domains ?queue_capacity ?admission ?retries ?backoff z =
  create_source ?engine ?domains ?queue_capacity ?admission ?retries ?backoff
    (Mfsa_engine.Source.Automata [ z ])

let engine t = t.engine_name

let domains t = t.n_domains

(* --------------------------------------------------- Submission *)

(* Enqueue the batch's jobs under the service's admission policy,
   bounded by [dl] (absolute monotonic deadline). Returns the number
   of jobs that made it into the queue, paired with the reason for
   stopping early, if any. *)
let submit t batch inputs dl =
  let n = Array.length inputs in
  let expired () = match dl with Some d -> now () >= d | None -> false in
  let job slot = Job { input = inputs.(slot); slot; batch } in
  (* Shed victims must be settled on behalf of their (gone or waiting)
     submitter: the whole victim batch is cancelled and marked shed. *)
  let settle_victim = function
    | Job v ->
        Mutex.lock t.m;
        v.batch.cancelled <- true;
        v.batch.shed <- true;
        v.batch.remaining <- v.batch.remaining - 1;
        Condition.broadcast t.settled;
        Mutex.unlock t.m
    | Ping | Stop -> ()  (* unreachable: the predicate never picks these *)
  in
  let evictable = function
    | Job v -> v.batch != batch  (* never shed our own jobs *)
    | Ping | Stop -> false
  in
  let rec push_one slot =
    if slot >= n then (n, None)
    else
      match t.admission with
      | Block when dl = None ->
          Bounded_queue.push t.queue (job slot);
          push_one (slot + 1)
      | Block ->
          let rec poll () =
            if Bounded_queue.try_push t.queue (job slot) then
              push_one (slot + 1)
            else if expired () then (slot, Some `Deadline)
            else begin
              Unix.sleepf poll_interval;
              poll ()
            end
          in
          poll ()
      | Reject ->
          if Bounded_queue.try_push t.queue (job slot) then push_one (slot + 1)
          else (slot, Some `Queue_full)
      | Shed_oldest ->
          let rec poll () =
            match Bounded_queue.try_push_evict t.queue (job slot) ~evictable with
            | `Pushed -> push_one (slot + 1)
            | `Evicted v ->
                settle_victim v;
                push_one (slot + 1)
            | `Full ->
                (* Everything queued is our own batch: wait for the
                   workers to drain it rather than self-shedding. *)
                if expired () then (slot, Some `Deadline)
                else begin
                  Unix.sleepf poll_interval;
                  poll ()
                end
          in
          poll ()
  in
  push_one 0

(* A batch abandoned before it settled: mark it cancelled so workers
   drain (not execute) its queued jobs, account for the slots that
   never entered the queue, and report how far it got. *)
let cancel_batch t batch ~total ~queued =
  Mutex.lock t.m;
  batch.cancelled <- true;
  let settled = total - batch.remaining in
  batch.remaining <- batch.remaining - (total - queued);
  let pending = batch.remaining in
  if batch.remaining = 0 then Condition.broadcast t.settled;
  Mutex.unlock t.m;
  (settled, pending)

let finish_inflight t t0 =
  t.elapsed <- t.elapsed +. (now () -. t0);
  t.inflight <- t.inflight - 1;
  t.inflight_t0 <- t.inflight_t0 -. t0;
  Condition.broadcast t.settled

let try_match_batch ?deadline t inputs =
  let t0 = now () in
  let dl = Option.map (fun d -> t0 +. d) deadline in
  let n = Array.length inputs in
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    Result.Error Closed
  end
  else if n = 0 then begin
    Mutex.unlock t.m;
    Ok [||]
  end
  else begin
    (* Register the batch as in flight under the same lock as the
       closed check: [drain]/[shutdown] wait for [inflight] to reach
       zero before pushing Stops, so a submitter that passed this
       point can never enqueue jobs behind a Stop. *)
    t.inflight <- t.inflight + 1;
    t.inflight_t0 <- t.inflight_t0 +. t0;
    Mutex.unlock t.m;
    let batch =
      {
        results = Array.make n [];
        failed = None;
        remaining = n;
        cancelled = false;
        shed = false;
      }
    in
    let queued, stopped = submit t batch inputs dl in
    match stopped with
    | Some reason ->
        let settled, pending = cancel_batch t batch ~total:n ~queued in
        let err =
          match reason with
          | `Deadline ->
              Obs.inc t.timeouts_c;
              Timeout { settled; pending }
          | `Queue_full ->
              Obs.inc t.rejected_c;
              Rejected
                { queue_capacity = Bounded_queue.capacity t.queue; shed = false }
        in
        Mutex.lock t.m;
        finish_inflight t t0;
        Mutex.unlock t.m;
        Result.Error err
    | None -> (
        Mutex.lock t.m;
        let rec wait () =
          if batch.shed then `Shed
          else if batch.remaining > 0 then
            match dl with
            | None ->
                Condition.wait t.settled t.m;
                wait ()
            | Some d ->
                if now () >= d then `Deadline
                else begin
                  (* No timed Condition.wait in the stdlib: poll. *)
                  Mutex.unlock t.m;
                  Unix.sleepf poll_interval;
                  Mutex.lock t.m;
                  wait ()
                end
          else `Settled
        in
        match wait () with
        | `Settled ->
            let dt = now () -. t0 in
            t.batches <- t.batches + 1;
            t.inputs <- t.inputs + n;
            t.bytes <-
              t.bytes
              + Array.fold_left (fun acc s -> acc + String.length s) 0 inputs;
            finish_inflight t t0;
            let failed = batch.failed in
            Mutex.unlock t.m;
            Obs.observe t.batch_h dt;
            (match failed with
            | Some (slot, e, bt) ->
                Printexc.raise_with_backtrace (Job_error { slot; error = e }) bt
            | None -> Ok batch.results)
        | `Deadline ->
            Mutex.unlock t.m;
            let settled, pending = cancel_batch t batch ~total:n ~queued:n in
            Obs.inc t.timeouts_c;
            Mutex.lock t.m;
            finish_inflight t t0;
            Mutex.unlock t.m;
            Result.Error (Timeout { settled; pending })
        | `Shed ->
            (* Another submitter's Shed_oldest push evicted one of our
               queued jobs (and cancelled the batch for us). *)
            Mutex.unlock t.m;
            Obs.inc t.rejected_c;
            Mutex.lock t.m;
            finish_inflight t t0;
            Mutex.unlock t.m;
            Result.Error
              (Rejected
                 { queue_capacity = Bounded_queue.capacity t.queue; shed = true }))
  end

let match_batch ?deadline t inputs =
  match try_match_batch ?deadline t inputs with
  | Ok results -> results
  | Result.Error e -> raise (Error e)

(* ---------------------------------------------------------- Stats *)

let stats t =
  Mutex.lock t.m;
  (* Read the clock under the lock: every registered t0 is <= [now],
     so the in-flight contribution can never be negative. *)
  let now = now () in
  let s =
    {
      domains = t.n_domains;
      batches = t.batches;
      inputs = t.inputs;
      bytes = t.bytes;
      elapsed =
        t.elapsed +. (float_of_int t.inflight *. now) -. t.inflight_t0;
      queue_hwm = Bounded_queue.hwm t.queue;
      queue_capacity = Bounded_queue.capacity t.queue;
      per_domain_jobs = Array.copy t.per_domain_jobs;
      per_domain_busy = Array.copy t.per_domain_busy;
      timeouts = Obs.counter_value t.timeouts_c;
      rejected = Obs.counter_value t.rejected_c;
      retries = Obs.counter_value t.retries_c;
      restarts = Obs.counter_value t.restarts_c;
    }
  in
  Mutex.unlock t.m;
  s

let throughput_mbps (s : stats) =
  if s.elapsed <= 0. then 0. else float_of_int s.bytes /. 1e6 /. s.elapsed

let utilisation (s : stats) =
  Array.map
    (fun busy -> if s.elapsed <= 0. then 0. else busy /. s.elapsed)
    s.per_domain_busy

(* Replica engine stats, without racing the workers: bump the request
   generation, nudge idle workers with best-effort Pings, and wait for
   each worker to publish its own replica's snapshot at a quiescent
   point. Once the workers are joined the replicas have no owner left
   and are read directly. *)
let replica_snapshots t =
  Mutex.lock t.m;
  if t.joined then begin
    let cells = Array.map Engine_sig.stats t.replicas in
    Mutex.unlock t.m;
    cells
  end
  else begin
    t.stat_gen <- t.stat_gen + 1;
    let g = t.stat_gen in
    Mutex.unlock t.m;
    let rec wait () =
      Mutex.lock t.m;
      let missing =
        (not t.joined) && Array.exists (fun d -> d < g) t.stat_done
      in
      if missing then begin
        Mutex.unlock t.m;
        (* Best-effort wake-up for idle workers; a full queue means
           they are busy and will publish after their current job. *)
        ignore (Bounded_queue.try_push t.queue Ping : bool);
        Unix.sleepf poll_interval;
        wait ()
      end
      else begin
        let cells =
          if t.joined then Array.map Engine_sig.stats t.replicas
          else Array.copy t.stat_cells
        in
        Mutex.unlock t.m;
        cells
      end
    in
    wait ()
  end

let snapshot t =
  let module S = Snapshot in
  let s = stats t in
  let own =
    [
      S.gauge_i ~help:"Worker domains" "mfsa_serve_domains" s.domains;
      S.counter_i ~help:"Batches completed" "mfsa_serve_batches_total"
        s.batches;
      S.counter_i ~help:"Inputs processed" "mfsa_serve_inputs_total" s.inputs;
      S.counter_i ~help:"Input bytes processed" "mfsa_serve_bytes_total"
        s.bytes;
      S.counter ~help:"Wall-clock serving seconds, in-flight batches included"
        "mfsa_serve_elapsed_seconds_total" s.elapsed;
      S.gauge ~help:"Aggregate throughput over the serving time, MB/s"
        "mfsa_serve_throughput_mbps" (throughput_mbps s);
      S.gauge_i ~help:"Submission-queue depth high-water mark"
        "mfsa_serve_queue_depth_hwm" s.queue_hwm;
      S.gauge_i ~help:"Submission-queue capacity" "mfsa_serve_queue_capacity"
        s.queue_capacity;
    ]
  in
  let util = utilisation s in
  let per_domain =
    List.concat
      (List.init s.domains (fun i ->
           let d = [ ("domain", string_of_int i) ] in
           [
             S.counter_i ~help:"Jobs executed, per worker domain" ~labels:d
               "mfsa_serve_jobs_total" s.per_domain_jobs.(i);
             S.counter ~help:"Seconds spent executing jobs, per worker domain"
               ~labels:d "mfsa_serve_busy_seconds_total" s.per_domain_busy.(i);
             S.gauge ~help:"Busy fraction of the serving time, per worker domain"
               ~labels:d "mfsa_serve_utilisation" util.(i);
           ]))
  in
  let engines =
    let cells = replica_snapshots t in
    List.concat
      (List.init s.domains (fun i ->
           S.with_labels [ ("domain", string_of_int i) ] cells.(i)))
  in
  S.merge [ own; per_domain; Obs.snapshot t.reg; engines ]

(* ------------------------------------------------------- Shutdown *)

let drain ?deadline t =
  let dl = Option.map (fun d -> now () +. d) deadline in
  Mutex.lock t.m;
  t.closed <- true;
  (* Wait for every in-flight submitter to finish enqueueing AND
     settle (or give up): only then is it safe to queue Stops — the
     fix for the shutdown/submit race where a submitter that passed
     the closed check enqueued jobs behind the Stops and waited on
     its batch forever. *)
  let rec wait_idle () =
    if t.joined then `Joined
    else if t.stopping then `Stopping
    else if t.inflight > 0 then
      match dl with
      | None ->
          Condition.wait t.settled t.m;
          wait_idle ()
      | Some d ->
          if now () >= d then `Deadline
          else begin
            Mutex.unlock t.m;
            Unix.sleepf poll_interval;
            Mutex.lock t.m;
            wait_idle ()
          end
    else `Idle
  in
  match wait_idle () with
  | `Joined ->
      Mutex.unlock t.m;
      true
  | `Deadline ->
      Mutex.unlock t.m;
      false
  | `Idle ->
      t.stopping <- true;
      Mutex.unlock t.m;
      (* Stops queue behind any still-draining cancelled jobs; one per
         worker. *)
      for _ = 1 to t.n_domains do
        Bounded_queue.push t.queue Stop
      done;
      Array.iter Domain.join t.workers;
      Mutex.lock t.m;
      t.joined <- true;
      Condition.broadcast t.settled;
      Mutex.unlock t.m;
      true
  | `Stopping ->
      (* Another caller is already joining the workers; wait for it. *)
      let rec wait_joined () =
        if t.joined then true
        else
          match dl with
          | None ->
              Condition.wait t.settled t.m;
              wait_joined ()
          | Some d ->
              if now () >= d then false
              else begin
                Mutex.unlock t.m;
                Unix.sleepf poll_interval;
                Mutex.lock t.m;
                wait_joined ()
              end
      in
      let r = wait_joined () in
      Mutex.unlock t.m;
      r

let shutdown t = ignore (drain t : bool)
