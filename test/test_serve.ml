(* Tests for the domain-parallel match service: submission-order
   aggregation equal to sequential execution (unit + qcheck over 1–4
   domains), the blocking bounded queue (backpressure, no drops), the
   drain-then-raise exception contract — the same one as Pool.run,
   extended to the persistent worker pool — and the fault-tolerance
   layer: deadlines, retry-with-backoff, replica supervision,
   admission policies, graceful drain, and the shutdown/submit race
   (a submitter admitted before [shutdown] must never strand its jobs
   behind the stop messages). *)

module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Engine_sig = Mfsa_engine.Engine_sig
module Registry = Mfsa_engine.Registry
module Serve = Mfsa_serve.Serve
module Bounded_queue = Mfsa_serve.Bounded_queue
module P = Mfsa_frontend.Parser
module Gen = QCheck2.Gen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

let merge_rules rules = Merge.merge (Array.of_list (List.map fsa_of rules))

let pairs l = List.map (fun e -> (e.Engine_sig.fsa, e.Engine_sig.end_pos)) l

(* --------------------------------------------------- Bounded queue *)

let test_queue_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Bounded_queue.create: capacity must be >= 1") (fun () ->
      ignore (Bounded_queue.create ~capacity:0))

(* A full queue blocks the producer — it neither drops nor overwrites.
   The third push only returns once a consumer has popped; afterwards
   all three values come out in FIFO order. *)
let test_queue_full_blocks () =
  let q = Bounded_queue.create ~capacity:2 in
  Bounded_queue.push q 1;
  Bounded_queue.push q 2;
  let pushed = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        Bounded_queue.push q 3;
        Atomic.set pushed true)
  in
  (* Give the producer ample time to (wrongly) complete. *)
  Unix.sleepf 0.05;
  check Alcotest.bool "producer blocked on a full queue" false
    (Atomic.get pushed);
  check Alcotest.int "depth capped at capacity" 2 (Bounded_queue.length q);
  check Alcotest.int "fifo head survives" 1 (Bounded_queue.pop q);
  Domain.join producer;
  check Alcotest.bool "producer resumed after a pop" true (Atomic.get pushed);
  check Alcotest.int "second" 2 (Bounded_queue.pop q);
  check Alcotest.int "third (nothing dropped)" 3 (Bounded_queue.pop q);
  check Alcotest.int "drained" 0 (Bounded_queue.length q);
  check Alcotest.int "high-water mark" 2 (Bounded_queue.hwm q);
  check Alcotest.int "capacity" 2 (Bounded_queue.capacity q)

(* Pop blocks on an empty queue until a push arrives. *)
let test_queue_empty_blocks () =
  let q = Bounded_queue.create ~capacity:4 in
  let got = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () -> Atomic.set got (Bounded_queue.pop q))
  in
  Unix.sleepf 0.02;
  check Alcotest.int "consumer still waiting" 0 (Atomic.get got);
  Bounded_queue.push q 7;
  Domain.join consumer;
  check Alcotest.int "woken with the value" 7 (Atomic.get got)

let test_queue_try_push () =
  let q = Bounded_queue.create ~capacity:2 in
  check Alcotest.bool "room" true (Bounded_queue.try_push q 1);
  check Alcotest.bool "room" true (Bounded_queue.try_push q 2);
  check Alcotest.bool "full refuses" false (Bounded_queue.try_push q 3);
  check Alcotest.int "refused push left no trace" 2 (Bounded_queue.length q);
  check Alcotest.int "fifo intact" 1 (Bounded_queue.pop q);
  check Alcotest.bool "room again after a pop" true (Bounded_queue.try_push q 4);
  check Alcotest.int "second" 2 (Bounded_queue.pop q);
  check Alcotest.int "third" 4 (Bounded_queue.pop q)

let test_queue_try_push_evict () =
  let q = Bounded_queue.create ~capacity:3 in
  List.iter (fun v -> Bounded_queue.push q v) [ 10; 21; 12 ];
  (* Room left: behaves as a plain push. *)
  let q2 = Bounded_queue.create ~capacity:4 in
  Bounded_queue.push q2 1;
  (match Bounded_queue.try_push_evict q2 2 ~evictable:(fun _ -> true) with
  | `Pushed -> ()
  | _ -> Alcotest.fail "room available: expected `Pushed");
  (* Full: the *oldest* element satisfying the predicate goes (here
     the odd ones), survivors keep FIFO order, the new element enters
     at the tail. *)
  (match Bounded_queue.try_push_evict q 34 ~evictable:(fun v -> v mod 2 = 1) with
  | `Evicted 21 -> ()
  | `Evicted v -> Alcotest.failf "evicted %d, wanted the oldest odd (21)" v
  | _ -> Alcotest.fail "expected an eviction");
  check Alcotest.int "depth unchanged" 3 (Bounded_queue.length q);
  (* Full and nothing evictable: refused, no change. *)
  (match Bounded_queue.try_push_evict q 44 ~evictable:(fun v -> v mod 2 = 1) with
  | `Full -> ()
  | _ -> Alcotest.fail "no evictable element: expected `Full");
  check Alcotest.int "oldest survivor" 10 (Bounded_queue.pop q);
  check Alcotest.int "next survivor" 12 (Bounded_queue.pop q);
  check Alcotest.int "new element at the tail" 34 (Bounded_queue.pop q)

(* ------------------------------------------------- Serve basics *)

let rules = [ "hello"; "he(l|n)p"; "a(b|c)*d"; "end$" ]

let inputs =
  [| "say hello"; ""; "abd acd end"; "help help"; "no match"; "abcbcbd" |]

let test_batch_matches_sequential () =
  let z = merge_rules rules in
  let im = Im.compile z in
  let expected = Array.map (fun i -> pairs (Im.run im i)) inputs in
  List.iter
    (fun domains ->
      let srv = Serve.create ~domains z in
      check Alcotest.int "domains accessor" domains (Serve.domains srv);
      check Alcotest.string "engine accessor" "imfant" (Serve.engine srv);
      let got = Array.map pairs (Serve.match_batch srv inputs) in
      Array.iteri
        (fun i exp ->
          check
            Alcotest.(list (pair int int))
            (Printf.sprintf "input %d on %d domains" i domains)
            exp got.(i))
        expected;
      check Alcotest.(array (list (pair int int))) "results in order" expected
        got;
      Serve.shutdown srv)
    [ 1; 2; 3 ]

let test_empty_batch () =
  let srv = Serve.create ~domains:2 (merge_rules rules) in
  check Alcotest.int "empty batch" 0 (Array.length (Serve.match_batch srv [||]));
  Serve.shutdown srv

let test_stats_accumulate () =
  let z = merge_rules rules in
  let srv = Serve.create ~domains:2 ~queue_capacity:3 z in
  ignore (Serve.match_batch srv inputs);
  ignore (Serve.match_batch srv [| "hello" |]);
  let s = Serve.stats srv in
  Serve.shutdown srv;
  check Alcotest.int "batches" 2 s.Serve.batches;
  check Alcotest.int "inputs" (Array.length inputs + 1) s.Serve.inputs;
  check Alcotest.int "bytes"
    (Array.fold_left (fun a i -> a + String.length i) 0 inputs + 5)
    s.Serve.bytes;
  check Alcotest.int "jobs sum to inputs"
    (Array.length inputs + 1)
    (Array.fold_left ( + ) 0 s.Serve.per_domain_jobs);
  check Alcotest.int "queue capacity" 3 s.Serve.queue_capacity;
  check Alcotest.bool "hwm within capacity" true
    (s.Serve.queue_hwm >= 1 && s.Serve.queue_hwm <= 3);
  check Alcotest.bool "elapsed positive" true (s.Serve.elapsed > 0.);
  check Alcotest.bool "throughput positive" true
    (Serve.throughput_mbps s > 0.);
  check Alcotest.int "one utilisation figure per domain" 2
    (Array.length (Serve.utilisation s))

(* The elapsed-time bugfix: serving time used to accumulate only when
   a batch settled, so stats taken mid-batch reported elapsed 0 (and
   throughput/utilisation 0 or stale) however long the service had
   been grinding. Submit a long batch from another domain and poll:
   we must observe elapsed > 0 while batches is still 0. *)
let test_elapsed_advances_mid_batch () =
  let z = merge_rules rules in
  let srv = Serve.create ~domains:1 z in
  let input =
    String.concat ""
      (List.init 50_000 (fun _ -> "say hello world and ask for help "))
  in
  let submitter =
    Domain.spawn (fun () -> ignore (Serve.match_batch srv [| input; input |]))
  in
  let deadline = Mfsa_util.Clock.now () +. 30. in
  let rec poll () =
    let s = Serve.stats srv in
    if s.Serve.batches = 0 && s.Serve.elapsed > 0. then `Seen
    else if s.Serve.batches > 0 then `Settled_first
    else if Mfsa_util.Clock.now () > deadline then `Timeout
    else begin
      Domain.cpu_relax ();
      poll ()
    end
  in
  let outcome = poll () in
  Domain.join submitter;
  let settled = Serve.stats srv in
  Serve.shutdown srv;
  (match outcome with
  | `Seen -> ()
  | `Settled_first ->
      Alcotest.fail "batch settled before a mid-batch stats call landed"
  | `Timeout -> Alcotest.fail "elapsed never advanced mid-batch");
  (* After settling, the in-flight term is gone: plain accumulation. *)
  check Alcotest.int "inflight drained" 2 settled.Serve.inputs

let test_snapshot_series () =
  let z = merge_rules rules in
  let srv = Serve.create ~domains:2 z in
  ignore (Serve.match_batch srv inputs);
  let snap = Serve.snapshot srv in
  Serve.shutdown srv;
  let module S = Mfsa_obs.Snapshot in
  check
    Alcotest.(option (float 1e-9))
    "batches" (Some 1.)
    (S.number snap "mfsa_serve_batches_total");
  check
    Alcotest.(option (float 1e-9))
    "inputs"
    (Some (float_of_int (Array.length inputs)))
    (S.number snap "mfsa_serve_inputs_total");
  (* Per-domain series exist for both workers, and the job latency
     histogram counted every input exactly once across domains. *)
  let jobs d =
    Option.get
      (S.number ~labels:[ ("domain", string_of_int d) ] snap
         "mfsa_serve_jobs_total")
  in
  check (Alcotest.float 1e-9) "jobs partitioned"
    (float_of_int (Array.length inputs))
    (jobs 0 +. jobs 1);
  let hist_count d =
    match
      S.find ~labels:[ ("domain", string_of_int d) ] snap
        "mfsa_serve_job_seconds"
    with
    | Some { S.value = S.Histogram h; _ } -> h.S.count
    | _ -> Alcotest.failf "job histogram missing for domain %d" d
  in
  check Alcotest.int "histogram observations = inputs"
    (Array.length inputs)
    (hist_count 0 + hist_count 1);
  (* Replica engine metrics are included, tagged by domain. *)
  check Alcotest.bool "replica stats present" true
    (S.find
       ~labels:[ ("domain", "0"); ("engine", "imfant") ]
       snap "mfsa_engine_runs_total"
    <> None)

let test_create_validates () =
  let z = merge_rules rules in
  List.iter
    (fun mk ->
      match mk () with
      | exception Invalid_argument _ -> ()
      | srv ->
          Serve.shutdown srv;
          Alcotest.fail "bad Serve.create accepted")
    [
      (fun () -> Serve.create ~engine:"warp" z);
      (fun () -> Serve.create ~domains:0 z);
      (fun () -> Serve.create ~queue_capacity:0 z);
    ]

(* ------------------------------------------- Failure and shutdown *)

exception Boom of string

(* A registered engine that raises on poisoned inputs: exercises both
   the open registry (tests can shadow or extend the built-ins) and
   the service's drain-then-raise contract. *)
module Failing_engine : Engine_sig.S = struct
  let name = "test-failing"
  let doc = "test-only imfant that raises on inputs containing 'X'"

  type compiled = Im.t

  let of_tables = Im.of_tables
  let mfsa = Im.mfsa

  let run c input =
    if String.contains input 'X' then raise (Boom input) else Im.run c input

  let count c input = List.length (run c input)

  let count_per_fsa c input =
    ignore (run c input);
    Im.count_per_fsa c input

  let stats _ =
    [
      Mfsa_obs.Snapshot.gauge_i
        ~labels:[ ("engine", name) ]
        "mfsa_engine_poisoned_bytes" 1;
    ]

  let reset_stats _ = ()

  let reset_counters _ = ()

  type session = Im.session

  let session = Im.session
  let feed = Im.feed
  let finish = Im.finish
  let reset = Im.reset
  let position = Im.position
end

let () = Registry.register (module Failing_engine)

let test_raising_job_drains_pool () =
  let z = merge_rules rules in
  let srv = Serve.create ~engine:"test-failing" ~domains:2 z in
  (match Serve.match_batch srv [| "hello"; "poisoned X"; "abd"; "help" |] with
  | _ -> Alcotest.fail "expected the job's exception"
  | exception Serve.Job_error { slot; error = Boom input } ->
      check Alcotest.int "which slot" 1 slot;
      check Alcotest.string "which job" "poisoned X" input
  | exception Serve.Job_error { error; _ } ->
      Alcotest.failf "Job_error with the wrong payload: %s"
        (Printexc.to_string error));
  (* The pool survives: the healthy jobs of the failed batch ran, and
     the service keeps answering. *)
  let after = Serve.match_batch srv [| "say hello" |] in
  check
    Alcotest.(list (pair int int))
    "still serving after a failure"
    (pairs (Im.run (Im.compile z) "say hello"))
    (pairs after.(0));
  let s = Serve.stats srv in
  check Alcotest.int "every job of both batches executed" 5
    (Array.fold_left ( + ) 0 s.Serve.per_domain_jobs);
  Serve.shutdown srv

let test_shutdown () =
  let srv = Serve.create ~domains:2 (merge_rules rules) in
  ignore (Serve.match_batch srv [| "hello" |]);
  Serve.shutdown srv;
  Serve.shutdown srv;
  (* idempotent *)
  (match Serve.try_match_batch srv [| "hello" |] with
  | Error Serve.Closed -> ()
  | _ -> Alcotest.fail "try_match_batch accepted after shutdown");
  match Serve.match_batch srv [| "hello" |] with
  | exception Serve.Error Serve.Closed -> ()
  | _ -> Alcotest.fail "match_batch accepted after shutdown"

(* ---------------------------------------------- Fault tolerance *)

(* Convenience: the faulty wrapper with transient faults disabled
   unless asked for — the wrapper's default fail_every is 5. *)
let faulty params = Printf.sprintf "faulty{fail_every=0,%s}:imfant" params

let expected_pairs z inputs =
  let im = Im.compile z in
  Array.map (fun i -> pairs (Im.run im i)) inputs

(* Deterministic retry + supervision schedule on one domain: with
   fail_every=2 and poison_every=5 the attempt trace is forced —
   attempts 2 and 4 fail transiently, attempt 5 poisons the replica
   (respawned with a fresh schedule), and the cycle repeats. Six
   inputs therefore need exactly 7 retries and 2 restarts. With
   poison_every=2 every second attempt of a replica poisons it, so
   inputs 2–6 each cost one retry and one restart. Either way the
   results must be byte-identical to clean sequential execution. The
   artifact-loaded service respawns from the bundle it loaded, so its
   respawned replicas agree too. *)
let test_retries_and_restarts_deterministic () =
  let z = merge_rules rules in
  let art =
    Mfsa_artifact.Artifact.to_string (Mfsa_artifact.Artifact.export [ z ])
  in
  List.iter
    (fun (what, srv, retries, restarts) ->
      let got = Array.map pairs (Serve.match_batch srv inputs) in
      let s = Serve.stats srv in
      Serve.shutdown srv;
      check
        Alcotest.(array (list (pair int int)))
        (what ^ ": fault-injected serving = clean sequential")
        (expected_pairs z inputs) got;
      check Alcotest.int (what ^ ": retries") retries s.Serve.retries;
      check Alcotest.int (what ^ ": replica restarts") restarts
        s.Serve.restarts;
      check Alcotest.int (what ^ ": no timeouts") 0 s.Serve.timeouts;
      check Alcotest.int (what ^ ": no rejections") 0 s.Serve.rejected)
    [
      ( "automaton",
        Serve.create ~engine:"faulty{seed=1,fail_every=2,poison_every=5}:imfant"
          ~domains:1 ~retries:4 ~backoff:0.0001 z,
        7,
        2 );
      ( "artifact",
        Serve.create_source ~engine:"faulty{seed=1,poison_every=2}:imfant"
          ~domains:1 ~retries:4 ~backoff:0.0001
          (Mfsa_engine.Source.Artifact_bytes art),
        5,
        5 );
    ]

(* A replica-poisoning fault with retries exhausted must still leave
   the pool healthy: the job fails, but the worker respawned its
   replica and the next batch is served cleanly. *)
let test_poison_without_retries_respawns () =
  let z = merge_rules rules in
  let srv =
    Serve.create ~engine:(faulty "poison_every=1") ~domains:1 ~retries:0 z
  in
  (match Serve.match_batch srv [| "hello" |] with
  | _ -> Alcotest.fail "expected the poison fault to surface"
  | exception Serve.Job_error { slot = 0; error = Mfsa_engine.Faulty.Replica_poisoned _ }
    -> ());
  let s = Serve.stats srv in
  check Alcotest.int "replica respawned anyway" 1 s.Serve.restarts;
  check Alcotest.int "no retry budget, none spent" 0 s.Serve.retries;
  (* The fresh replica restarts the fault schedule, so with
     poison_every=1 the next job poisons again — proof the respawn
     loaded a genuinely fresh engine (the sticky poison flag of the
     old replica would raise from attempt 0 *without* advancing the
     schedule). *)
  (match Serve.match_batch srv [| "hello" |] with
  | _ -> Alcotest.fail "fresh replica replays the schedule"
  | exception Serve.Job_error _ -> ());
  Serve.shutdown srv

let test_deadline_timeout () =
  let z = merge_rules rules in
  let srv =
    Serve.create ~engine:(faulty "delay_every=1,delay_ms=50") ~domains:1 z
  in
  (match
     Serve.try_match_batch ~deadline:0.08 srv
       [| "say hello"; "help"; "abd"; "end" |]
   with
  | Error (Serve.Timeout { settled; pending }) ->
      check Alcotest.bool "some jobs cancelled" true (settled < 4);
      check Alcotest.bool "accounting within the batch" true
        (settled >= 0 && pending >= 0 && settled + pending <= 4)
  | Ok _ -> Alcotest.fail "a 200ms batch beat an 80ms deadline"
  | Error e -> Alcotest.failf "wrong error: %s" (Serve.error_to_string e));
  let s = Serve.stats srv in
  check Alcotest.int "timeout counted" 1 s.Serve.timeouts;
  (* Cancelled jobs drained without wedging anything: the service
     still answers, correctly, without a deadline. *)
  let after = Serve.match_batch srv [| "say hello" |] in
  check
    Alcotest.(list (pair int int))
    "still serving after a timeout"
    (pairs (Im.run (Im.compile z) "say hello"))
    (pairs after.(0));
  Serve.shutdown srv

let test_reject_admission () =
  let z = merge_rules rules in
  let srv =
    Serve.create ~engine:(faulty "delay_every=1,delay_ms=100") ~domains:1
      ~queue_capacity:1 ~admission:Serve.Reject z
  in
  (* Two single-input batches: the first occupies the worker for
     ~100ms, the second fills the capacity-1 queue. Sequenced with
     sleeps because admission applies to them too. *)
  let occupiers = [| "say hello"; "help" |] in
  let slow = Array.map (fun _ -> ref (Ok [||])) occupiers in
  let submitters =
    Array.mapi
      (fun k input ->
        Domain.spawn (fun () ->
            Unix.sleepf (float_of_int k *. 0.03);
            slow.(k) := Serve.try_match_batch srv [| input |]))
      occupiers
  in
  Unix.sleepf 0.08;
  (match Serve.try_match_batch srv [| "abd" |] with
  | Error (Serve.Rejected { queue_capacity = 1; shed = false }) -> ()
  | Ok _ -> Alcotest.fail "admitted into a full queue under Reject"
  | Error e -> Alcotest.failf "wrong error: %s" (Serve.error_to_string e));
  Array.iter Domain.join submitters;
  Array.iteri
    (fun k r ->
      match !r with
      | Ok got ->
          check
            Alcotest.(list (pair int int))
            "the occupying batches were unaffected"
            (expected_pairs z occupiers).(k)
            (pairs got.(0))
      | Error e ->
          Alcotest.failf "occupying batch failed: %s" (Serve.error_to_string e))
    slow;
  let s = Serve.stats srv in
  Serve.shutdown srv;
  check Alcotest.int "rejection counted" 1 s.Serve.rejected

let test_shed_oldest_admission () =
  let z = merge_rules rules in
  let srv =
    Serve.create ~engine:(faulty "delay_every=1,delay_ms=100") ~domains:1
      ~queue_capacity:2 ~admission:Serve.Shed_oldest z
  in
  (* Victim: job 0 executing, jobs 1–2 filling the queue. *)
  let victim = ref (Ok [||]) in
  let submitter =
    Domain.spawn (fun () ->
        victim := Serve.try_match_batch srv [| "say hello"; "help"; "abd" |])
  in
  Unix.sleepf 0.03;
  let winner = [| "end" |] in
  (match Serve.try_match_batch srv winner with
  | Ok r ->
      check
        Alcotest.(array (list (pair int int)))
        "shedding submitter served" (expected_pairs z winner)
        (Array.map pairs r)
  | Error e -> Alcotest.failf "shedding submitter failed: %s"
                 (Serve.error_to_string e));
  Domain.join submitter;
  (match !victim with
  | Error (Serve.Rejected { shed = true; _ }) -> ()
  | Ok _ -> Alcotest.fail "victim settled although a job was shed"
  | Error e -> Alcotest.failf "wrong victim error: %s" (Serve.error_to_string e));
  let s = Serve.stats srv in
  Serve.shutdown srv;
  check Alcotest.int "shed counted as a rejection" 1 s.Serve.rejected

let test_drain () =
  let z = merge_rules rules in
  let srv =
    Serve.create ~engine:(faulty "delay_every=1,delay_ms=100") ~domains:1 z
  in
  let slow_inputs = [| "say hello"; "help" |] in
  let slow = ref (Ok [||]) in
  let submitter =
    Domain.spawn (fun () -> slow := Serve.try_match_batch srv slow_inputs)
  in
  Unix.sleepf 0.03;
  (* A deadline shorter than the in-flight batch: drain reports
     failure but closes the door. *)
  check Alcotest.bool "drain deadline expires" false
    (Serve.drain ~deadline:0.01 srv);
  (match Serve.try_match_batch srv [| "abd" |] with
  | Error Serve.Closed -> ()
  | _ -> Alcotest.fail "draining service admitted a batch");
  (* Unbounded drain finishes the in-flight batch, then stops. *)
  check Alcotest.bool "drain completes" true (Serve.drain srv);
  check Alcotest.bool "drain idempotent" true (Serve.drain srv);
  Domain.join submitter;
  (match !slow with
  | Ok r ->
      check
        Alcotest.(array (list (pair int int)))
        "in-flight batch settled during drain" (expected_pairs z slow_inputs)
        (Array.map pairs r)
  | Error e -> Alcotest.failf "in-flight batch failed: %s"
                 (Serve.error_to_string e))

(* snapshot must be callable while the workers are mid-batch: replica
   engine counters are published by the workers themselves at job
   boundaries (satellite of the cross-domain stats fix), so the call
   waits for a quiescent point instead of racing the owners. *)
let test_snapshot_mid_load () =
  let z = merge_rules rules in
  let srv = Serve.create ~domains:2 z in
  let input =
    String.concat ""
      (List.init 20_000 (fun _ -> "say hello world and ask for help "))
  in
  let submitter =
    Domain.spawn (fun () ->
        ignore (Serve.match_batch srv [| input; input; input; input |]))
  in
  let module S = Mfsa_obs.Snapshot in
  let snap = Serve.snapshot srv in
  List.iter
    (fun d ->
      check Alcotest.bool
        (Printf.sprintf "replica %s series present mid-load" d)
        true
        (S.find
           ~labels:[ ("domain", d); ("engine", "imfant") ]
           snap "mfsa_engine_runs_total"
        <> None))
    [ "0"; "1" ];
  check Alcotest.bool "fault counters exported" true
    (S.number snap "mfsa_serve_retries_total" = Some 0.
    && S.number snap "mfsa_serve_replica_restarts_total" = Some 0.);
  Domain.join submitter;
  Serve.shutdown srv;
  (* After shutdown the replicas have no owner: direct read path. *)
  let snap = Serve.snapshot srv in
  check Alcotest.bool "snapshot after shutdown" true
    (S.find
       ~labels:[ ("domain", "0"); ("engine", "imfant") ]
       snap "mfsa_engine_runs_total"
    <> None)

(* ------------------------------------------- Shutdown/submit race *)

(* The historical deadlock: a submitter passes the closed check,
   shutdown queues the Stop messages, the workers exit, and the
   submitter's jobs — enqueued *behind* the Stops — never settle. The
   fix makes shutdown wait for in-flight submitters before stopping,
   so hammering submit against shutdown must always terminate: every
   submitter gets either its results or [Closed], never a hang. A
   tiny queue and several submitters keep the window wide open. *)
let test_shutdown_submit_stress () =
  let z = merge_rules [ "ab" ] in
  let expected = expected_pairs z [| "xabx" |] in
  let budget = Mfsa_util.Clock.now () +. 120. in
  for i = 1 to 1000 do
    let srv = Serve.create ~domains:2 ~queue_capacity:1 z in
    let outcomes = Array.init 3 (fun _ -> Atomic.make `Pending) in
    let submitters =
      Array.init 3 (fun k ->
          Domain.spawn (fun () ->
              (* Stagger the submitters across the race window. *)
              for _ = 1 to k * 50 do
                Domain.cpu_relax ()
              done;
              let r =
                match Serve.try_match_batch srv [| "xabx" |] with
                | Ok results -> `Ok (Array.map pairs results)
                | Error Serve.Closed -> `Closed
                | Error e -> `Err (Serve.error_to_string e)
              in
              Atomic.set outcomes.(k) r))
    in
    for _ = 1 to (i mod 7) * 20 do
      Domain.cpu_relax ()
    done;
    Serve.shutdown srv;
    (* Watchdog: the submitters must all settle promptly once the
       service is down. Domain.join cannot time out, so poll the
       outcome flags first and fail loudly instead of hanging CI. *)
    let rec wait_all () =
      if Array.for_all (fun o -> Atomic.get o <> `Pending) outcomes then ()
      else if Mfsa_util.Clock.now () > budget then
        Alcotest.failf "iteration %d: submitter deadlocked against shutdown" i
      else begin
        Domain.cpu_relax ();
        wait_all ()
      end
    in
    wait_all ();
    Array.iter Domain.join submitters;
    Array.iter
      (fun o ->
        match Atomic.get o with
        | `Ok got ->
            if got <> expected then
              Alcotest.failf "iteration %d: settled batch lost results" i
        | `Closed -> ()
        | `Err e -> Alcotest.failf "iteration %d: unexpected error %s" i e
        | `Pending -> assert false)
      outcomes
  done

(* ------------------------------------------------------ Property *)

let fsa_of_rule rule =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule rule))))

let print_case ((rules, inputs), domains) =
  Printf.sprintf "%s inputs=[%s] domains=%d"
    (Gen_re.print_ruleset_input (rules, String.concat "|" inputs))
    (String.concat "; " (List.map (Printf.sprintf "%S") inputs))
    domains

(* Property (a): fault injection is invisible to callers. Any faulty
   wrapper whose transients and poisons are covered by the retry
   budget, on any domain count, under a generous deadline, yields
   results byte-identical to clean sequential execution of the
   underlying engine. *)
let print_faulty_case (((rules, inputs), domains), (seed, fail_every, poison_every)) =
  Printf.sprintf
    "%s inputs=[%s] domains=%d seed=%d fail_every=%d poison_every=%d"
    (Gen_re.print_ruleset_input (rules, String.concat "|" inputs))
    (String.concat "; " (List.map (Printf.sprintf "%S") inputs))
    domains seed fail_every poison_every

let prop_faulty_serving_agrees_with_sequential =
  QCheck2.Test.make ~count:20
    ~name:
      "serve: faulty{..}:imfant + retries + deadline = clean sequential run"
    ~print:print_faulty_case
    (Gen.pair
       (Gen.pair
          (Gen.pair (Gen_re.ruleset ())
             (Gen.list_size (Gen.int_range 0 8) Gen_re.input))
          (Gen.int_range 1 3))
       (Gen.triple (Gen.int_range 0 1000) (Gen.int_range 2 4)
          (Gen.oneof [ Gen.return 0; Gen.int_range 5 9 ])))
    (fun (((rules, inputs), domains), (seed, fail_every, poison_every)) ->
      let z = Merge.merge (Array.of_list (List.map fsa_of_rule rules)) in
      let inputs = Array.of_list inputs in
      let engine =
        Printf.sprintf "faulty{seed=%d,fail_every=%d,poison_every=%d}:imfant"
          seed fail_every poison_every
      in
      let srv = Serve.create ~engine ~domains ~retries:6 ~backoff:0.00005 z in
      let got = Serve.try_match_batch ~deadline:60. srv inputs in
      Serve.shutdown srv;
      match got with
      | Ok r -> Array.map pairs r = expected_pairs z inputs
      | Error _ -> false)

(* Property (b): random interleavings of concurrent match_batch
   against drain/shutdown neither deadlock (watchdogged — a hang
   fails the test rather than CI) nor lose results: every batch the
   service accepted comes back byte-identical to sequential, every
   refused one reports Closed. *)
let prop_shutdown_interleavings_safe =
  QCheck2.Test.make ~count:25
    ~name:"serve: match_batch/drain/shutdown interleavings are safe"
    ~print:(fun (clients, batches, spin, domains) ->
      Printf.sprintf "clients=%d batches=%d spin=%d domains=%d" clients
        batches spin domains)
    (Gen.quad (Gen.int_range 1 3) (Gen.int_range 1 3) (Gen.int_range 0 300)
       (Gen.int_range 1 2))
    (fun (clients, batches, spin, domains) ->
      let z = merge_rules [ "ab"; "c+d" ] in
      let inputs = [| "xabx"; "ccd"; "" |] in
      let expected = expected_pairs z inputs in
      let srv = Serve.create ~domains ~queue_capacity:1 z in
      let outcomes = Array.init clients (fun _ -> Atomic.make `Pending) in
      let workers =
        Array.init clients (fun k ->
            Domain.spawn (fun () ->
                let acc = ref `All_ok in
                for b = 1 to batches do
                  for _ = 1 to k * 37 + (b * 11) do
                    Domain.cpu_relax ()
                  done;
                  match Serve.try_match_batch srv inputs with
                  | Ok r ->
                      if Array.map pairs r <> expected then acc := `Lost
                  | Error Serve.Closed -> ()
                  | Error e -> acc := `Err (Serve.error_to_string e)
                done;
                Atomic.set outcomes.(k) !acc))
      in
      for _ = 1 to spin do
        Domain.cpu_relax ()
      done;
      (* Two concurrent closers: one drains, one shuts down — they
         must coordinate, not crash or double-stop. *)
      let closer = Domain.spawn (fun () -> Serve.shutdown srv) in
      ignore (Serve.drain srv : bool);
      let budget = Mfsa_util.Clock.now () +. 60. in
      let rec wait_all () =
        if Array.for_all (fun o -> Atomic.get o <> `Pending) outcomes then true
        else if Mfsa_util.Clock.now () > budget then false
        else begin
          Domain.cpu_relax ();
          wait_all ()
        end
      in
      let settled = wait_all () in
      if not settled then
        QCheck2.Test.fail_report "client deadlocked against shutdown";
      Array.iter Domain.join workers;
      Domain.join closer;
      Array.for_all
        (fun o ->
          match Atomic.get o with
          | `All_ok -> true
          | `Lost | `Err _ | `Pending -> false)
        outcomes)

let prop_serve_agrees_with_sequential =
  QCheck2.Test.make ~count:30
    ~name:"serve: match_batch = sequential Imfant.run, any domain count"
    ~print:print_case
    (Gen.pair
       (Gen.pair (Gen_re.ruleset ())
          (Gen.list_size (Gen.int_range 0 10) Gen_re.input))
       (Gen.int_range 1 4))
    (fun ((rules, inputs), domains) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let im = Im.compile z in
      let expected =
        Array.map (fun i -> pairs (Im.run im i)) (Array.of_list inputs)
      in
      let srv = Serve.create ~domains z in
      let got =
        Array.map pairs (Serve.match_batch srv (Array.of_list inputs))
      in
      Serve.shutdown srv;
      got = expected)

let () =
  Alcotest.run "serve"
    [
      ( "bounded-queue",
        [
          Alcotest.test_case "rejects bad capacity" `Quick
            test_queue_rejects_bad_capacity;
          Alcotest.test_case "full queue blocks, never drops" `Quick
            test_queue_full_blocks;
          Alcotest.test_case "empty queue blocks pop" `Quick
            test_queue_empty_blocks;
          Alcotest.test_case "try_push refuses when full" `Quick
            test_queue_try_push;
          Alcotest.test_case "try_push_evict sheds the oldest evictable"
            `Quick test_queue_try_push_evict;
        ] );
      ( "batches",
        [
          Alcotest.test_case "batch = sequential" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "elapsed advances mid-batch" `Quick
            test_elapsed_advances_mid_batch;
          Alcotest.test_case "snapshot series" `Quick test_snapshot_series;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          qtest prop_serve_agrees_with_sequential;
        ] );
      ( "failure",
        [
          Alcotest.test_case "raising job drains the pool" `Quick
            test_raising_job_drains_pool;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "deterministic retries and restarts" `Quick
            test_retries_and_restarts_deterministic;
          Alcotest.test_case "poison without retries respawns the replica"
            `Quick test_poison_without_retries_respawns;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
          Alcotest.test_case "reject admission" `Quick test_reject_admission;
          Alcotest.test_case "shed-oldest admission" `Quick
            test_shed_oldest_admission;
          Alcotest.test_case "graceful drain" `Quick test_drain;
          Alcotest.test_case "snapshot mid-load" `Quick test_snapshot_mid_load;
          qtest prop_faulty_serving_agrees_with_sequential;
        ] );
      ( "shutdown-race",
        [
          Alcotest.test_case "1000 shutdown/submit interleavings" `Quick
            test_shutdown_submit_stress;
          qtest prop_shutdown_interleavings_safe;
        ] );
    ]
