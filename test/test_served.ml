(* The networked serving daemon: wire-protocol round-trips, framing
   error paths, and the server end-to-end over loopback — result
   fidelity vs in-process execution, concurrent clients, live admin
   visibility across generation swaps, deadlines, graceful shutdown
   and fault-injected serving. *)

module P = Mfsa_served.Protocol
module Served = Mfsa_served.Served
module Client = Mfsa_served.Client
module Live = Mfsa_live.Live
module Serve = Mfsa_serve.Serve
module Source = Mfsa_engine.Source

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

let event =
  Alcotest.testable
    (fun ppf e -> Format.fprintf ppf "{rule=%d; end=%d}" e.P.rule e.P.end_pos)
    ( = )

let events = Alcotest.list event

let results = Alcotest.array events

(* ------------------------------------------------- Protocol units *)

let all_error_codes =
  [
    P.Bad_magic; P.Bad_version; P.Bad_opcode; P.Frame_too_large; P.Malformed;
    P.Deadline; P.Closed; P.Rejected; P.Timeout; P.Compile_failed;
    P.Unknown_rule; P.Job_failed;
  ]

let test_error_code_roundtrip () =
  List.iter
    (fun c ->
      match P.error_code_of_int (P.error_code_to_int c) with
      | Some c' ->
          check Alcotest.string "code" (P.error_code_to_string c)
            (P.error_code_to_string c')
      | None -> Alcotest.failf "code %s lost" (P.error_code_to_string c))
    all_error_codes;
  check Alcotest.bool "unknown wire value rejected" true
    (P.error_code_of_int 77 = None)

let header_of frame = String.sub (P.encode_frame frame) 0 P.header_len

let test_header_errors () =
  let good = header_of { P.opcode = 0x01; payload = "" } in
  (match P.decode_header good with
  | Ok (op, len) ->
      check Alcotest.int "opcode" 1 op;
      check Alcotest.int "len" 0 len
  | Error e -> Alcotest.failf "good header rejected: %s" (P.err_to_string e));
  let corrupt i c =
    let b = Bytes.of_string good in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (match P.decode_header (corrupt 0 'X') with
  | Error { P.code = P.Bad_magic; _ } -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (match P.decode_header (corrupt 4 '\002') with
  | Error { P.code = P.Bad_version; _ } -> ()
  | _ -> Alcotest.fail "bad version accepted");
  match P.decode_header "MFSA" with
  | Error { P.code = P.Malformed; _ } -> ()
  | _ -> Alcotest.fail "short header accepted"

let test_trailing_bytes_malformed () =
  let { P.opcode; payload } = P.request_to_frame (P.Submit [| "ab" |]) in
  match P.request_of_frame { P.opcode; payload = payload ^ "\000" } with
  | Error { P.code = P.Malformed; _ } -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (P.err_to_string e)

let test_truncated_payload_malformed () =
  let { P.opcode; payload } = P.request_to_frame (P.Admin (P.Add "abcdef")) in
  match
    P.request_of_frame
      { P.opcode; payload = String.sub payload 0 (String.length payload - 2) }
  with
  | Error { P.code = P.Malformed; _ } -> ()
  | _ -> Alcotest.fail "truncated payload accepted"

let test_unknown_opcode () =
  match P.request_of_frame { P.opcode = 0x7E; payload = "" } with
  | Error { P.code = P.Bad_opcode; _ } -> ()
  | _ -> Alcotest.fail "unknown opcode accepted"

(* ----------------------------------------- Round-trip properties *)

let gen_bytes = QCheck2.Gen.(small_string ~gen:char)

let gen_request =
  let open QCheck2.Gen in
  oneof
    [
      return P.Ping;
      map (fun l -> P.Submit (Array.of_list l)) (small_list gen_bytes);
      map (fun b -> P.Metrics (if b then P.Prometheus else P.Json)) bool;
      map (fun s -> P.Admin (P.Add s)) gen_bytes;
      map (fun i -> P.Admin (P.Remove i)) small_nat;
      return (P.Admin P.List_rules);
      return P.Shutdown;
    ]

let gen_event =
  QCheck2.Gen.map2
    (fun rule end_pos -> { P.rule; end_pos })
    QCheck2.Gen.small_nat QCheck2.Gen.small_nat

let gen_response =
  let open QCheck2.Gen in
  oneof
    [
      return P.Pong;
      map
        (fun l -> P.Results (Array.of_list l))
        (small_list (small_list gen_event));
      map (fun s -> P.Metrics_data s) gen_bytes;
      map2 (fun rule generation -> P.Added { rule; generation }) small_nat
        small_nat;
      map (fun generation -> P.Removed { generation }) small_nat;
      map2
        (fun generation rules -> P.Rule_list { generation; rules })
        small_nat
        (small_list (pair small_nat gen_bytes));
      return P.Bye;
      map2
        (fun code message -> P.Error { code; message })
        (oneofl all_error_codes) gen_bytes;
    ]

let prop_request_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"request_of_frame . request_to_frame = id"
    gen_request (fun r -> P.request_of_frame (P.request_to_frame r) = Ok r)

let prop_response_roundtrip =
  QCheck2.Test.make ~count:500
    ~name:"response_of_frame . response_to_frame = id" gen_response (fun r ->
      P.response_of_frame (P.response_to_frame r) = Ok r)

(* A whole frame also survives the byte level: encode_frame, then
   decode_header + payload split must reproduce the frame. *)
let prop_frame_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"encode_frame survives the byte level"
    gen_request (fun r ->
      let f = P.request_to_frame r in
      let wire = P.encode_frame f in
      match P.decode_header (String.sub wire 0 P.header_len) with
      | Ok (opcode, len) ->
          opcode = f.P.opcode
          && len = String.length f.P.payload
          && String.sub wire P.header_len len = f.P.payload
      | Error _ -> false)

(* ------------------------------------------------------ Server e2e *)

let rules = [| "abc"; "a.c"; "q+" |]

let host = "127.0.0.1"

let with_server ?config rules f =
  let t = Result.get_ok (Served.create_source ?config (Source.Rules rules)) in
  let th = Thread.create Served.serve t in
  Fun.protect
    ~finally:(fun () ->
      Served.stop t;
      Thread.join th)
    (fun () -> f t)

let connect ?read_deadline t =
  Result.get_ok (Client.connect ?read_deadline ~host ~port:(Served.port t) ())

let with_client ?config ?read_deadline rules f =
  with_server ?config rules (fun t ->
      let c = connect ?read_deadline t in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f t c))

let expected_of ?(rules = rules) input =
  let lv = Result.get_ok (Live.of_rules rules) in
  List.map
    (fun e -> { P.rule = e.Live.rule; end_pos = e.Live.end_pos })
    (Live.run lv input)

let test_ping () = with_client rules (fun _ c -> Result.get_ok (Client.ping c))

let test_submit_matches_live () =
  with_client rules (fun _ c ->
      let inputs = [| "xxabcxx"; "aXcq"; ""; "qqq" |] in
      let got = Result.get_ok (Client.submit c inputs) in
      check results "wire results = in-process Live.run"
        (Array.map expected_of inputs)
        got)

let test_empty_ruleset () =
  with_client [||] (fun _ c ->
      let got = Result.get_ok (Client.submit c [| "anything"; "" |]) in
      check results "no rules, no events" [| []; [] |] got)

let test_sequential_requests_one_connection () =
  with_client rules (fun _ c ->
      for i = 1 to 20 do
        let input = String.concat "" (List.init i (fun _ -> "abcq")) in
        let got = Result.get_ok (Client.submit c [| input |]) in
        check results "pipelined request" [| expected_of input |] got
      done)

let test_concurrent_clients_identical () =
  with_server rules (fun t ->
      let inputs = [| "zabcz"; "aacq"; "abcabc" |] in
      let expected = Array.map expected_of inputs in
      let failures = Atomic.make 0 in
      let worker () =
        let c = connect t in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            for _ = 1 to 25 do
              match Client.submit c inputs with
              | Ok got when got = expected -> ()
              | _ -> Atomic.incr failures
            done)
      in
      let threads = List.init 4 (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      check Alcotest.int "every concurrent result byte-identical" 0
        (Atomic.get failures))

(* Remote admin vs in-flight traffic: while one client adds a rule,
   every concurrently served batch must equal either the old or the
   new generation's sequential results — never a mixture — and a
   batch submitted after the ADMIN response must see the new rule. *)
let test_admin_add_generations () =
  with_server rules (fun t ->
      let input = "habcq" in
      let old_expected = expected_of input in
      let new_rules = Array.append rules [| "h.b" |] in
      let new_expected = expected_of ~rules:new_rules input in
      check Alcotest.bool "the added rule changes this input's results" true
        (old_expected <> new_expected);
      let mixtures = Atomic.make 0 in
      let stop = Atomic.make false in
      let submitter () =
        let c = connect t in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            while not (Atomic.get stop) do
              match Client.submit c [| input |] with
              | Ok [| got |] ->
                  if got <> old_expected && got <> new_expected then
                    Atomic.incr mixtures
              | _ -> Atomic.incr mixtures
            done)
      in
      let threads = List.init 2 (fun _ -> Thread.create submitter ()) in
      let c = connect t in
      let rule, generation = Result.get_ok (Client.add_rule c "h.b") in
      Atomic.set stop true;
      List.iter Thread.join threads;
      check Alcotest.int "stable id continues the sequence" 3 rule;
      check Alcotest.int "generation advanced" 1 generation;
      check Alcotest.int "no mixed-generation result" 0 (Atomic.get mixtures);
      let got = Result.get_ok (Client.submit c [| input |]) in
      check results "post-admin submit sees the new rule" [| new_expected |] got;
      Client.close c)

let test_admin_remove_and_list () =
  with_client rules (fun _ c ->
      let generation, listed = Result.get_ok (Client.list_rules c) in
      check Alcotest.int "initial generation" 0 generation;
      check
        Alcotest.(list (pair int string))
        "listing is (id, pattern) in id order"
        [ (0, "abc"); (1, "a.c"); (2, "q+") ]
        listed;
      let generation = Result.get_ok (Client.remove_rule c 1) in
      check Alcotest.int "remove advances the generation" 1 generation;
      (match Client.remove_rule c 1 with
      | Error msg ->
          check Alcotest.bool "typed unknown-rule error" true
            (String.length msg >= 12 && String.sub msg 0 12 = "unknown-rule")
      | Ok _ -> Alcotest.fail "double remove accepted");
      let got = Result.get_ok (Client.submit c [| "azc" |]) in
      check results "removed rule no longer matches" [| [] |] got)

let test_compile_error_is_typed () =
  with_client rules (fun _ c ->
      match Client.add_rule c "a(" with
      | Error msg ->
          check Alcotest.bool "compile-failed error" true
            (String.length msg >= 14 && String.sub msg 0 14 = "compile-failed")
      | Ok _ -> Alcotest.fail "malformed pattern accepted")

(* [.*a.{20}]'s DFA has 2^21 states. Neither a daemon started on it
   nor a remote add of it may determinise: under [auto], the planner
   path, each answers its match request in well under a second. *)
let test_blowup_rule_answers_fast () =
  let config = { Served.default_config with engine = "auto" } in
  let blowup = ".*a.{20}" in
  let input = "xa" ^ String.make 24 'b' in
  let within_a_second what f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    check Alcotest.bool (Printf.sprintf "%s in %.3f s < 1 s" what dt) true
      (dt < 1.);
    r
  in
  within_a_second "start on the rule, then submit" (fun () ->
      with_client ~config [| blowup |] (fun _ c ->
          check results "one-rule daemon = Live.run"
            [| expected_of ~rules:[| blowup |] input |]
            (Result.get_ok (Client.submit c [| input |]))));
  with_client ~config rules (fun _ c ->
      within_a_second "add the rule, then submit" (fun () ->
          ignore (Result.get_ok (Client.add_rule c blowup));
          check results "added rule = Live.run"
            [| expected_of ~rules:(Array.append rules [| blowup |]) input |]
            (Result.get_ok (Client.submit c [| input |]))))

let test_metrics_exposition () =
  with_client rules (fun _ c ->
      ignore (Result.get_ok (Client.submit c [| "abc" |]));
      let body = Result.get_ok (Client.metrics c P.Prometheus) in
      let has needle =
        let n = String.length needle and m = String.length body in
        let rec go i = i + n <= m && (String.sub body i n = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun series ->
          check Alcotest.bool (series ^ " present") true (has series))
        [
          "mfsa_process_start_time_seconds";
          "mfsa_process_connections_active";
          "mfsa_served_requests_total";
          "mfsa_served_connections_total";
          "mfsa_live_generation";
          "mfsa_serve_inputs_total";
          "# TYPE";
        ];
      let json = Result.get_ok (Client.metrics c P.Json) in
      check Alcotest.bool "json body is an array" true
        (String.length json > 0 && json.[0] = '['))

let test_remote_shutdown_drains () =
  let t = Result.get_ok (Served.create_source (Source.Rules rules)) in
  let served = Thread.create Served.serve t in
  let c = Result.get_ok (Client.connect ~host ~port:(Served.port t) ()) in
  Result.get_ok (Client.shutdown c);
  Client.close c;
  (* serve must return on its own — no Served.stop from this side. *)
  Thread.join served;
  match Client.connect ~host ~port:(Served.port t) () with
  | Ok c2 -> (
      Client.close c2;
      Alcotest.fail "listener still accepting after drain")
  | Error _ -> ()

let test_submit_after_stop_rejected () =
  with_client rules (fun t c ->
      Served.stop t;
      (* The connection drains: the in-flight stop closes the read
         side, so the submit either gets the typed Closed error or
         finds the connection gone. Both are clean outcomes; what must
         not happen is a hang or an untyped failure. *)
      match Client.submit c [| "abc" |] with
      | Error _ -> ()
      | Ok _ -> () (* raced the drain and won: also fine *))

(* --------------------------------------------- Framing error paths *)

let raw_connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, Served.port t));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

let send_all fd s = ignore (Unix.write_substring fd s 0 (String.length s) : int)

let test_oversize_frame_rejected () =
  let config = { Served.default_config with max_frame = 1024 } in
  with_server ~config rules (fun t ->
      let fd = raw_connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let b = Buffer.create 16 in
          Buffer.add_string b "MFSA\001\002";
          Buffer.add_int32_be b 2048l;
          send_all fd (Buffer.contents b);
          (match P.read_frame fd with
          | P.Frame f -> (
              match P.response_of_frame f with
              | Ok (P.Error { P.code = P.Frame_too_large; _ }) -> ()
              | r ->
                  Alcotest.failf "wanted frame-too-large, got %s"
                    (match r with Ok _ -> "another response" | Error e ->
                       P.err_to_string e))
          | _ -> Alcotest.fail "no error frame");
          check Alcotest.bool "connection closed after framing error" true
            (P.read_frame fd = P.Eof)))

let test_bad_magic_rejected () =
  with_server rules (fun t ->
      let fd = raw_connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd "XXXX\001\001\000\000\000\000";
          match P.read_frame fd with
          | P.Frame f -> (
              match P.response_of_frame f with
              | Ok (P.Error { P.code = P.Bad_magic; _ }) -> ()
              | _ -> Alcotest.fail "wanted bad-magic error")
          | _ -> Alcotest.fail "no error frame"))

let test_read_deadline_expires () =
  let config = { Served.default_config with read_deadline = 0.2 } in
  with_server ~config rules (fun t ->
      let fd = raw_connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* Send nothing: the server must time the connection out and
             answer with the typed Deadline error before closing. *)
          match P.read_frame fd with
          | P.Frame f -> (
              match P.response_of_frame f with
              | Ok (P.Error { P.code = P.Deadline; _ }) -> ()
              | _ -> Alcotest.fail "wanted deadline error")
          | P.Eof -> () (* close-without-reply is acceptable on some stacks *)
          | P.Fail e -> Alcotest.failf "read failed: %s" (P.err_to_string e)))

(* ------------------------------------------------- Fault injection *)

let test_faulty_engine_serves_clean_results () =
  let config =
    {
      Served.default_config with
      engine = "faulty{seed=5,fail_every=40,poison_every=130}:imfant";
      retries = 6;
      backoff = 0.0002;
    }
  in
  with_client ~config rules (fun _ c ->
      let inputs = [| "abcq"; "azc"; "qabc"; "noise" |] in
      let expected = Array.map expected_of inputs in
      for _ = 1 to 10 do
        let got = Result.get_ok (Client.submit c inputs) in
        check results "faulty engine + retries = clean baseline" expected got
      done)

let () =
  Alcotest.run "served"
    [
      ( "protocol",
        [
          Alcotest.test_case "error codes round-trip" `Quick
            test_error_code_roundtrip;
          Alcotest.test_case "header errors" `Quick test_header_errors;
          Alcotest.test_case "trailing bytes" `Quick
            test_trailing_bytes_malformed;
          Alcotest.test_case "truncated payload" `Quick
            test_truncated_payload_malformed;
          Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode;
          qtest prop_request_roundtrip;
          qtest prop_response_roundtrip;
          qtest prop_frame_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "submit = Live.run" `Quick
            test_submit_matches_live;
          Alcotest.test_case "empty ruleset" `Quick test_empty_ruleset;
          Alcotest.test_case "sequential requests" `Quick
            test_sequential_requests_one_connection;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients_identical;
          Alcotest.test_case "admin add vs in-flight" `Quick
            test_admin_add_generations;
          Alcotest.test_case "admin remove + list" `Quick
            test_admin_remove_and_list;
          Alcotest.test_case "compile error typed" `Quick
            test_compile_error_is_typed;
          Alcotest.test_case "DFA blow-up rule answers fast" `Quick
            test_blowup_rule_answers_fast;
          Alcotest.test_case "metrics exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "remote shutdown drains" `Quick
            test_remote_shutdown_drains;
          Alcotest.test_case "submit after stop" `Quick
            test_submit_after_stop_rejected;
        ] );
      ( "framing",
        [
          Alcotest.test_case "oversize frame" `Quick
            test_oversize_frame_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic_rejected;
          Alcotest.test_case "read deadline" `Quick test_read_deadline_expires;
        ] );
      ( "faults",
        [
          Alcotest.test_case "faulty engine, clean results" `Quick
            test_faulty_engine_serves_clean_results;
        ] );
    ]
