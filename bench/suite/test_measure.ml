let close = Alcotest.float 1e-9

let percentile () =
  let s = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.check close "q=0 is the minimum" 1. (Measure.percentile s 0.);
  Alcotest.check close "rank ceil(0.25*10)=3" 3. (Measure.percentile s 0.25);
  Alcotest.check close "rank 5" 5. (Measure.percentile s 0.5);
  Alcotest.check close "rank ceil(9.9)=10" 10. (Measure.percentile s 0.99);
  Alcotest.check close "q=1 is the maximum" 10. (Measure.percentile s 1.);
  Alcotest.check close "clamped" 10. (Measure.percentile s 2.);
  Alcotest.check close "one sample" 7. (Measure.percentile [| 7. |] 0.9);
  Alcotest.check_raises "no samples" (Invalid_argument "Measure.percentile: no samples") (fun () ->
      ignore (Measure.percentile [||] 0.5))

let summary () =
  (* Unsorted input, left unmodified. *)
  let samples = [| 9.; 1.; 8.; 2.; 7.; 3.; 6.; 4.; 5.; 10.; 11.; 12. |] in
  let copy = Array.copy samples in
  let s = Measure.summarize samples in
  Alcotest.(check (array (float 0.))) "input untouched" copy samples;
  Alcotest.(check int) "n" 12 s.n;
  Alcotest.check close "median" 6. s.median;
  Alcotest.check close "q1" 3. s.q1;
  Alcotest.check close "q3" 9. s.q3;
  Alcotest.check close "min" 1. s.min;
  Alcotest.check close "max" 12. s.max

let tail () =
  let tail_q n = (Measure.summarize (Array.init n float_of_int)).tail_q in
  Alcotest.check close "n=15: not even p50 has ten beyond" 1.0 (tail_q 15);
  Alcotest.check close "n=20: p50" 0.5 (tail_q 20);
  Alcotest.check close "n=100: p90" 0.9 (tail_q 100);
  Alcotest.check close "n=999: still p90" 0.9 (tail_q 999);
  Alcotest.check close "n=1000: p99" 0.99 (tail_q 1000);
  Alcotest.check close "n=10000: p99.9" 0.999 (tail_q 10000);
  let s = Measure.summarize (Array.init 1000 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "p99 of 1..1000" 990. s.tail

let repeat () =
  let calls = ref 0 in
  let samples =
    Measure.repeat ~warmup:2 ~min_reps:5 ~seconds:0. (fun () ->
        incr calls;
        float_of_int !calls)
  in
  Alcotest.(check int) "warm-up calls are made" 7 !calls;
  Alcotest.(check (array (float 0.))) "and discarded" [| 3.; 4.; 5.; 6.; 7. |] samples

let self_time () =
  Trace.set_enabled true;
  let busy d =
    let t0 = Measure.now () in
    while Measure.now () -. t0 < d do () done
  in
  Trace.span ~req:7 "outer" (fun () ->
      busy 0.002;
      Trace.span "inner" (fun () -> busy 0.004);
      Trace.span "inner" (fun () -> busy 0.004));
  Trace.set_enabled false;
  Trace.span "untraced" ignore;
  let spans = Trace.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = List.find (fun (s : Trace.span) -> s.name = "outer") spans in
  List.iter
    (fun (s : Trace.span) ->
      if s.name = "inner" then begin
        Alcotest.(check int) "parent" outer.id s.parent;
        Alcotest.(check int) "request id inherited" 7 s.req
      end)
    spans;
  let self = (Trace.self_times spans "outer").(0) in
  let total = outer.stop -. outer.start in
  Alcotest.(check bool) "self time excludes the children" true (self >= 0.002 && self < total -. 0.008)

let json () =
  let v =
    Json.Obj
      [ ("a", Json.Num 0.1); ("b", Json.Arr [ Json.int 3; Json.Null; Json.Bool true ]); ("c", Json.Str "x\"y\n") ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check string) "integers print bare" "[3, -2]" (Json.to_string (Json.Arr [ Json.int 3; Json.int (-2) ]));
  Alcotest.(check string) "non-finite is null" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.check_raises "trailing bytes" (Failure "JSON: trailing bytes at offset 3") (fun () ->
      ignore (Json.of_string "{} x"))

let () =
  Alcotest.run "bench-suite"
    [
      ( "measure",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick percentile;
          Alcotest.test_case "summary statistics" `Quick summary;
          Alcotest.test_case "tail percentile" `Quick tail;
          Alcotest.test_case "warm-up and reps" `Quick repeat;
        ] );
      ("trace", [ Alcotest.test_case "self time" `Quick self_time ]);
      ("json", [ Alcotest.test_case "print and parse" `Quick json ]);
    ]
