(* Unit tests for the execution engines: iNFAnt, iMFAnt, the domain
   pool and the scheduler projection. *)

module Nfa = Mfsa_automata.Nfa
module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module In = Mfsa_paper.Infant
module Im = Mfsa_engine.Imfant
module Hy = Mfsa_engine.Hybrid
module Pool = Mfsa_engine.Pool
module Schedule = Mfsa_paper.Schedule

let check = Alcotest.check

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

(* ---------------------------------------------------------- Infant *)

let test_infant_agrees_with_simulator () =
  List.iter
    (fun (re, inputs) ->
      let a = fsa_of re in
      let eng = In.compile a in
      List.iter
        (fun s ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%S on %S" re s)
            (Sim.match_ends a s) (In.run eng s))
        inputs)
    [
      ("ab", [ "abcdab"; ""; "ab"; "ba"; "aab" ]);
      ("a+", [ "xaaa"; "aaa"; "bbb" ]);
      ("a(b|c)*d", [ "abcbcd"; "ad"; "abd"; "axd" ]);
      ("[0-9]{2}", [ "a12b345"; "1"; "12" ]);
      (".", [ "ab\ncd" ]);
      ("a*", [ "aaa"; "bab" ]);
    ]

let test_infant_anchored () =
  let a = fsa_of "^ab" in
  let eng = In.compile a in
  check Alcotest.(list int) "start anchor" [ 2 ] (In.run eng "abab");
  check Alcotest.(list int) "no interior" [] (In.run eng "xab");
  let a = fsa_of "ab$" in
  let eng = In.compile a in
  check Alcotest.(list int) "end anchor" [ 4 ] (In.run eng "abab");
  check Alcotest.(list int) "not at end" [] (In.run eng "abx")

let test_infant_count () =
  let eng = In.compile (fsa_of "a") in
  check Alcotest.int "count" 3 (In.count eng "axaxa");
  check Alcotest.int "empty input" 0 (In.count eng "")

let test_infant_rejects_eps () =
  Alcotest.check_raises "eps rejected"
    (Invalid_argument "Infant.compile: automaton must be ε-free") (fun () ->
      ignore (In.compile (Mfsa_automata.Thompson.build_pattern "a|b")))

let test_infant_n_states () =
  let a = fsa_of "abc" in
  check Alcotest.int "n_states" a.Nfa.n_states (In.n_states (In.compile a))

(* ---------------------------------------------------------- Imfant *)

let test_imfant_single_fsa_equals_infant () =
  List.iter
    (fun (re, input) ->
      let a = fsa_of re in
      let infant = In.compile a in
      let imfant = Im.compile (Mfsa.of_fsa a) in
      check
        Alcotest.(list int)
        (Printf.sprintf "%S on %S" re input)
        (In.run infant input)
        (List.map (fun e -> e.Im.end_pos) (Im.run imfant input)))
    [
      ("ab", "abcdabab");
      ("a(b|c)*d", "abcbcdxxad");
      ("[xy]z", "xzyzxz");
      ("a{2,4}", "aaaaaa");
    ]

let test_imfant_match_order () =
  let z = Merge.merge [| fsa_of "ab"; fsa_of "b" |] in
  let eng = Im.compile z in
  let events = Im.run eng "ab" in
  (* Both FSAs match at end position 2 and nothing else; ties are
     reported by ascending FSA id. *)
  check Alcotest.(list (pair int int)) "ordered events"
    [ (0, 2); (1, 2) ]
    (List.map (fun e -> (e.Im.fsa, e.Im.end_pos)) events)

let test_imfant_count_and_per_fsa () =
  let z = Merge.merge [| fsa_of "a"; fsa_of "aa" |] in
  let eng = Im.compile z in
  let input = "aaa" in
  check Alcotest.int "count" 5 (Im.count eng input);
  check Alcotest.(array int) "per fsa" [| 3; 2 |] (Im.count_per_fsa eng input)

let test_imfant_anchors_per_fsa () =
  (* One anchored and one unanchored rule in the same MFSA must keep
     their individual anchor semantics. *)
  let anchored =
    Mfsa_automata.Multiplicity.fuse
      (Mfsa_automata.Epsilon.remove
         (Mfsa_automata.Thompson.build (P.parse_exn "^ab")))
  in
  let z = Merge.merge [| anchored; fsa_of "ab" |] in
  let eng = Im.compile z in
  let per j input =
    List.filter_map
      (fun e -> if e.Im.fsa = j then Some e.Im.end_pos else None)
      (Im.run eng input)
  in
  check Alcotest.(list int) "anchored: pos 0 only" [ 2 ] (per 0 "abab");
  check Alcotest.(list int) "unanchored: everywhere" [ 2; 4 ] (per 1 "abab");
  let end_anchored =
    Mfsa_automata.Multiplicity.fuse
      (Mfsa_automata.Epsilon.remove
         (Mfsa_automata.Thompson.build (P.parse_exn "ab$")))
  in
  let z = Merge.merge [| end_anchored; fsa_of "ab" |] in
  let eng = Im.compile z in
  let per j input =
    List.filter_map
      (fun e -> if e.Im.fsa = j then Some e.Im.end_pos else None)
      (Im.run eng input)
  in
  check Alcotest.(list int) "end-anchored: last only" [ 4 ] (per 0 "abab");
  check Alcotest.(list int) "unanchored: both" [ 2; 4 ] (per 1 "abab")

let test_imfant_stats () =
  let z = Merge.merge [| fsa_of "aaab"; fsa_of "aaac" |] in
  let eng = Im.compile z in
  let _, stats = Im.run_with_stats eng "aaaaaa" in
  check Alcotest.int "positions" 6 stats.Im.positions;
  check Alcotest.bool "avg positive" true (stats.Im.avg_active > 0.);
  check Alcotest.bool "max at least avg" true
    (float_of_int stats.Im.max_active >= stats.Im.avg_active);
  check Alcotest.bool "max bounded by fsas" true (stats.Im.max_active <= 2);
  let _, empty_stats = Im.run_with_stats eng "" in
  check Alcotest.int "empty positions" 0 empty_stats.Im.positions;
  check (Alcotest.float 1e-9) "empty avg" 0. empty_stats.Im.avg_active

let test_imfant_empty_input () =
  let eng = Im.compile (Mfsa.of_fsa (fsa_of "a*")) in
  check Alcotest.int "no matches on empty" 0 (List.length (Im.run eng ""))

let test_imfant_mfsa_accessor () =
  let z = Mfsa.of_fsa (fsa_of "ab") in
  check Alcotest.int "same automaton" z.Mfsa.n_states (Im.mfsa (Im.compile z)).Mfsa.n_states

(* A fixed multi-word MFSA: 130 FSAs, so every activation set spans
   three 62-bit words. Rule i is [abc]*[abc]{i/26}<salt>d with salt
   number i mod 26: the leading [abc]* keeps threads live on every
   byte and leaves no required literal (so no prefilter), input over
   "abc" alone never matches, and the five rules sharing a salt match
   together at its "d", with ids 26 apart — one end position carries
   FSAs from all three words. *)
let multiword =
  lazy
    (let salt i = String.init 3 (fun d -> "abc".[(i / [| 1; 3; 9 |].(d)) mod 3]) in
     Im.compile
       (Merge.merge
          (Array.init 130 (fun i ->
               fsa_of (Printf.sprintf "[abc]*[abc]{%d}%sd" (i / 26) (salt (i mod 26)))))))

let lcg_input alphabet n =
  let st = ref 7 in
  String.init n (fun _ ->
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      alphabet.[(!st lsr 16) mod String.length alphabet])

let test_imfant_total_order_multiword () =
  let eng = Lazy.force multiword in
  let input = lcg_input "abcd" 4096 in
  let events = List.map (fun e -> (e.Im.end_pos, e.Im.fsa)) (Im.run eng input) in
  check Alcotest.bool "strictly (end, fsa) ordered" true
    (List.sort_uniq compare events = events);
  check Alcotest.bool "a position carries FSAs of different words" true
    (List.exists
       (fun (e, j) -> List.exists (fun (e', j') -> e = e' && j / 62 <> j' / 62) events)
       events);
  (* Unsorted: the same events in the same order as the lazy DFA. *)
  check
    Alcotest.(list (pair int int))
    "= Hybrid.run"
    (List.map (fun e -> (e.Hy.end_pos, e.Hy.fsa)) (Hy.run (Hy.of_imfant eng) input))
    events

(* The step kernel works on preallocated flat words: once warm, a
   whole-buffer count allocates nothing per byte, and neither does a
   session fed a chunk that keeps threads live but completes no match. *)
let test_imfant_no_alloc_per_byte () =
  let eng = Lazy.force multiword in
  check Alcotest.bool "no prefilter" true (Im.prefilter eng = None);
  let words_per_byte n f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let input = lcg_input "abcd" 65536 in
  let wpb = words_per_byte 65536 (fun () -> ignore (Im.count eng input)) in
  if wpb >= 1. then Alcotest.failf "count: %.2f minor words per byte" wpb;
  let chunk = lcg_input "abc" 4096 in
  let s = Im.session eng in
  let wpb =
    words_per_byte 4096 (fun () ->
        check Alcotest.int "match-free" 0 (List.length (Im.feed s chunk)))
  in
  if wpb >= 1. then Alcotest.failf "feed: %.2f minor words per byte" wpb

(* The same pin on the lazy DFA: a demoted hybrid's session steps its
   own kernel scan, and a warm cached one only follows memo rows, so
   neither allocates per byte on a match-free chunk. *)
let test_hybrid_no_alloc_per_byte () =
  let eng = Lazy.force multiword in
  let chunk = lcg_input "abc" 4096 in
  let words_per_byte s =
    let feed () = check Alcotest.int "match-free" 0 (List.length (Hy.feed s chunk)) in
    feed ();
    let w0 = Gc.minor_words () in
    feed ();
    (Gc.minor_words () -. w0) /. 4096.
  in
  let demoted = Hy.of_imfant eng in
  Hy.demote demoted;
  let wpb = words_per_byte (Hy.session demoted) in
  if wpb >= 1. then Alcotest.failf "demoted feed: %.2f minor words per byte" wpb;
  let warm = Hy.of_imfant eng in
  let s = Hy.session warm in
  for _ = 1 to 4 do
    ignore (Hy.feed s chunk)
  done;
  let wpb = words_per_byte s in
  if wpb >= 1. then Alcotest.failf "warm feed: %.2f minor words per byte" wpb

(* -------------------------------------------------------- Streaming *)

let events_list l = List.map (fun e -> (e.Im.fsa, e.Im.end_pos)) l

let run_chunked eng chunks =
  let s = Im.session eng in
  (* Bind in order: [@] would evaluate [finish] before the feeds. *)
  let fed = List.concat_map (fun c -> Im.feed s c) chunks in
  let flushed = Im.finish s in
  events_list (fed @ flushed)

let test_stream_boundary_spanning () =
  let eng = Im.compile (Merge.merge [| fsa_of "hello"; fsa_of "lo wo" |]) in
  let whole = events_list (Im.run eng "say hello world") in
  check Alcotest.(list (pair int int)) "split mid-match" whole
    (run_chunked eng [ "say hel"; "lo wor"; "ld" ]);
  check Alcotest.(list (pair int int)) "byte at a time" whole
    (run_chunked eng (List.init 15 (String.sub "say hello world" |> fun f i -> f i 1)))

let test_stream_positions_are_global () =
  let eng = Im.compile (Merge.merge [| fsa_of "ab" |]) in
  let s = Im.session eng in
  check Alcotest.(list (pair int int)) "first chunk" [ (0, 2) ]
    (events_list (Im.feed s "ab"));
  check Alcotest.int "position" 2 (Im.position s);
  check Alcotest.(list (pair int int)) "second chunk offsets continue" [ (0, 4) ]
    (events_list (Im.feed s "ab"));
  check Alcotest.(list (pair int int)) "finish empty for unanchored" []
    (events_list (Im.finish s))

let test_stream_end_anchored () =
  let anchored =
    Mfsa_automata.Multiplicity.fuse
      (Mfsa_automata.Epsilon.remove
         (Mfsa_automata.Thompson.build (P.parse_exn "ab$")))
  in
  let eng = Im.compile (Merge.merge [| anchored |]) in
  let s = Im.session eng in
  check Alcotest.(list (pair int int)) "no mid-stream report" []
    (events_list (Im.feed s "abab"));
  check Alcotest.(list (pair int int)) "flushed at finish" [ (0, 4) ]
    (events_list (Im.finish s));
  (* If the stream had continued past the match, nothing reports. *)
  let s = Im.session eng in
  ignore (Im.feed s "ab");
  ignore (Im.feed s "x");
  check Alcotest.(list (pair int int)) "invalidated by continuation" []
    (events_list (Im.finish s))

let test_stream_reset () =
  let eng = Im.compile (Merge.merge [| fsa_of "ab" |]) in
  let s = Im.session eng in
  ignore (Im.feed s "ab");
  Im.reset s;
  check Alcotest.int "position reset" 0 (Im.position s);
  check Alcotest.(list (pair int int)) "fresh run" [ (0, 2) ]
    (events_list (Im.feed s "ab"))

let prop_stream_chunking_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"streaming: any chunking = whole-string run"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let fsas =
           Array.of_list
             (List.map
                (fun r ->
                  Mfsa_automata.Multiplicity.fuse
                    (Mfsa_automata.Epsilon.remove
                       (Mfsa_automata.Thompson.build
                          (Mfsa_automata.Simplify.char_classes_rule
                             (Mfsa_automata.Loops.expand_rule r)))))
                rules)
         in
         let eng = Im.compile (Merge.merge fsas) in
         let whole = events_list (Im.run eng input) in
         (* Split deterministically at a third and two thirds. *)
         let n = String.length input in
         let cut a b = String.sub input a (b - a) in
         let chunks = [ cut 0 (n / 3); cut (n / 3) (2 * n / 3); cut (2 * n / 3) n ] in
         let sort = List.sort compare in
         sort (run_chunked eng chunks) = sort whole))

(* ------------------------------------------------------------ Pool *)

let test_pool_runs_all_jobs () =
  let jobs = Array.init 20 (fun i () -> i * i) in
  let r = Pool.run ~threads:4 ~jobs in
  check Alcotest.(array int) "values in order" (Array.init 20 (fun i -> i * i)) r.Pool.values;
  check Alcotest.int "job times recorded" 20 (Array.length r.Pool.job_times);
  check Alcotest.bool "makespan positive" true (r.Pool.makespan >= 0.)

let test_pool_single_thread () =
  let order = ref [] in
  let jobs = Array.init 5 (fun i () -> order := i :: !order) in
  ignore (Pool.run ~threads:1 ~jobs);
  check Alcotest.(list int) "sequential order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_pool_more_threads_than_jobs () =
  let r = Pool.run ~threads:64 ~jobs:(Array.init 3 (fun i () -> i)) in
  check Alcotest.(array int) "all done" [| 0; 1; 2 |] r.Pool.values

let test_pool_zero_jobs () =
  let r = Pool.run ~threads:2 ~jobs:([||] : (unit -> int) array) in
  check Alcotest.int "no values" 0 (Array.length r.Pool.values)

let test_pool_rejects_bad_threads () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Pool.run: need at least one thread") (fun () ->
      ignore (Pool.run ~threads:0 ~jobs:[| (fun () -> ()) |]))

(* The documented contract for raising jobs: the pool drains — every
   other job still executes exactly once — and only then is the
   exception re-raised on the caller. *)
let test_pool_propagates_exception () =
  let ran = Array.make 8 0 in
  let jobs =
    Array.init 8 (fun i () ->
        if i = 3 then failwith "boom"
        else begin
          ran.(i) <- ran.(i) + 1;
          i
        end)
  in
  (match Pool.run ~threads:2 ~jobs with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> check Alcotest.string "propagated" "boom" msg);
  Array.iteri
    (fun i n ->
      check Alcotest.int
        (Printf.sprintf "job %d ran %s" i
           (if i = 3 then "zero times (it raised)" else "once despite the abort"))
        (if i = 3 then 0 else 1)
        n)
    ran;
  (* Same contract when the raising job is the last one handed out. *)
  let tail_ran = ref 0 in
  (match
     Pool.run ~threads:3
       ~jobs:[| (fun () -> incr tail_ran); (fun () -> incr tail_ran);
                (fun () -> failwith "late") |]
   with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> check Alcotest.string "late propagated" "late" msg);
  check Alcotest.int "earlier jobs all ran" 2 !tail_ran

let test_pool_matches_match_sequential () =
  (* Pool execution of MFSAs returns the same counts as sequential. *)
  let rules = [| "abc"; "abd"; "xy"; "a+" |] in
  let fsas = Array.map fsa_of rules in
  let zs = Array.of_list (Merge.merge_groups ~m:2 fsas) in
  let input = "abcabdxyaaa" in
  let engines = Array.map Im.compile zs in
  let sequential = Array.map (fun e -> Im.count e input) engines in
  let pooled = Pool.run ~threads:3 ~jobs:(Array.map (fun e () -> Im.count e input) engines) in
  check Alcotest.(array int) "same counts" sequential pooled.Pool.values

(* -------------------------------------------------------- Schedule *)

let test_schedule_single_thread_sums () =
  check (Alcotest.float 1e-9) "sum" 6. (Schedule.project ~threads:1 [| 1.; 2.; 3. |])

let test_schedule_full_parallel () =
  check (Alcotest.float 1e-9) "max" 3. (Schedule.project ~threads:3 [| 1.; 2.; 3. |]);
  check (Alcotest.float 1e-9) "extra threads idle" 3.
    (Schedule.project ~threads:100 [| 1.; 2.; 3. |])

let test_schedule_greedy_order () =
  (* Jobs 4,3,3 on 2 workers, taken in order: w1←4, w2←3, w2←3 → 6. *)
  check (Alcotest.float 1e-9) "greedy in order" 6.
    (Schedule.project ~threads:2 [| 4.; 3.; 3. |]);
  (* 3,3,4: w1←3, w2←3, w1←4 → 7: in-order greedy is not optimal. *)
  check (Alcotest.float 1e-9) "order sensitivity" 7.
    (Schedule.project ~threads:2 [| 3.; 3.; 4. |])

let test_schedule_empty_and_errors () =
  check (Alcotest.float 1e-9) "empty" 0. (Schedule.project ~threads:4 [||]);
  Alcotest.check_raises "bad threads"
    (Invalid_argument "Schedule.project: need at least one thread") (fun () ->
      ignore (Schedule.project ~threads:0 [| 1. |]));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Schedule.project: negative duration") (fun () ->
      ignore (Schedule.project ~threads:1 [| -1. |]))

let test_schedule_speedup () =
  check (Alcotest.float 1e-9) "perfect 2x" 2.
    (Schedule.speedup ~threads:2 [| 1.; 1.; 1.; 1. |]);
  check (Alcotest.float 1e-9) "empty" 1. (Schedule.speedup ~threads:8 [||])

let test_schedule_best_threads () =
  (* 4 equal jobs: 2 threads reach makespan 2 = target. *)
  check Alcotest.int "reaches with 2" 2
    (Schedule.best_threads_within ~tolerance:0.0 ~target:2. [| 1.; 1.; 1.; 1. |]);
  check Alcotest.int "unreachable caps at n" 4
    (Schedule.best_threads_within ~tolerance:0.0 ~target:0.5 [| 1.; 1.; 1.; 1. |])

let test_schedule_monotone () =
  let times = Array.init 50 (fun i -> float_of_int (1 + (i mod 7))) in
  let prev = ref infinity in
  List.iter
    (fun t ->
      let m = Schedule.project ~threads:t times in
      check Alcotest.bool (Printf.sprintf "T=%d no slower" t) true (m <= !prev +. 1e-9);
      prev := m)
    [ 1; 2; 4; 8; 16; 32 ]

let () =
  Alcotest.run "engine"
    [
      ( "infant",
        [
          Alcotest.test_case "agrees with simulator" `Quick test_infant_agrees_with_simulator;
          Alcotest.test_case "anchors" `Quick test_infant_anchored;
          Alcotest.test_case "count" `Quick test_infant_count;
          Alcotest.test_case "rejects eps" `Quick test_infant_rejects_eps;
          Alcotest.test_case "n_states" `Quick test_infant_n_states;
        ] );
      ( "imfant",
        [
          Alcotest.test_case "single-FSA equals iNFAnt" `Quick
            test_imfant_single_fsa_equals_infant;
          Alcotest.test_case "match ordering" `Quick test_imfant_match_order;
          Alcotest.test_case "count and per-fsa" `Quick test_imfant_count_and_per_fsa;
          Alcotest.test_case "per-FSA anchors" `Quick test_imfant_anchors_per_fsa;
          Alcotest.test_case "active-set stats" `Quick test_imfant_stats;
          Alcotest.test_case "empty input" `Quick test_imfant_empty_input;
          Alcotest.test_case "mfsa accessor" `Quick test_imfant_mfsa_accessor;
          Alcotest.test_case "multi-word total order = hybrid" `Quick
            test_imfant_total_order_multiword;
          Alcotest.test_case "no allocation per byte" `Quick
            test_imfant_no_alloc_per_byte;
          Alcotest.test_case "hybrid: no allocation per byte" `Quick
            test_hybrid_no_alloc_per_byte;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "boundary spanning" `Quick test_stream_boundary_spanning;
          Alcotest.test_case "global positions" `Quick test_stream_positions_are_global;
          Alcotest.test_case "end-anchored at finish" `Quick test_stream_end_anchored;
          Alcotest.test_case "reset" `Quick test_stream_reset;
          prop_stream_chunking_invariant;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all jobs" `Quick test_pool_runs_all_jobs;
          Alcotest.test_case "single thread order" `Quick test_pool_single_thread;
          Alcotest.test_case "more threads than jobs" `Quick test_pool_more_threads_than_jobs;
          Alcotest.test_case "zero jobs" `Quick test_pool_zero_jobs;
          Alcotest.test_case "rejects bad thread count" `Quick test_pool_rejects_bad_threads;
          Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exception;
          Alcotest.test_case "pooled matches = sequential" `Quick
            test_pool_matches_match_sequential;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "single thread sums" `Quick test_schedule_single_thread_sums;
          Alcotest.test_case "full parallelism" `Quick test_schedule_full_parallel;
          Alcotest.test_case "greedy order" `Quick test_schedule_greedy_order;
          Alcotest.test_case "empty and errors" `Quick test_schedule_empty_and_errors;
          Alcotest.test_case "speedup" `Quick test_schedule_speedup;
          Alcotest.test_case "best thread utilisation" `Quick test_schedule_best_threads;
          Alcotest.test_case "monotone in threads" `Quick test_schedule_monotone;
        ] );
    ]
