(* Unit and property tests for the lazy-DFA hybrid engine: equivalence
   with iMFAnt (whole-string, chunk-local and streaming), bounded-cache
   clock eviction, demotion to an iMFAnt scan and back, and the cache
   instrumentation. *)

module P = Mfsa_frontend.Parser
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Hy = Mfsa_engine.Hybrid

let check = Alcotest.check

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

let merge_rules rules = Merge.merge (Array.of_list (List.map fsa_of rules))

let im_events l = List.map (fun e -> (e.Im.fsa, e.Im.end_pos)) l

let hy_events l = List.map (fun e -> (e.Hy.fsa, e.Hy.end_pos)) l

let sort = List.sort compare

(* Both engines on one automaton; both order events by (end, fsa),
   so equality is on the event lists as returned. *)
let check_equiv ?cache_size msg z inputs =
  let im = Im.compile z in
  let hy = Hy.of_imfant ?cache_size im in
  List.iter
    (fun input ->
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "%s on %S" msg input)
        (im_events (Im.run im input))
        (hy_events (Hy.run hy input)))
    inputs

(* ------------------------------------------------------- Equivalence *)

let test_equals_imfant () =
  check_equiv "plain"
    (merge_rules [ "ab"; "a(b|c)*d"; "[0-9]{2}"; "b" ])
    [ "abcbcd12ab"; ""; "ab"; "999"; "abababab"; "xyz" ]

let test_anchors () =
  check_equiv "anchors"
    (merge_rules [ "^ab"; "ab"; "ab$"; "^ab$" ])
    [ "abab"; "ab"; "xab"; "abx"; "" ]

let test_overlapping_rules () =
  check_equiv "overlap"
    (merge_rules [ "a"; "aa"; "aaa"; "a+b" ])
    [ "aaaa"; "aaab"; "baaa"; "ab" ]

let test_empty_input () =
  let hy = Hy.compile (merge_rules [ "a*"; "b" ]) in
  check Alcotest.int "no matches on empty" 0 (List.length (Hy.run hy ""))

let test_count_and_per_fsa () =
  let z = merge_rules [ "a"; "aa" ] in
  let im = Im.compile z in
  let hy = Hy.of_imfant im in
  let input = "aaa" in
  check Alcotest.int "count" (Im.count im input) (Hy.count hy input);
  check
    Alcotest.(array int)
    "per fsa" (Im.count_per_fsa im input)
    (Hy.count_per_fsa hy input)

let test_run_is_ordered () =
  (* The hybrid's documented order: end position, then FSA id. *)
  let hy = Hy.compile (merge_rules [ "ab"; "b"; "a" ]) in
  let events = hy_events (Hy.run hy "abab") in
  let by_pos =
    List.sort
      (fun (f1, e1) (f2, e2) ->
        if e1 <> e2 then Int.compare e1 e2 else Int.compare f1 f2)
      events
  in
  check Alcotest.(list (pair int int)) "already sorted" by_pos events

let test_mfsa_accessors () =
  let z = merge_rules [ "ab" ] in
  let im = Im.compile z in
  let hy = Hy.of_imfant im in
  check Alcotest.int "same automaton" z.Mfsa.n_states (Hy.mfsa hy).Mfsa.n_states;
  check Alcotest.int "wrapped imfant" z.Mfsa.n_states
    (Im.mfsa (Hy.imfant hy)).Mfsa.n_states

(* ----------------------------------------------------- Bounded cache *)

let test_rejects_bad_cache_size () =
  Alcotest.check_raises "zero cache"
    (Invalid_argument "Hybrid.of_imfant: cache_size < 1") (fun () ->
      ignore (Hy.compile ~cache_size:0 (merge_rules [ "a" ])))

(* A 2-entry cache on a ruleset whose configuration space is much
   larger: correctness must survive constant eviction. Under the
   default clock policy a full cache displaces single rows and never
   drops the table. *)
let test_tiny_cache_still_matches () =
  let z = merge_rules [ "a+b"; "a(b|c)*d"; "[ab]{3}"; "ab$"; "^a" ] in
  let input = "aabacbdabcabdaaabbbacd" in
  let im = Im.compile z in
  let hy = Hy.of_imfant ~cache_size:2 im in
  (* Several passes: evictions must not corrupt later runs either. *)
  for _ = 1 to 3 do
    check
      Alcotest.(list (pair int int))
      "tiny cache equals imfant"
      (sort (im_events (Im.run im input)))
      (sort (hy_events (Hy.run hy input)))
  done;
  let s = Hy.stats hy in
  check Alcotest.bool "evictions happened" true (s.Hy.evictions > 0);
  check Alcotest.int "clock never flushes" 0 s.Hy.flushes;
  check Alcotest.bool "dynamic configs bounded" true
    (s.Hy.resident_configs <= 2 + 2)

let test_stats () =
  let z = merge_rules [ "abc" ] in
  let hy = Hy.compile z in
  let input = "abcabcabc" in
  ignore (Hy.run hy input);
  let s1 = Hy.stats hy in
  check Alcotest.int "steps = bytes" (String.length input) s1.Hy.steps;
  check Alcotest.int "hits + misses = steps" s1.Hy.steps
    (s1.Hy.hits + s1.Hy.misses);
  check Alcotest.bool "interned something" true (s1.Hy.configs_interned > 0);
  check Alcotest.bool "resident includes builtins" true
    (s1.Hy.resident_configs >= 2);
  check Alcotest.bool "bytes positive" true (s1.Hy.cache_bytes > 0);
  (* Second identical pass over a warm cache: all hits. *)
  Hy.reset_stats hy;
  ignore (Hy.run hy input);
  let s2 = Hy.stats hy in
  check Alcotest.int "warm pass misses" 0 s2.Hy.misses;
  check Alcotest.int "warm pass hits" s2.Hy.steps s2.Hy.hits;
  check Alcotest.int "warm pass interns nothing" 0 s2.Hy.configs_interned

(* -------------------------------------------------------- Streaming *)

let hy_chunked hy chunks =
  let s = Hy.session hy in
  let fed = List.concat_map (fun c -> Hy.feed s c) chunks in
  let flushed = Hy.finish s in
  hy_events (fed @ flushed)

let test_stream_equals_whole () =
  let hy = Hy.compile (merge_rules [ "hello"; "lo wo" ]) in
  let whole = hy_events (Hy.run hy "say hello world") in
  check Alcotest.(list (pair int int)) "split mid-match" (sort whole)
    (sort (hy_chunked hy [ "say hel"; "lo wor"; "ld" ]));
  check Alcotest.(list (pair int int)) "byte at a time" (sort whole)
    (sort
       (hy_chunked hy
          (List.init 15 (String.sub "say hello world" |> fun f i -> f i 1))))

let test_stream_end_anchored () =
  let hy = Hy.compile (merge_rules [ "ab$" ]) in
  let s = Hy.session hy in
  check Alcotest.(list (pair int int)) "no mid-stream report" []
    (hy_events (Hy.feed s "abab"));
  check Alcotest.(list (pair int int)) "flushed at finish" [ (0, 4) ]
    (hy_events (Hy.finish s));
  let s = Hy.session hy in
  ignore (Hy.feed s "ab");
  ignore (Hy.feed s "x");
  check Alcotest.(list (pair int int)) "invalidated by continuation" []
    (hy_events (Hy.finish s))

let test_stream_start_anchor_respects_position () =
  (* ^ab must fire only when the stream starts with it, regardless of
     chunking — position 0 is a property of the stream, not the
     chunk. *)
  let hy = Hy.compile (merge_rules [ "^ab" ]) in
  let s = Hy.session hy in
  (* Bind in order: [@] would evaluate the second feed first. *)
  let fst_chunk = Hy.feed s "a" in
  let snd_chunk = Hy.feed s "b" in
  check Alcotest.(list (pair int int)) "first chunk matches" [ (0, 2) ]
    (hy_events (fst_chunk @ snd_chunk));
  check Alcotest.(list (pair int int)) "later ab does not" []
    (hy_events (Hy.feed s "ab"));
  Hy.reset s;
  check Alcotest.int "position reset" 0 (Hy.position s);
  check Alcotest.(list (pair int int)) "fresh stream matches again" [ (0, 2) ]
    (hy_events (Hy.feed s "abx"))

(* The session's end-anchored matches are settled from the last byte
   of each feed. On a warm cache every step is a hit: "ab$" matched at
   the end of the first feed is dropped by the second, reported only
   by [finish] (end 4), and the whole equals [run "abab"]. *)
let test_stream_pending_end_warm () =
  let hy = Hy.compile (merge_rules [ "ab$"; "b" ]) in
  let whole = hy_events (Hy.run hy "abab") in
  ignore (Hy.run hy "abab");
  let misses = (Hy.stats hy).Hy.misses in
  let s = Hy.session hy in
  let fst_feed = Hy.feed s "ab" in
  let snd_feed = Hy.feed s "ab" in
  check Alcotest.(list (pair int int)) "feeds report only b" [ (1, 2); (1, 4) ]
    (hy_events (fst_feed @ snd_feed));
  let fin = Hy.finish s in
  check Alcotest.(list (pair int int)) "ab$ at finish" [ (0, 4) ]
    (hy_events fin);
  check Alcotest.(list (pair int int)) "= run" (sort whole)
    (sort (hy_events (fst_feed @ snd_feed @ fin)));
  check Alcotest.int "all hits" misses (Hy.stats hy).Hy.misses

(* Concurrent sessions share one cache: an eviction forced by either
   one (or by a whole-string [run] on the same engine) must not leave
   the other's state dangling on a reused slot. A 2-entry cache makes
   evictions constant; the interleaving makes every one of them land
   between another session's steps. *)
let test_concurrent_sessions_survive_flushes () =
  let z = merge_rules [ "a+b"; "a(b|c)*d"; "[ab]{3}"; "ab$"; "^a" ] in
  let im = Im.compile z in
  let hy = Hy.of_imfant ~cache_size:2 im in
  let in1 = "aabacbdabcabdaaabbbacd" in
  let in2 = "abbbcadacdabbaacdbbbaaab" in
  let s1 = Hy.session hy and s2 = Hy.session hy in
  let acc1 = ref [] and acc2 = ref [] in
  for i = 0 to max (String.length in1) (String.length in2) - 1 do
    if i < String.length in1 then
      acc1 := List.rev_append (Hy.feed s1 (String.make 1 in1.[i])) !acc1;
    if i < String.length in2 then
      acc2 := List.rev_append (Hy.feed s2 (String.make 1 in2.[i])) !acc2;
    (* Churn the shared cache from outside both sessions too. *)
    if i mod 5 = 0 then ignore (Hy.run hy "acdbab")
  done;
  let ev1 = hy_events (List.rev !acc1 @ Hy.finish s1) in
  let ev2 = hy_events (List.rev !acc2 @ Hy.finish s2) in
  check
    Alcotest.(list (pair int int))
    "session 1 survives foreign flushes"
    (sort (im_events (Im.run im in1)))
    (sort ev1);
  check
    Alcotest.(list (pair int int))
    "session 2 survives foreign flushes"
    (sort (im_events (Im.run im in2)))
    (sort ev2);
  check Alcotest.bool "evictions happened" true
    ((Hy.stats hy).Hy.evictions > 0)

(* A literal ruleset, so demoted passes run iMFAnt's prefilter skip: a
   session demoted and promoted between chunks — mid-literal, in the
   dead configuration, with an end-anchored match pending — reports
   exactly iMFAnt's events, and a demoted [run] does too. *)
let test_demote_promote_mid_stream () =
  let z = merge_rules [ "hello"; "help"; "lo$" ] in
  let im = Im.compile z in
  let hy = Hy.of_imfant im in
  check Alcotest.bool "prefilter is on" true (Im.prefilter im <> None);
  let chunks = [ "xxhe"; "ll"; "oxxh"; "elpx"; "xhel"; "lo" ] in
  let input = String.concat "" chunks in
  let s = Hy.session hy in
  let fed = ref [] in
  List.iteri
    (fun i c ->
      if i mod 2 = 0 then Hy.demote hy else Hy.promote hy;
      fed := List.rev_append (Hy.feed s c) !fed)
    chunks;
  check Alcotest.bool "ends promoted" false (Hy.demoted hy);
  check
    Alcotest.(list (pair int int))
    "session across mode switches"
    (sort (im_events (Im.run im input)))
    (sort (hy_events (List.rev !fed @ Hy.finish s)));
  Hy.demote hy;
  check
    Alcotest.(list (pair int int))
    "demoted run"
    (sort (im_events (Im.run im input)))
    (sort (hy_events (Hy.run hy input)));
  let st = Hy.stats hy in
  check Alcotest.int "demotions counted" 4 st.Hy.demotions;
  check Alcotest.bool "demoted bytes skipped" true (st.Hy.skipped_bytes > 0)

(* ------------------------------------------------------- Properties *)

let build_ruleset rules =
  Merge.merge
    (Array.of_list
       (List.map
          (fun r ->
            Mfsa_automata.Multiplicity.fuse
              (Mfsa_automata.Epsilon.remove
                 (Mfsa_automata.Thompson.build
                    (Mfsa_automata.Simplify.char_classes_rule
                       (Mfsa_automata.Loops.expand_rule r)))))
          rules))

let prop_run_equals_imfant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"hybrid run = imfant run"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let hy = Hy.of_imfant im in
         sort (im_events (Im.run im input)) = sort (hy_events (Hy.run hy input))))

(* Eviction is invisible in the match semantics: clock eviction on a
   2-row cache (every intern past the second displaces a row) and a
   cache big enough never to fill both produce iMFAnt's events. *)
let prop_eviction_equals_imfant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"hybrid clock = unbounded = imfant (cache_size=2)"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let reference = sort (im_events (Im.run im input)) in
         List.for_all
           (fun cache_size ->
             let hy = Hy.of_imfant ~cache_size im in
             sort (hy_events (Hy.run hy input)) = reference)
           [ 2; 1 lsl 16 ]))

let prop_chunked_stream_equals_imfant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"hybrid chunked stream = imfant whole-string run"
       ~print:Gen_re.print_ruleset_input
       QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
       (fun (rules, input) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let hy = Hy.of_imfant im in
         let whole = sort (im_events (Im.run im input)) in
         let n = String.length input in
         let cut a b = String.sub input a (b - a) in
         let chunks =
           [ cut 0 (n / 3); cut (n / 3) (2 * n / 3); cut (2 * n / 3) n ]
         in
         sort (hy_chunked hy chunks) = whole))

let prop_interleaved_sessions_tiny_cache =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"two interleaved sessions, one cache_size=2 engine = imfant"
       ~print:(fun (rules, (in1, in2)) ->
         Printf.sprintf "%s input2=%S"
           (Gen_re.print_ruleset_input (rules, in1))
           in2)
       QCheck2.Gen.(pair (Gen_re.ruleset ()) (pair Gen_re.input Gen_re.input))
       (fun (rules, (in1, in2)) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let hy = Hy.of_imfant ~cache_size:2 im in
         let s1 = Hy.session hy and s2 = Hy.session hy in
         let acc1 = ref [] and acc2 = ref [] in
         for i = 0 to max (String.length in1) (String.length in2) - 1 do
           if i < String.length in1 then
             acc1 := List.rev_append (Hy.feed s1 (String.make 1 in1.[i])) !acc1;
           if i < String.length in2 then
             acc2 := List.rev_append (Hy.feed s2 (String.make 1 in2.[i])) !acc2
         done;
         sort (hy_events (List.rev !acc1 @ Hy.finish s1))
         = sort (im_events (Im.run im in1))
         && sort (hy_events (List.rev !acc2 @ Hy.finish s2))
            = sort (im_events (Im.run im in2))))

(* Demotion is the path only the planner drives: [demote], [promote]
   and [flush] land between the chunks of two live sessions, and
   whole-input [run] and chunk-local [run_chunk] calls on the same
   engine interleave with them, so every mode switch happens with
   state in flight — sessions mid-match, in the dead configuration, at
   position 0. Every result must still be iMFAnt's. *)
let events_of_chunk f =
  let acc = ref [] in
  let carry = f ~on_match:(fun fsa e -> acc := (fsa, e) :: !acc) in
  (sort !acc, carry)

(* Carries are flat configurations: states ascending, each followed
   by its [nw] activation words. Without a prefilter both engines
   inject at every position, so the carries are equal. With one, the
   hybrid still injects at every position and iMFAnt only at literal
   candidates, so the hybrid's carry may hold extra threads — started
   where no required literal begins, so they can never complete a
   match. Those carries must agree on everything a continuation
   observes: iMFAnt's is contained in the hybrid's, and stepping either
   through the rest of the input reports the same matches. *)
let carry_equiv im input ~stop hy_carry im_carry =
  if Im.prefilter im = None then hy_carry = im_carry
  else
    let nw =
      Array.length
        (Mfsa_util.Bitset.words
           (Mfsa_util.Bitset.create (Im.mfsa im).Mfsa.n_fsas))
    in
    let rec contained i j =
      i >= Array.length im_carry
      || j < Array.length hy_carry
         &&
         if hy_carry.(j) <> im_carry.(i) then contained i (j + 1 + nw)
         else
           List.for_all
             (fun w -> im_carry.(i + w) land lnot hy_carry.(j + w) = 0)
             (List.init nw (fun w -> w + 1))
           && contained (i + 1 + nw) (j + 1 + nw)
    in
    let continue carry =
      fst
        (events_of_chunk
           (Im.carry_step im carry input ~start:stop
              ~stop:(String.length input)))
    in
    contained 0 0 && continue hy_carry = continue im_carry

let prop_demotion_between_chunks =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"hybrid demote/promote/flush between chunks = imfant"
       ~print:(fun (rules, (in1, in2), tiny, plan) ->
         Printf.sprintf "%s input2=%S tiny=%b plan=[%s]"
           (Gen_re.print_ruleset_input (rules, in1))
           in2 tiny
           (String.concat ";"
              (List.map (fun (w, op) -> Printf.sprintf "%d/%d" w op) plan)))
       QCheck2.Gen.(
         quad (Gen_re.ruleset ())
           (pair Gen_re.input Gen_re.input)
           bool
           (list_size (int_range 1 24) (pair (int_range 1 5) (int_bound 5))))
       (fun (rules, (in1, in2), tiny, plan) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let hy = Hy.of_imfant ~cache_size:(if tiny then 2 else 4096) im in
         let s1 = Hy.session hy and s2 = Hy.session hy in
         let acc1 = ref [] and acc2 = ref [] in
         let p1 = ref 0 and p2 = ref 0 in
         let ok = ref true in
         let feed s input p acc w =
           let w = min w (String.length input - !p) in
           acc := List.rev_append (Hy.feed s (String.sub input !p w)) !acc;
           p := !p + w
         in
         let apply w = function
           | 0 -> Hy.demote hy
           | 1 -> Hy.promote hy
           | 2 -> Hy.flush hy
           | 3 ->
               ok := !ok && hy_events (Hy.run hy in2) = im_events (Im.run im in2)
           | 4 ->
               (* A window that starts where session 1 stands. *)
               let start = !p1 in
               let stop = min (String.length in1) (start + (2 * w)) in
               let got, c =
                 events_of_chunk (Hy.run_chunk hy in1 ~start ~stop)
               in
               let want, (c', _) =
                 events_of_chunk (Im.run_chunk im in1 ~start ~stop)
               in
               ok := !ok && got = want && carry_equiv im in1 ~stop c c'
           | _ -> ()
         in
         List.iter
           (fun (w, op) ->
             feed s1 in1 p1 acc1 w;
             apply w op;
             feed s2 in2 p2 acc2 w;
             apply w ((op + 3) mod 6))
           plan;
         feed s1 in1 p1 acc1 (String.length in1);
         feed s2 in2 p2 acc2 (String.length in2);
         !ok
         && sort (hy_events (List.rev !acc1 @ Hy.finish s1))
            = sort (im_events (Im.run im in1))
         && sort (hy_events (List.rev !acc2 @ Hy.finish s2))
            = sort (im_events (Im.run im in2))))

(* The hit loop ends its runs at matching edges and misses, and on a
   1- to 3-row cache misses evict mid-chunk, so hit runs keep ending
   on rows that were just reused. Random chunkings of a session (empty
   chunks included), [run] and a whole-input [run_chunk] must all
   report iMFAnt's events, and every step is a hit or a miss after
   every call. *)
let prop_hit_loop_tiny_cache =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"hit loop: chunked session, run, run_chunk = imfant (cache 1-3)"
       ~print:(fun ((rules, input), (cache_size, cuts)) ->
         Printf.sprintf "%s cache_size=%d cuts=[%s]"
           (Gen_re.print_ruleset_input (rules, input))
           cache_size
           (String.concat ";" (List.map string_of_int cuts)))
       QCheck2.Gen.(
         pair
           (pair (Gen_re.ruleset ()) Gen_re.input)
           (pair (int_range 1 3) (list_size (int_range 0 8) (int_bound 6))))
       (fun ((rules, input), (cache_size, cuts)) ->
         let z = build_ruleset rules in
         let im = Im.compile z in
         let hy = Hy.of_imfant ~cache_size im in
         let reference = im_events (Im.run im input) in
         let balanced () =
           let st = Hy.stats hy in
           st.Hy.steps = st.Hy.hits + st.Hy.misses
         in
         let s = Hy.session hy in
         let n = String.length input in
         let fed = ref [] and p = ref 0 and ok = ref true in
         let feed w =
           let w = min w (n - !p) in
           fed := List.rev_append (Hy.feed s (String.sub input !p w)) !fed;
           p := !p + w;
           ok := !ok && balanced ()
         in
         List.iter feed cuts;
         feed n;
         let streamed = sort (hy_events (List.rev !fed @ Hy.finish s)) in
         let ran = hy_events (Hy.run hy input) in
         let ok_run = balanced () in
         let chunked, _ =
           events_of_chunk (Hy.run_chunk hy input ~start:0 ~stop:n)
         in
         !ok && ok_run && balanced ()
         && streamed = sort reference
         && ran = reference
         && chunked = sort reference))

let () =
  Alcotest.run "hybrid"
    [
      ( "equivalence",
        [
          Alcotest.test_case "equals imfant" `Quick test_equals_imfant;
          Alcotest.test_case "per-FSA anchors" `Quick test_anchors;
          Alcotest.test_case "overlapping rules" `Quick test_overlapping_rules;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "count and per-fsa" `Quick test_count_and_per_fsa;
          Alcotest.test_case "event ordering" `Quick test_run_is_ordered;
          Alcotest.test_case "accessors" `Quick test_mfsa_accessors;
        ] );
      ( "cache",
        [
          Alcotest.test_case "rejects bad cache size" `Quick
            test_rejects_bad_cache_size;
          Alcotest.test_case "2-entry cache survives evictions" `Quick
            test_tiny_cache_still_matches;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "chunking equals whole" `Quick
            test_stream_equals_whole;
          Alcotest.test_case "end-anchored at finish" `Quick
            test_stream_end_anchored;
          Alcotest.test_case "end-anchored on a warm cache" `Quick
            test_stream_pending_end_warm;
          Alcotest.test_case "start anchor and reset" `Quick
            test_stream_start_anchor_respects_position;
          Alcotest.test_case "concurrent sessions survive evictions" `Quick
            test_concurrent_sessions_survive_flushes;
          Alcotest.test_case "demote and promote mid-stream" `Quick
            test_demote_promote_mid_stream;
        ] );
      ( "properties",
        [
          prop_run_equals_imfant;
          prop_eviction_equals_imfant;
          prop_chunked_stream_equals_imfant;
          prop_interleaved_sessions_tiny_cache;
          prop_demotion_between_chunks;
          prop_hit_loop_tiny_cache;
        ] );
    ]
