(* Tests for the live-ruleset subsystem: incremental merge
   (Merge.merge_into / Builder), retirement + compaction, and the
   generation-versioned Live handle.

   The correctness anchor throughout: after any interleaving of adds
   and removes, the live matcher's match set equals that of a fresh
   Ruleset.compile over the surviving rules — same (rule, end_pos)
   multiset, rule ids stable across updates. *)

module Nfa = Mfsa_automata.Nfa
module Sim = Mfsa_automata.Simulate
module P = Mfsa_frontend.Parser
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Builder = Mfsa_model.Builder
module Im = Mfsa_engine.Imfant
module Ruleset = Mfsa_core.Ruleset
module Live = Mfsa_live.Live
module Ast = Mfsa_frontend.Ast
module Gen = QCheck2.Gen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let fsa_of src =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule (P.parse_exn src)))))

let pair_events evs = List.map (fun e -> (e.Live.rule, e.Live.end_pos)) evs

(* Fresh-compile oracle: the surviving rules, matched by a one-shot
   Ruleset, reported against the live layer's stable ids. *)
let reference survivors input =
  match survivors with
  | [] -> []
  | _ ->
      let ids = Array.of_list (List.map fst survivors) in
      let rs =
        Ruleset.compile_exn (Array.of_list (List.map snd survivors))
      in
      Ruleset.run rs input
      |> List.map (fun e -> (ids.(e.Ruleset.rule), e.Ruleset.end_pos))

let sorted = List.sort compare

let assert_anchor ?(msg = "live = fresh compile of survivors") lv input =
  check
    Alcotest.(list (pair int int))
    msg
    (sorted (reference (Live.rules lv) input))
    (sorted (pair_events (Live.run lv input)))

(* ------------------------------------------------- Merge.merge_into *)

let test_merge_into_equals_cascade () =
  let pats = [| "hello world"; "hello there"; "he(l|n)p"; "wor[a-z]d" |] in
  let fsas = Array.map fsa_of pats in
  let direct = Merge.merge fsas in
  let incremental =
    Array.fold_left
      (fun z a ->
        match z with
        | None -> Some (Merge.merge [| a |])
        | Some z -> Some (Merge.merge_into z a z.Mfsa.n_fsas))
      None fsas
    |> Option.get
  in
  check Alcotest.int "same fsa count" direct.Mfsa.n_fsas
    incremental.Mfsa.n_fsas;
  check
    Alcotest.(array string)
    "same patterns" direct.Mfsa.patterns incremental.Mfsa.patterns;
  check Alcotest.int "same states" direct.Mfsa.n_states incremental.Mfsa.n_states;
  check Alcotest.int "same transitions" (Mfsa.n_transitions direct)
    (Mfsa.n_transitions incremental);
  let input = "say hello there or hello world and ask for henp or help" in
  let events z =
    List.map (fun e -> (e.Im.fsa, e.Im.end_pos)) (Im.run (Im.compile z) input)
  in
  check
    Alcotest.(list (pair int int))
    "same matches" (events direct) (events incremental)

let test_merge_into_rejects () =
  let z = Merge.merge [| fsa_of "abc" |] in
  Alcotest.check_raises "wrong id"
    (Invalid_argument
       "Merge.merge_into: identifier 3 must be the next free one (1)")
    (fun () -> ignore (Merge.merge_into z (fsa_of "x") 3));
  Alcotest.check_raises "eps arcs"
    (Invalid_argument "Merge.merge_into: automata must be ε-free") (fun () ->
      ignore (Merge.merge_into z (Mfsa_automata.Thompson.build_pattern "a|b") 1))

(* ------------------------------------------------------ Mfsa.retire *)

let battery =
  [ ""; "a"; "ab"; "abc"; "abd"; "abcd"; "xyz"; "ba"; "aabbcc"; "zabcz" ]

let assert_iso ~msg (a : Nfa.t) (p : Nfa.t) =
  check Alcotest.int (msg ^ ": state count") a.Nfa.n_states p.Nfa.n_states;
  check Alcotest.int
    (msg ^ ": transition count")
    (Nfa.n_transitions a) (Nfa.n_transitions p);
  List.iter
    (fun s ->
      check Alcotest.bool
        (Printf.sprintf "%s: lang on %S" msg s)
        (Sim.accepts a s) (Sim.accepts p s))
    battery

let test_retire_preserves_survivor_projections () =
  let pats = [| "abc"; "abd"; "a(b|c)*"; "xyz" |] in
  let fsas = Array.map fsa_of pats in
  let z = Merge.merge fsas in
  (* Retire rule 1: survivors 0, 2, 3 shift to ids 0, 1, 2. *)
  let z' = Option.get (Mfsa.retire z 1) in
  check Alcotest.int "one fewer fsa" 3 z'.Mfsa.n_fsas;
  check
    Alcotest.(array string)
    "patterns shifted" [| "abc"; "a(b|c)*"; "xyz" |] z'.Mfsa.patterns;
  check Alcotest.bool "still valid" true (Mfsa.validate z' = Ok ());
  check Alcotest.bool "no larger" true (z'.Mfsa.n_states <= z.Mfsa.n_states);
  List.iteri
    (fun j' j ->
      assert_iso
        ~msg:(Printf.sprintf "survivor %d" j)
        fsas.(j) (Mfsa.project z' j'))
    [ 0; 2; 3 ];
  (* Retiring everything but one leaves that rule's automaton. *)
  let last =
    List.fold_left
      (fun z _ -> Option.get (Mfsa.retire z 0))
      z' [ (); () ]
  in
  check Alcotest.int "single fsa left" 1 last.Mfsa.n_fsas;
  assert_iso ~msg:"last survivor" fsas.(3) (Mfsa.project last 0);
  check Alcotest.bool "last one cannot retire" true (Mfsa.retire last 0 = None);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mfsa.retire: FSA id out of range") (fun () ->
      ignore (Mfsa.retire z 4))

(* --------------------------------------------------------- Builder *)

let builder_matches b input =
  match Builder.freeze b with
  | None -> []
  | Some (z, slot_of_id) ->
      Im.run (Im.compile z) input
      |> List.map (fun e -> (slot_of_id.(e.Im.fsa), e.Im.end_pos))

let test_builder_retire_compact_roundtrip () =
  let b = Builder.create () in
  let s0 = Builder.add b (fsa_of "hello world") in
  let s1 = Builder.add b (fsa_of "hello there") in
  let s2 = Builder.add b (fsa_of "help") in
  check Alcotest.(list int) "slots in order" [ 0; 1; 2 ] [ s0; s1; s2 ];
  let input = "hello there, hello world, help!" in
  let before = builder_matches b input in
  Builder.retire b s1;
  check Alcotest.int "live count drops" 2 (Builder.n_live b);
  check Alcotest.bool "garbage appeared" true (Builder.dead_transitions b > 0);
  let after_retire = builder_matches b input in
  check
    Alcotest.(list (pair int int))
    "retired slot's matches gone"
    (List.filter (fun (s, _) -> s <> s1) before)
    after_retire;
  let nt_dirty = Builder.n_transitions b in
  let map = Builder.compact b in
  check Alcotest.(list int) "relocation map" [ 0; -1; 1 ]
    (Array.to_list map);
  check Alcotest.int "no dead left" 0 (Builder.dead_transitions b);
  check Alcotest.bool "transitions dropped" true
    (Builder.n_transitions b < nt_dirty);
  let after_compact = builder_matches b input in
  check
    Alcotest.(list (pair int int))
    "same matches under new slots"
    (List.map (fun (s, e) -> (map.(s), e)) after_retire)
    after_compact;
  (* A later add reuses the structure and keeps matching correctly. *)
  let s3 = Builder.add b (fsa_of "hello world!") in
  check Alcotest.int "next slot after compact" 2 s3;
  check Alcotest.bool "new rule matches" true
    (List.exists (fun (s, _) -> s = s3) (builder_matches b (input ^ " hello world!")))

let test_builder_resurrects_dead_structure () =
  let b = Builder.create () in
  let s0 = Builder.add b (fsa_of "abcd") in
  Builder.retire b s0;
  check Alcotest.int "all dead" (Builder.n_transitions b)
    (Builder.dead_transitions b);
  (* The same automaton merges back onto the dead skeleton: no new
     states or transitions, nothing dead anymore. *)
  let nt = Builder.n_transitions b and ns = Builder.n_states b in
  let s1 = Builder.add b (fsa_of "abcd") in
  check Alcotest.int "no new transitions" nt (Builder.n_transitions b);
  check Alcotest.int "no new states" ns (Builder.n_states b);
  check Alcotest.int "no dead left" 0 (Builder.dead_transitions b);
  check
    Alcotest.(list (pair int int))
    "matches back" [ (s1, 4) ]
    (builder_matches b "abcd")

(* ------------------------------------------------------ Live basics *)

let test_live_add_and_match () =
  let lv = Live.create () in
  check Alcotest.int "gen 0" 0 (Live.generation lv);
  check Alcotest.(list (pair int int)) "empty run" [] (pair_events (Live.run lv "abc"));
  let r0 = Live.add_rule_exn lv "hello world" in
  let r1 = Live.add_rule_exn lv "hello there" in
  let r2 = Live.add_rule_exn lv "he(l|n)p" in
  check Alcotest.(list int) "stable ids in order" [ 0; 1; 2 ] [ r0; r1; r2 ];
  check Alcotest.int "three updates" 3 (Live.generation lv);
  check Alcotest.int "three rules" 3 (Live.n_rules lv);
  assert_anchor lv "say hello there or hello world and ask for henp or help"

let test_live_remove_is_immediate_and_ids_stable () =
  let lv =
    Result.get_ok
      (Live.of_rules [| "hello world"; "hello there"; "he(l|n)p" |])
  in
  let input = "say hello there or hello world and ask for henp" in
  check Alcotest.bool "rule 1 matches before" true
    (List.mem_assoc 1 (pair_events (Live.run lv input)));
  check Alcotest.bool "removed" true (Live.remove_rule lv 1);
  check Alcotest.bool "rule 1 gone" false
    (List.mem_assoc 1 (pair_events (Live.run lv input)));
  check Alcotest.bool "other ids unchanged" true
    (List.mem_assoc 0 (pair_events (Live.run lv input))
    && List.mem_assoc 2 (pair_events (Live.run lv input)));
  assert_anchor lv input;
  check Alcotest.bool "double remove refused" false (Live.remove_rule lv 1);
  check Alcotest.bool "unknown id refused" false (Live.remove_rule lv 99);
  (* New rules never reuse a retired id. *)
  let r3 = Live.add_rule_exn lv "hel+o" in
  check Alcotest.int "fresh id" 3 r3;
  assert_anchor lv input

let test_live_remove_last_rule () =
  let lv = Result.get_ok (Live.of_rules [| "abc" |]) in
  check Alcotest.bool "removed" true (Live.remove_rule lv 0);
  check Alcotest.int "no rules" 0 (Live.n_rules lv);
  check Alcotest.(list (pair int int)) "no matches" []
    (pair_events (Live.run lv "abcabc"));
  let r = Live.add_rule_exn lv "abc" in
  check Alcotest.int "id not reused" 1 r;
  check Alcotest.(list (pair int int)) "matches again"
    [ (1, 3); (1, 6) ]
    (pair_events (Live.run lv "abcabc"))

let test_live_bad_rule_leaves_ruleset_untouched () =
  let lv = Result.get_ok (Live.of_rules [| "abc" |]) in
  let gen = Live.generation lv in
  (match Live.add_rule lv "(broken" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  check Alcotest.int "generation unchanged" gen (Live.generation lv);
  check Alcotest.int "rules unchanged" 1 (Live.n_rules lv);
  assert_anchor lv "abcabc";
  (* The _exn form raises the typed error, not an anonymous Failure —
     serving layers match on it to reject the update and keep the old
     generation live, exactly as just verified above. *)
  (match Live.add_rule_exn lv "(broken" with
  | exception Mfsa_core.Pipeline.Compile_error e ->
      check Alcotest.string "typed message" "at offset 0: unmatched '('"
        e.Mfsa_core.Pipeline.message
  | _ -> Alcotest.fail "expected Compile_error");
  check Alcotest.int "generation still unchanged" gen (Live.generation lv);
  assert_anchor lv "abcabc";
  (* Both rejections are on the books, tagged with the generation. *)
  let module S = Mfsa_obs.Snapshot in
  let m = Live.metrics lv in
  check
    Alcotest.(option (float 1e-9))
    "rejected counter" (Some 2.)
    (S.number ~labels:[ ("result", "rejected"); ("generation", string_of_int gen) ]
       m "mfsa_live_updates_total");
  check
    Alcotest.(option (float 1e-9))
    "ok counter" (Some 1.)
    (S.number ~labels:[ ("result", "ok"); ("generation", string_of_int gen) ]
       m "mfsa_live_updates_total")

let test_live_gc_threshold () =
  (* Threshold 0: every removal compacts; no garbage survives. *)
  let eager =
    Result.get_ok (Live.of_rules ~gc_threshold:0. [| "abcx"; "abcy"; "abcz" |])
  in
  ignore (Live.remove_rule eager 1);
  let s = Live.stats eager in
  check Alcotest.int "eager: compacted once" 1 s.Live.compactions;
  check Alcotest.int "eager: no dead transitions" 0 s.Live.dead_transitions;
  assert_anchor eager "abcx abcy abcz";
  (* Threshold 1: removals never compact on their own. *)
  let lazy_lv =
    Result.get_ok (Live.of_rules ~gc_threshold:1. [| "abcx"; "abcy"; "abcz" |])
  in
  ignore (Live.remove_rule lazy_lv 0);
  ignore (Live.remove_rule lazy_lv 1);
  let s = Live.stats lazy_lv in
  check Alcotest.int "lazy: never compacted" 0 s.Live.compactions;
  check Alcotest.bool "lazy: garbage accumulates" true (s.Live.dead_transitions > 0);
  assert_anchor lazy_lv "abcx abcy abcz";
  (* Forced compaction drops it and preserves matching. *)
  Live.compact lazy_lv;
  let s = Live.stats lazy_lv in
  check Alcotest.int "forced compaction" 1 s.Live.compactions;
  check Alcotest.int "garbage gone" 0 s.Live.dead_transitions;
  assert_anchor lazy_lv "abcx abcy abcz";
  Alcotest.check_raises "threshold range"
    (Invalid_argument "Live.create: gc_threshold must be within [0, 1]")
    (fun () -> ignore (Live.create ~gc_threshold:1.5 ()))

let test_live_snapshot_pins_generation () =
  let lv = Result.get_ok (Live.of_rules [| "abc"; "xyz" |]) in
  let snap = Live.snapshot lv in
  ignore (Live.remove_rule lv 0);
  let input = "abc xyz" in
  (* The snapshot still matches the removed rule; the handle does not. *)
  check Alcotest.bool "snapshot keeps rule 0" true
    (List.exists
       (fun e -> e.Live.rule = 0)
       (Live.snapshot_run snap input));
  check Alcotest.bool "handle dropped rule 0" false
    (List.exists (fun e -> e.Live.rule = 0) (Live.run lv input));
  check Alcotest.int "snapshot generation" 0 (Live.snapshot_generation snap);
  check Alcotest.int "current generation" 1
    (Live.snapshot_generation (Live.snapshot lv))

(* ----------------------------------------------- Live streaming *)

let feed_all s chunks =
  List.concat_map (fun c -> Live.feed s c) chunks @ Live.finish s

let test_session_generation_swap () =
  let lv = Result.get_ok (Live.of_rules [| "abc" |]) in
  let s = Live.session lv in
  check Alcotest.int "session pinned at open" 0 (Live.session_generation s);
  (* Mid-stream updates do not disturb the session... *)
  let m1 = Live.feed s "ab" in
  let r1 = Live.add_rule_exn lv "bca" in
  let m2 = Live.feed s "cab" in
  check Alcotest.(list (pair int int)) "old generation matches"
    [ (0, 3) ]
    (pair_events (m1 @ m2));
  check Alcotest.bool "new rule invisible before reset" true
    (not (List.exists (fun e -> e.Live.rule = r1) m2));
  check Alcotest.int "still the opening generation" 0
    (Live.session_generation s);
  (* ...and reset swaps to the current one. *)
  Live.reset s;
  check Alcotest.int "reset re-pins" (Live.generation lv)
    (Live.session_generation s);
  check Alcotest.int "position rewinds" 0 (Live.position s);
  let m = feed_all s [ "ab"; "cab"; "ca" ] in
  check
    Alcotest.(list (pair int int))
    "both rules on new generation"
    [ (0, 3); (0, 6); (1, 4); (1, 7) ]
    (sorted (pair_events m))

let test_session_on_empty_ruleset () =
  let lv = Live.create () in
  let s = Live.session lv in
  check Alcotest.(list (pair int int)) "no matches" []
    (pair_events (feed_all s [ "abc"; "def" ]));
  check Alcotest.int "position tracked" 6 (Live.position s);
  ignore (Live.add_rule_exn lv "def");
  Live.reset s;
  check Alcotest.(list (pair int int)) "matches after reset"
    [ (0, 6) ]
    (pair_events (feed_all s [ "abc"; "def" ]))

(* ----------------------------------------------- Engine selection *)

(* A rule whose DFA is exponential, added to a running [auto]
   ruleset: the next generation plans iMFAnt and answers at once
   instead of determinising. *)
let test_live_auto_blowup_rule () =
  let lv = Live.create ~engine:"auto" () in
  let t0 = Unix.gettimeofday () in
  ignore (Live.add_rule_exn lv ".*a.{20}" : int);
  let n = Live.count lv ("a" ^ String.make 20 'x') in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.int "matches" 1 n;
  check Alcotest.bool (Printf.sprintf "under 1 s (%.3f s)" dt) true (dt < 1.);
  check
    Alcotest.(option string)
    "planned imfant" (Some "imfant")
    (Option.bind
       (Mfsa_obs.Snapshot.find (Live.metrics lv) "mfsa_engine_planner_choice")
       (fun s -> List.assoc_opt "planned" s.Mfsa_obs.Snapshot.labels))

let test_live_hybrid_engine () =
  let rules = [| "hello world"; "he(l|n)p"; "lo w" |] in
  let mk engine = Result.get_ok (Live.of_rules ~engine rules) in
  let li = mk "imfant" in
  let lh = mk "hybrid" in
  Alcotest.(check string) "engine name" "hybrid" (Live.engine lh);
  (match Live.of_rules ~engine:"warp" rules with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown engine accepted");
  let input = "say hello world and ask for help" in
  check
    Alcotest.(list (pair int int))
    "hybrid run = imfant run"
    (pair_events (Live.run li input))
    (pair_events (Live.run lh input));
  assert_anchor lh input;
  (* Updates keep the engine choice: the new generation's snapshot
     matches identically. *)
  ignore (Live.add_rule_exn lh "wor+ld");
  assert_anchor lh input;
  ignore (Live.remove_rule lh 0);
  assert_anchor lh input;
  (* Streaming through the hybrid-backed session. *)
  let s = Live.session lh in
  let fed = pair_events (feed_all s [ "say hello wo"; "rld and ask for help" ]) in
  let flushed = pair_events (Live.finish s) in
  check
    Alcotest.(list (pair int int))
    "hybrid streaming = whole-string run"
    (sorted (pair_events (Live.run lh input)))
    (sorted (fed @ flushed))

(* ------------------------------------------------- Property tests *)

(* Apply a random interleaving of adds and removes driven by [moves]:
   even draws add the next unused rule, odd draws remove a random live
   one (falling back to the other action when the pool/ruleset is
   exhausted). *)
let apply_ops lv pool moves =
  let pool = ref pool in
  List.iter
    (fun v ->
      let live = Live.rules lv in
      let add () =
        match !pool with
        | [] -> ()
        | p :: rest ->
            pool := rest;
            (* Generated rules always parse: ignore the id. *)
            ignore (Live.add_rule_exn lv p)
      in
      let remove () =
        match live with
        | [] -> add ()
        | _ ->
            let id, _ = List.nth live (v / 2 mod List.length live) in
            ignore (Live.remove_rule lv id)
      in
      if v mod 2 = 0 && !pool <> [] then add () else remove ())
    moves

let ops_gen =
  Gen.quad
    (Gen_re.ruleset ~max_rules:5 ())
    (Gen_re.ruleset ~max_rules:5 ())
    (Gen.list_size (Gen.int_range 1 8) (Gen.int_range 0 1000))
    Gen_re.input

let print_ops (initial, extra, moves, input) =
  Printf.sprintf "initial=%s extra=%s moves=[%s] input=%S"
    (String.concat ";" (List.map Gen_re.print_rule initial))
    (String.concat ";" (List.map Gen_re.print_rule extra))
    (String.concat ";" (List.map string_of_int moves))
    input

let patterns_of rules = List.map (fun r -> r.Ast.pattern) rules

(* The anchor invariant: any interleaving of adds and removes ends up
   matching exactly like a fresh compile of the survivors. *)
let prop_interleaving_equals_fresh_compile =
  QCheck2.Test.make ~count:60
    ~name:"ANCHOR: add/remove interleaving = fresh compile of survivors"
    ~print:print_ops ops_gen
    (fun (initial, extra, moves, input) ->
      let gc_threshold =
        match moves with v :: _ -> float_of_int (v mod 5) /. 4. | [] -> 0.25
      in
      let lv =
        Result.get_ok
          (Live.of_rules ~gc_threshold
             (Array.of_list (patterns_of initial)))
      in
      apply_ops lv (patterns_of extra) moves;
      sorted (reference (Live.rules lv) input)
      = sorted (pair_events (Live.run lv input)))

(* Chunked feeding across a generation boundary: an arbitrary split of
   the input fed after a reset behaves exactly like a one-shot run on
   the new generation. *)
let prop_chunked_feed_across_generations =
  QCheck2.Test.make ~count:60
    ~name:"feed of arbitrary splits across reset = one-shot run"
    ~print:print_ops ops_gen
    (fun (initial, extra, moves, input) ->
      let lv =
        Result.get_ok (Live.of_rules (Array.of_list (patterns_of initial)))
      in
      let s = Live.session lv in
      (* Stream on the opening generation, one-shot oracle on it too. *)
      let opening = pair_events (feed_all s [ input ]) in
      let opening_ok = sorted opening = sorted (pair_events (Live.run lv input)) in
      (* Mutate, then reset: the session must match the new generation
         exactly, however the input is split into chunks. *)
      apply_ops lv (patterns_of extra) moves;
      Live.reset s;
      let n = String.length input in
      let cuts =
        List.sort_uniq Int.compare
          (0 :: n :: List.map (fun v -> if n = 0 then 0 else v mod (n + 1)) moves)
      in
      let rec chunks = function
        | a :: (b :: _ as rest) -> String.sub input a (b - a) :: chunks rest
        | _ -> []
      in
      let streamed = pair_events (feed_all s (chunks cuts)) in
      opening_ok
      && sorted streamed = sorted (pair_events (Live.run lv input))
      && sorted streamed = sorted (reference (Live.rules lv) input))

let () =
  Alcotest.run "live"
    [
      ( "merge-into",
        [
          Alcotest.test_case "incremental = cascaded merge" `Quick
            test_merge_into_equals_cascade;
          Alcotest.test_case "rejections" `Quick test_merge_into_rejects;
        ] );
      ( "retire",
        [
          Alcotest.test_case "survivor projections preserved" `Quick
            test_retire_preserves_survivor_projections;
        ] );
      ( "builder",
        [
          Alcotest.test_case "retire + compact roundtrip" `Quick
            test_builder_retire_compact_roundtrip;
          Alcotest.test_case "dead structure is resurrected" `Quick
            test_builder_resurrects_dead_structure;
        ] );
      ( "live",
        [
          Alcotest.test_case "add and match" `Quick test_live_add_and_match;
          Alcotest.test_case "remove is immediate, ids stable" `Quick
            test_live_remove_is_immediate_and_ids_stable;
          Alcotest.test_case "remove last rule" `Quick test_live_remove_last_rule;
          Alcotest.test_case "bad rule rejected atomically" `Quick
            test_live_bad_rule_leaves_ruleset_untouched;
          Alcotest.test_case "gc threshold" `Quick test_live_gc_threshold;
          Alcotest.test_case "snapshots pin generations" `Quick
            test_live_snapshot_pins_generation;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "generation swap on reset" `Quick
            test_session_generation_swap;
          Alcotest.test_case "empty ruleset" `Quick test_session_on_empty_ruleset;
          Alcotest.test_case "hybrid engine selection" `Quick
            test_live_hybrid_engine;
          Alcotest.test_case "auto plans imfant for .*a.{20}" `Quick
            test_live_auto_blowup_rule;
        ] );
      ( "properties",
        [
          qtest prop_interleaving_equals_fresh_compile;
          qtest prop_chunked_feed_across_generations;
        ] );
    ]
