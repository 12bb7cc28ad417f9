(* Tests for the first-class engine API: registry surface, cross-engine
   agreement through Engine_sig, stats, and the streaming contract of
   every registered engine's native sessions. *)

module P = Mfsa_frontend.Parser
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Im = Mfsa_engine.Imfant
module Engine_sig = Mfsa_engine.Engine_sig
module Registry = Mfsa_engine.Registry
module Tables = Mfsa_engine.Tables
module Source = Mfsa_engine.Source
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

(* Sessions report end-of-stream end-anchored matches last (from
   [finish]), so session and whole-input events compare sorted. *)
let events l =
  List.sort compare
    (List.map (fun e -> (e.Engine_sig.fsa, e.Engine_sig.end_pos)) l)

let builtins = [ "imfant"; "hybrid"; "auto" ]

let contains haystack needle =
  let len = String.length needle in
  let rec scan i =
    i + len <= String.length haystack
    && (String.sub haystack i len = needle || scan (i + 1))
  in
  scan 0

(* ------------------------------------------------- Registry surface *)

let test_names () =
  let names = Registry.names () in
  List.iter
    (fun n ->
      if not (List.mem n names) then
        Alcotest.failf "built-in %S missing from Registry.names" n)
    builtins;
  check Alcotest.(list string) "sorted" (List.sort compare names) names;
  List.iter
    (fun n ->
      (match Registry.find n with
      | Some (module E : Engine_sig.S) ->
          check Alcotest.string "find name matches" n E.name
      | None -> Alcotest.failf "find %S = None" n);
      match Registry.doc n with
      | Some d -> check Alcotest.bool "doc non-empty" true (d <> "")
      | None -> Alcotest.failf "doc %S = None" n)
    names

(* The table holds exactly what a plan can pick; the paper's per-rule
   baselines (infant, dfa, decomposed) and Aho–Corasick are not
   registry engines, so their old names are unknown engines. Runs
   before any test-only registration. *)
let test_exact_builtins () =
  check
    Alcotest.(list string)
    "names = sorted builtins"
    (List.sort String.compare builtins)
    (Registry.names ());
  let z = merge_rules [ "a" ] in
  List.iter
    (fun name ->
      match Registry.compile name (Source.Automata [ z ]) with
      | Error msg ->
          check Alcotest.string
            (name ^ " is an unknown engine")
            (Registry.unknown_message name) msg
      | Ok _ -> Alcotest.failf "%S still compiles" name)
    [ "infant"; "dfa"; "decomposed"; "ac" ]

let test_unknown () =
  check Alcotest.bool "find" true (Option.is_none (Registry.find "warp"));
  (match Registry.find_exn "warp" with
  | exception Invalid_argument msg ->
      check Alcotest.bool "message names the engine" true (contains msg "warp")
  | _ -> Alcotest.fail "find_exn accepted an unknown name");
  (match Registry.compile "warp" (Source.Automata [ merge_rules [ "a" ] ]) with
  | Error msg ->
      check Alcotest.string "shared message" (Registry.unknown_message "warp")
        msg
  | Ok _ -> Alcotest.fail "compile accepted an unknown name")

let test_help_lists_all () =
  let help = Registry.help () in
  List.iter
    (fun n -> if not (contains help n) then Alcotest.failf "help misses %S" n)
    (Registry.names ())

(* A test-only engine that never matches: registering it makes it
   selectable everywhere (latest wins on re-registration). *)
module Null_engine : Engine_sig.S = struct
  let name = "test-null"
  let doc = "test-only engine that never matches"

  type compiled = Mfsa.t

  let of_tables (tb : Tables.t) = tb.Tables.z
  let mfsa z = z
  let run _ _ = []
  let count _ _ = 0
  let count_per_fsa (z : Mfsa.t) _ = Array.make z.Mfsa.n_fsas 0
  let stats _ =
    [
      Mfsa_obs.Snapshot.counter_i
        ~labels:[ ("engine", name) ]
        "mfsa_engine_matches_total" 0;
    ]

  let reset_stats _ = ()

  let reset_counters _ = ()

  type session = { mutable pos : int }

  let session _ = { pos = 0 }

  let feed s chunk =
    s.pos <- s.pos + String.length chunk;
    []

  let finish _ = []
  let reset s = s.pos <- 0
  let position s = s.pos
end

let test_register_custom () =
  Registry.register (module Null_engine);
  let z = merge_rules [ "ab"; "a" ] in
  let eng = Registry.compile_automaton_exn "test-null" z in
  check Alcotest.string "packed name" "test-null" (Engine_sig.name eng);
  check Alcotest.int "no matches" 0 (Engine_sig.count eng "abab");
  let s = Engine_sig.session eng in
  ignore (Engine_sig.feed s "abab");
  check Alcotest.int "position" 4 (Engine_sig.position s);
  check Alcotest.bool "listed" true (List.mem "test-null" (Registry.names ()))

(* ------------------------------------------------ Faulty wrapper *)

module Faulty = Mfsa_engine.Faulty

let test_faulty_resolution () =
  (* The wrapper grammar resolves through find/compile but stays out
     of the plain name table. *)
  (match Registry.find "faulty:imfant" with
  | Some (module E : Engine_sig.S) ->
      check Alcotest.string "wrapper keeps the full spec as its name"
        "faulty:imfant" E.name
  | None -> Alcotest.fail "faulty:imfant did not resolve");
  check Alcotest.bool "wrappers not listed" false
    (List.exists
       (fun n -> contains n "faulty")
       (Registry.names ()));
  check Alcotest.string "underlying strips one wrapper" "imfant"
    (Registry.underlying "faulty{seed=3}:imfant");
  check Alcotest.string "underlying strips nested wrappers" "hybrid"
    (Registry.underlying "faulty:faulty{seed=1}:hybrid");
  check Alcotest.string "underlying is identity elsewhere" "imfant"
    (Registry.underlying "imfant");
  (* Nested wrappers compile. *)
  (match Registry.find "faulty{seed=1}:faulty:imfant" with
  | Some _ -> ()
  | None -> Alcotest.fail "nested faulty wrapper did not resolve");
  check Alcotest.bool "help mentions the wrapper grammar" true
    (contains (Registry.help ()) "faulty")

let test_faulty_malformed () =
  let z = merge_rules [ "a" ] in
  List.iter
    (fun (spec, fragment) ->
      match Registry.compile spec (Source.Automata [ z ]) with
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" spec
      | Error msg ->
          if not (contains msg fragment) then
            Alcotest.failf "error for %S lacks %S: %s" spec fragment msg)
    [
      ("faulty:", "missing inner engine");
      ("faulty{seed=1:imfant", "unterminated");
      ("faulty{seed=one}:imfant", "seed");
      ("faulty{fail=2.0}:imfant", "probability");
      ("faulty{fail_every=-1}:imfant", "non-negative");
      ("faulty{warp=1}:imfant", "unknown parameter");
      ("faulty{seed=1}imfant", "':<engine>'");
      ("faulty:warp", "unknown engine");
    ]

let test_faulty_deterministic_schedule () =
  let z = merge_rules [ "ab" ] in
  let run_schedule () =
    let eng = Registry.compile_automaton_exn "faulty{seed=9,fail_every=3}:imfant" z in
    List.init 12 (fun _ ->
        match Engine_sig.run eng "xabx" with
        | _ -> `Ok
        | exception Faulty.Transient_fault _ -> `Fault)
  in
  let first = run_schedule () in
  check Alcotest.int "every 3rd attempt faults" 4
    (List.length (List.filter (( = ) `Fault) first));
  check Alcotest.bool "same seed, same schedule" true (first = run_schedule ());
  (* Successful attempts behave exactly like the inner engine. *)
  let eng = Registry.compile_automaton_exn "faulty{seed=9,fail_every=2}:imfant" z in
  let reference = events (Engine_sig.run (Registry.compile_automaton_exn "imfant" z) "xabx") in
  check
    Alcotest.(list (pair int int))
    "clean attempt = inner engine" reference
    (events (Engine_sig.run eng "xabx"))

let test_faulty_poison_sticky () =
  let z = merge_rules [ "ab" ] in
  let eng = Registry.compile_automaton_exn "faulty{fail_every=0,poison_every=2}:imfant" z in
  ignore (Engine_sig.run eng "xabx");
  (match Engine_sig.run eng "xabx" with
  | _ -> Alcotest.fail "attempt 2 should poison"
  | exception Faulty.Replica_poisoned _ -> ());
  (* Sticky: every later call fails without advancing the schedule. *)
  (match Engine_sig.run eng "xabx" with
  | _ -> Alcotest.fail "poisoned replica answered"
  | exception Faulty.Replica_poisoned _ -> ());
  let module S = Mfsa_obs.Snapshot in
  let poisoned () =
    S.number
      ~labels:[ ("engine", "faulty{fail_every=0,poison_every=2}:imfant") ]
      (Engine_sig.stats eng) "mfsa_engine_fault_poisoned"
  in
  check Alcotest.(option (float 0.)) "poisoned gauge up" (Some 1.) (poisoned ());
  (* reset_stats restores a fresh replica and replays the schedule —
     the metric-reproducibility contract. *)
  Engine_sig.reset_stats eng;
  check Alcotest.(option (float 0.)) "reset clears poison" (Some 0.)
    (poisoned ());
  (match Engine_sig.run eng "xabx" with
  | _ -> ()
  | exception e ->
      Alcotest.failf "attempt 1 after reset faulted: %s" (Printexc.to_string e))

(* The registry's imfant [run] is what the default engine serves, so
   it takes iMFAnt's literal prefilter like [Imfant.run] does: dead
   stretches are skipped, and the events are still exactly iMFAnt's
   and the activation oracle's. *)
let test_imfant_run_prefiltered () =
  let z = merge_rules [ "hello world"; "he(l|n)p" ] in
  let input =
    String.make 300 'x' ^ "say hello world" ^ String.make 300 'y' ^ "help"
  in
  let im = Im.compile z in
  check Alcotest.bool "literal-covered" true (Im.prefilter im <> None);
  let eng = Registry.compile_automaton_exn "imfant" z in
  let got = events (Engine_sig.run eng input) in
  check Alcotest.(list (pair int int)) "= Imfant.run"
    (events (Im.run im input)) got;
  check Alcotest.(list (pair int int)) "= Activation.run"
    (List.sort compare (Mfsa_model.Activation.run z input)) got;
  check Alcotest.bool "two matches" true (List.length got = 2);
  match
    Mfsa_obs.Snapshot.number ~labels:[ ("engine", "imfant") ]
      (Engine_sig.stats eng) "mfsa_engine_prefilter_skipped_bytes_total"
  with
  | Some n when n > 0. -> ()
  | Some n -> Alcotest.failf "run skipped %g bytes, wanted > 0" n
  | None -> Alcotest.fail "no mfsa_engine_prefilter_skipped_bytes_total"

(* --------------------------------------------- Cross-engine agreement *)

let rules =
  [ "hello world"; "he(l|n)p"; "lo w"; "a(b|c)*d"; "^start"; "end$"; "[0-9]{2}" ]

let inputs =
  [
    "";
    "say hello world and ask for help";
    "start abd acd 42 end";
    "abcbcd12ab";
    "startend";
    "no matches here!";
  ]

let test_all_engines_agree () =
  let z = merge_rules rules in
  let reference = Registry.compile_automaton_exn "imfant" z in
  List.iter
    (fun name ->
      let eng = Registry.compile_automaton_exn name z in
      check Alcotest.string "packed name" name (Engine_sig.name eng);
      List.iter
        (fun input ->
          let expected = events (Engine_sig.run reference input) in
          let got = events (Engine_sig.run eng input) in
          check
            Alcotest.(list (pair int int))
            (Printf.sprintf "%s run on %S" name input)
            expected got;
          check Alcotest.int
            (Printf.sprintf "%s count on %S" name input)
            (List.length expected)
            (Engine_sig.count eng input);
          check
            Alcotest.(array int)
            (Printf.sprintf "%s count_per_fsa on %S" name input)
            (Engine_sig.count_per_fsa reference input)
            (Engine_sig.count_per_fsa eng input))
        inputs)
    builtins

let test_stats_nonempty () =
  let module S = Mfsa_obs.Snapshot in
  let z = merge_rules rules in
  List.iter
    (fun name ->
      let eng = Registry.compile_automaton_exn name z in
      ignore (Engine_sig.run eng "say hello world 42");
      let stats = Engine_sig.stats eng in
      if stats = [] then Alcotest.failf "%s reports no stats" name;
      List.iter
        (fun s ->
          if s.S.name = "" then Alcotest.failf "%s reports an unnamed sample" name;
          if not (String.length s.S.name > 12 && String.sub s.S.name 0 12 = "mfsa_engine_")
          then
            Alcotest.failf "%s sample %s outside the mfsa_engine_ namespace"
              name s.S.name;
          match List.assoc_opt "engine" s.S.labels with
          | Some e when e = name -> ()
          | _ -> Alcotest.failf "%s sample %s lacks engine label" name s.S.name)
        stats;
      Engine_sig.reset_stats eng)
    builtins

(* ------------------------------------------------------- Streaming *)

(* Feeding chunk splits of [input] then finishing must reproduce the
   whole-string run for every registered engine's session. The
   ruleset includes an end-anchored FSA, whose events must only appear
   at finish. *)
let splits input =
  let n = String.length input in
  [
    [ input ];
    [ String.sub input 0 (n / 2); String.sub input (n / 2) (n - (n / 2)) ];
    List.init n (fun i -> String.sub input i 1);
  ]

let test_streaming_equivalence () =
  let z = merge_rules rules in
  let anchored_end = z.Mfsa.anchored_end in
  List.iter
    (fun name ->
      let eng = Registry.compile_automaton_exn name z in
      List.iter
        (fun input ->
          let expected = events (Engine_sig.run eng input) in
          List.iter
            (fun chunks ->
              let s = Engine_sig.session eng in
              let fed =
                List.concat_map
                  (fun chunk ->
                    let evs = Engine_sig.feed s chunk in
                    List.iter
                      (fun e ->
                        if anchored_end.(e.Engine_sig.fsa) then
                          Alcotest.failf
                            "%s reported end-anchored FSA %d before finish"
                            name e.Engine_sig.fsa)
                      evs;
                    evs)
                  chunks
              in
              let flushed = Engine_sig.finish s in
              check Alcotest.int
                (Printf.sprintf "%s position after %d chunks" name
                   (List.length chunks))
                (String.length input) (Engine_sig.position s);
              check
                Alcotest.(list (pair int int))
                (Printf.sprintf "%s streaming %S in %d chunks" name input
                   (List.length chunks))
                expected
                (events (fed @ flushed));
              (* The session survives reset and replays identically. *)
              Engine_sig.reset s;
              check Alcotest.int "position after reset" 0
                (Engine_sig.position s);
              let refed = Engine_sig.feed s input in
              let again = events (refed @ Engine_sig.finish s) in
              check
                Alcotest.(list (pair int int))
                (Printf.sprintf "%s replay after reset" name)
                expected again)
            (splits input))
        [ "say hello world and ask for help"; "start abd 42 end" ])
    builtins

(* ------------------------------------------------- Property: agreement *)

let fsa_of_rule rule =
  Mfsa_automata.Multiplicity.fuse
    (Mfsa_automata.Epsilon.remove
       (Mfsa_automata.Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule
             (Mfsa_automata.Loops.expand_rule rule))))

let prop_engines_agree =
  QCheck2.Test.make ~count:40
    ~name:"registry: every engine matches the imfant reference"
    ~print:Gen_re.print_ruleset_input
    (Gen.pair (Gen_re.ruleset ()) Gen_re.input)
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let reference =
        events (Engine_sig.run (Registry.compile_automaton_exn "imfant" z) input)
      in
      List.for_all
        (fun name ->
          events (Engine_sig.run (Registry.compile_automaton_exn name z) input)
          = reference)
        builtins)

(* The only test that drives [auto]'s own monitor: on TCP the planned
   hybrid's cache churns, so once a monitoring window elapses it
   demotes — exactly once — and every chunk fed afterwards still
   reports iMFAnt's events. *)
let test_auto_demotes_on_tcp () =
  let ds = Option.get (Mfsa_datasets.Datasets.find ~scale:1.0 "TCP") in
  let z =
    match (Mfsa_core.Pipeline.compile_exn ds.rules).mfsas with
    | [ z ] -> z
    | _ -> assert false
  in
  let stream =
    Mfsa_datasets.Stream_gen.generate ~seed:1 ~payload:ds.payload
      ~size:(128 * 1024) ds.rules
  in
  let auto = Registry.compile_automaton_exn "auto" z in
  let demotions () =
    Mfsa_obs.Snapshot.number (Engine_sig.stats auto) "mfsa_engine_demotions_total"
  in
  let s = Engine_sig.session auto in
  let before = ref [] and after = ref [] and demoted_at = ref (-1) in
  for i = 0 to (String.length stream / 2048) - 1 do
    let evs = Engine_sig.feed s (String.sub stream (i * 2048) 2048) in
    if !demoted_at < 0 then begin
      before := evs @ !before;
      if demotions () = Some 1. then demoted_at := (i + 1) * 2048
    end
    else after := evs @ !after
  done;
  let after = !after @ Engine_sig.finish s in
  check Alcotest.(option (float 0.)) "demoted exactly once" (Some 1.) (demotions ());
  check Alcotest.bool "chunks fed after the demotion" true
    (!demoted_at > 0 && !demoted_at < String.length stream);
  check Alcotest.bool "planner reports imfant active" true
    (Mfsa_obs.Snapshot.find
       ~labels:[ ("engine", "auto"); ("planned", "hybrid"); ("active", "imfant") ]
       (Engine_sig.stats auto) "mfsa_engine_planner_choice"
    <> None);
  let reference = Engine_sig.run (Registry.compile_automaton_exn "imfant" z) stream in
  let since_demotion =
    List.filter (fun e -> e.Engine_sig.end_pos > !demoted_at) reference
  in
  check Alcotest.bool "events after the demotion" true (since_demotion <> []);
  check
    Alcotest.(list (pair int int))
    "post-demotion chunks = imfant" (events since_demotion) (events after);
  check
    Alcotest.(list (pair int int))
    "whole stream = imfant" (events reference) (events (!before @ after))

(* The monitor's verdict, pinned per dataset: a fresh [auto] fed 2 KiB
   chunks of a 32 KiB stream keeps its planned hybrid where the cold
   cache hits (BRO, PEN, RG1) and demotes exactly once, when the first
   16 KiB window closes, where it churns (TCP, DS9). *)
let test_auto_verdicts () =
  let chunk = 2048 in
  List.iter
    (fun (abbr, demotes) ->
      let ds = Option.get (Mfsa_datasets.Datasets.find ~scale:1.0 abbr) in
      let z =
        match (Mfsa_core.Pipeline.compile_exn ds.rules).mfsas with
        | [ z ] -> z
        | _ -> assert false
      in
      for seed = 1 to 3 do
        let stream =
          Mfsa_datasets.Stream_gen.generate ~seed ~payload:ds.payload
            ~size:(32 * 1024) ds.rules
        in
        let auto = Registry.compile_automaton_exn "auto" z in
        let demotions () =
          Option.value ~default:0.
            (Mfsa_obs.Snapshot.number (Engine_sig.stats auto)
               "mfsa_engine_demotions_total")
        in
        let s = Engine_sig.session auto in
        let demoted_at = ref None in
        for i = 0 to (String.length stream / chunk) - 1 do
          ignore (Engine_sig.feed s (String.sub stream (i * chunk) chunk));
          if !demoted_at = None && demotions () > 0. then
            demoted_at := Some ((i + 1) * chunk)
        done;
        let what = Printf.sprintf "%s seed %d" abbr seed in
        check
          Alcotest.(option int)
          (what ^ ": demoted at")
          (if demotes then Some (16 * 1024) else None)
          !demoted_at;
        check (Alcotest.float 0.)
          (what ^ ": demotions")
          (if demotes then 1. else 0.)
          (demotions ());
        check Alcotest.bool (what ^ ": planned hybrid") true
          (Mfsa_obs.Snapshot.find
             ~labels:
               [
                 ("engine", "auto");
                 ("planned", "hybrid");
                 ("active", if demotes then "imfant" else "hybrid");
               ]
             (Engine_sig.stats auto) "mfsa_engine_planner_choice"
          <> None)
      done)
    [ ("BRO", false); ("PEN", false); ("RG1", false); ("TCP", true); ("DS9", true) ]

(* A batch call longer than the monitor window is judged inside the
   call: one [count] over 96 KiB of TCP demotes the churning hybrid
   after its first 16 KiB slice, so the cold cache interns at most two
   windows' worth of configurations, and the count is still iMFAnt's. *)
let test_auto_batch_demotes_inside_call () =
  let ds = Option.get (Mfsa_datasets.Datasets.find ~scale:1.0 "TCP") in
  let z =
    match (Mfsa_core.Pipeline.compile_exn ds.rules).mfsas with
    | [ z ] -> z
    | _ -> assert false
  in
  let stream =
    Mfsa_datasets.Stream_gen.generate ~seed:1 ~payload:ds.payload
      ~size:(96 * 1024) ds.rules
  in
  let auto = Registry.compile_automaton_exn "auto" z in
  let imfant = Registry.compile_automaton_exn "imfant" z in
  check Alcotest.int "count = imfant" (Engine_sig.count imfant stream)
    (Engine_sig.count auto stream);
  let number name = Mfsa_obs.Snapshot.number (Engine_sig.stats auto) name in
  check Alcotest.(option (float 0.)) "demoted once, inside the call" (Some 1.)
    (number "mfsa_engine_demotions_total");
  let interned =
    Option.value ~default:0. (number "mfsa_engine_cache_interned_total")
  in
  check Alcotest.bool
    (Printf.sprintf "interned %.0f <= 2 windows" interned)
    true
    (interned <= float_of_int (2 * Mfsa_engine.Planner.demote_window))

(* The sliced batch path keeps the batch order: at the last end
   position an end-anchored match (reported by the session's finish)
   sorts by FSA id among the unanchored ones of the last slice. *)
let test_auto_sliced_run_order () =
  let rules = [| "xab$"; "ab"; "xa" |] in
  let eng name =
    match Registry.compile name (Mfsa_engine.Source.Rules rules) with
    | Ok [ e ] -> e
    | _ -> Alcotest.fail "expected one engine"
  in
  let auto = eng "auto" and imfant = eng "imfant" in
  let input = String.make 40000 'x' ^ "abxab" in
  check Alcotest.bool "planned hybrid" true
    (Mfsa_obs.Snapshot.find
       ~labels:[ ("engine", "auto"); ("planned", "hybrid"); ("active", "hybrid") ]
       (Engine_sig.stats auto) "mfsa_engine_planner_choice"
    <> None);
  let in_order l =
    List.map (fun e -> (e.Engine_sig.fsa, e.Engine_sig.end_pos)) l
  in
  check
    Alcotest.(list (pair int int))
    "run = imfant, in order"
    (in_order (Engine_sig.run imfant input))
    (in_order (Engine_sig.run auto input));
  check Alcotest.(array int) "count_per_fsa = imfant"
    (Engine_sig.count_per_fsa imfant input)
    (Engine_sig.count_per_fsa auto input)

(* A one-rule ruleset whose DFA is exponential: [auto] never
   determinises eagerly, so it plans iMFAnt and comes up at once. *)
let test_auto_blowup_rule () =
  let t0 = Unix.gettimeofday () in
  let eng =
    match Registry.compile "auto" (Mfsa_engine.Source.Rules [| ".*a.{20}" |]) with
    | Ok [ e ] -> e
    | Ok _ -> Alcotest.fail "expected one engine"
    | Error msg -> Alcotest.fail msg
  in
  let n = Engine_sig.count eng ("a" ^ String.make 20 'x') in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.int "matches" 1 n;
  check Alcotest.bool (Printf.sprintf "under 1 s (%.3f s)" dt) true (dt < 1.);
  check Alcotest.bool "planned imfant" true
    (Mfsa_obs.Snapshot.find
       ~labels:[ ("engine", "auto"); ("planned", "imfant"); ("active", "imfant") ]
       (Engine_sig.stats eng) "mfsa_engine_planner_choice"
    <> None)

let () =
  Alcotest.run "registry"
    [
      ( "surface",
        [
          Alcotest.test_case "built-ins registered" `Quick test_names;
          Alcotest.test_case "exactly the built-ins" `Quick
            test_exact_builtins;
          Alcotest.test_case "unknown names" `Quick test_unknown;
          Alcotest.test_case "help lists every engine" `Quick
            test_help_lists_all;
          Alcotest.test_case "custom engine registration" `Quick
            test_register_custom;
        ] );
      ( "faulty",
        [
          Alcotest.test_case "wrapper resolution" `Quick test_faulty_resolution;
          Alcotest.test_case "malformed specs" `Quick test_faulty_malformed;
          Alcotest.test_case "deterministic schedule" `Quick
            test_faulty_deterministic_schedule;
          Alcotest.test_case "poison is sticky until reset" `Quick
            test_faulty_poison_sticky;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "all engines agree" `Quick test_all_engines_agree;
          Alcotest.test_case "stats non-empty" `Quick test_stats_nonempty;
          Alcotest.test_case "imfant run takes the prefilter" `Quick
            test_imfant_run_prefiltered;
          qtest prop_engines_agree;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "chunked = whole-string" `Quick
            test_streaming_equivalence;
        ] );
      ( "auto",
        [
          Alcotest.test_case "demotes once on TCP, then = imfant" `Quick
            test_auto_demotes_on_tcp;
          Alcotest.test_case "verdict at the 16 KiB window close" `Quick
            test_auto_verdicts;
          Alcotest.test_case ".*a.{20} plans imfant at once" `Quick
            test_auto_blowup_rule;
          Alcotest.test_case "a long batch call demotes inside the call"
            `Quick test_auto_batch_demotes_inside_call;
          Alcotest.test_case "sliced run keeps the batch order" `Quick
            test_auto_sliced_run_order;
        ] );
    ]
