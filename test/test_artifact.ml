(* Compiled-artifact persistence: round-trip fidelity, corruption
   handling and the committed-fixture compatibility gate.

   The load path must be behaviourally indistinguishable from a fresh
   compile — same match counts from every engine on any input — while
   a damaged file of any kind (truncated, bit-flipped,
   future-versioned, not an artifact at all) must surface as a typed
   [Artifact.Error], never an escape of some internal exception. *)

module Artifact = Mfsa_artifact.Artifact
module Pipeline = Mfsa_core.Pipeline
module Registry = Mfsa_engine.Registry
module Engine_sig = Mfsa_engine.Engine_sig
module Source = Mfsa_engine.Source
module Tables = Mfsa_engine.Tables
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge

let rules =
  [| "hello world"; "hello there"; "he(l|n)p"; "ab[cd]e*f"; "^start"; "end$" |]

let stream = "say hello there or hello world and ask for henp or help"

let compile patterns = (Pipeline.compile_exn patterns).Pipeline.mfsas
let artifact patterns = Artifact.to_string (Artifact.export (compile patterns))
let counts engines input = List.map (fun e -> Engine_sig.count e input) engines

let has_section info tag =
  List.exists
    (fun si -> String.starts_with ~prefix:tag si.Artifact.si_name)
    info.Artifact.in_sections

(* ------------------------------------------------------ round trips *)

(* Every engine is built from a table bundle, so every registered name
   and both wrappers run an artifact as they run its rules: the same
   events and the same per-FSA counts. *)
let test_round_trip_counts () =
  let art = artifact rules in
  let build engine source = Result.get_ok (Registry.compile engine source) in
  let events e =
    List.map
      (fun ev -> (ev.Engine_sig.fsa, ev.Engine_sig.end_pos))
      (Engine_sig.run e stream)
  in
  List.iter
    (fun engine ->
      let direct = build engine (Source.Rules rules) in
      let loaded = build engine (Source.Artifact_bytes art) in
      Alcotest.(check (list (list (pair int int))))
        (engine ^ ": artifact events = rules events")
        (List.map events direct) (List.map events loaded);
      Alcotest.(check (list (array int)))
        (engine ^ ": artifact per-FSA counts = rules counts")
        (List.map (fun e -> Engine_sig.count_per_fsa e stream) direct)
        (List.map (fun e -> Engine_sig.count_per_fsa e stream) loaded))
    (Registry.names ()
    @ [
        "faulty{seed=1,fail_every=0}:imfant";
        "sfa{domains=2,threshold=1}:hybrid";
      ])

let test_round_trip_structure () =
  let mfsas = compile rules in
  let loaded = Artifact.of_string (Artifact.to_string (Artifact.export mfsas)) in
  Alcotest.(check int) "bundle count" (List.length mfsas) (List.length loaded);
  List.iter2
    (fun z (tb : Tables.t) ->
      let z' = tb.Tables.z in
      Alcotest.(check int) "states" z.Mfsa.n_states z'.Mfsa.n_states;
      Alcotest.(check int) "fsas" z.Mfsa.n_fsas z'.Mfsa.n_fsas;
      Alcotest.(check int) "transitions" (Mfsa.n_transitions z)
        (Mfsa.n_transitions z');
      Alcotest.(check (array string)) "patterns" z.Mfsa.patterns z'.Mfsa.patterns)
    mfsas loaded;
  let info = Artifact.describe_string (Artifact.to_string (Artifact.export mfsas)) in
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        ("a fresh export has no " ^ tag ^ " section")
        false (has_section info tag))
    [ "CSR"; "INI" ]

let test_save_load_file () =
  let path = Filename.temp_file "mfsa_artifact" ".mfsa" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let mfsas = compile rules in
      Artifact.save path (Artifact.export mfsas);
      let loaded = Artifact.load path in
      let direct = List.map (Registry.compile_automaton_exn "imfant") mfsas in
      let reloaded = List.map (Registry.compile_tables_exn "imfant") loaded in
      Alcotest.(check (list int))
        "file round trip" (counts direct stream) (counts reloaded stream);
      Alcotest.(check bool) "sniffer accepts" true (Source.is_artifact_file path))

let test_describe () =
  let art = artifact rules in
  let info = Artifact.describe_string art in
  Alcotest.(check int) "version" Artifact.version info.Artifact.in_version;
  Alcotest.(check int) "bytes" (String.length art) info.Artifact.in_bytes;
  Alcotest.(check int) "mfsas" 1 info.Artifact.in_mfsas;
  Alcotest.(check (array int))
    "rules" [| Array.length rules |] info.Artifact.in_rules;
  Alcotest.(check bool) "has sections" true (info.Artifact.in_sections <> [])

(* ------------------------------------------------------- corruption *)

let typed_error what f =
  match f () with
  | (_ : Tables.t list) ->
      Alcotest.failf "%s: expected a typed Artifact error" what
  | exception Artifact.Error e -> e
  | exception e ->
      Alcotest.failf "%s: escaped with %s instead of Artifact.Error" what
        (Printexc.to_string e)

let test_bad_magic () =
  (match typed_error "garbage" (fun () -> Artifact.of_string "not an artifact")
   with
  | Artifact.Bad_magic -> ()
  | e -> Alcotest.failf "wanted Bad_magic, got %s" (Artifact.error_to_string e));
  let art = Bytes.of_string (artifact rules) in
  Bytes.set art 0 'X';
  match
    typed_error "flipped magic" (fun () ->
        Artifact.of_string (Bytes.to_string art))
  with
  | Artifact.Bad_magic -> ()
  | e -> Alcotest.failf "wanted Bad_magic, got %s" (Artifact.error_to_string e)

let test_bad_version () =
  let art = Bytes.of_string (artifact rules) in
  (* The u32 version word sits right after the 8-byte magic. *)
  Bytes.set_int32_le art 8 99l;
  match
    typed_error "future version" (fun () ->
        Artifact.of_string (Bytes.to_string art))
  with
  | Artifact.Bad_version 99 -> ()
  | e ->
      Alcotest.failf "wanted Bad_version 99, got %s" (Artifact.error_to_string e)

let test_truncated () =
  let art = artifact rules in
  List.iter
    (fun keep ->
      match
        typed_error
          (Printf.sprintf "truncated to %d bytes" keep)
          (fun () -> Artifact.of_string (String.sub art 0 keep))
      with
      | Artifact.Truncated _ | Artifact.Bad_magic -> ()
      | e ->
          Alcotest.failf "truncation to %d: wanted Truncated, got %s" keep
            (Artifact.error_to_string e))
    [ 4; 12; 40; String.length art / 2; String.length art - 1 ]

let test_checksum () =
  let art = Bytes.of_string (artifact rules) in
  (* Flip one payload byte (the last byte lives in the final section);
     the checksum pass must catch it before structural parsing. *)
  let last = Bytes.length art - 1 in
  Bytes.set art last (Char.chr (Char.code (Bytes.get art last) lxor 0x40));
  match
    typed_error "bit flip" (fun () -> Artifact.of_string (Bytes.to_string art))
  with
  | Artifact.Checksum _ -> ()
  | e -> Alcotest.failf "wanted Checksum, got %s" (Artifact.error_to_string e)

let test_io_error () =
  match Artifact.load "/nonexistent/artifact.mfsa" with
  | (_ : Tables.t list) -> Alcotest.fail "expected Io error"
  | exception Artifact.Error (Artifact.Io _) -> ()
  | exception e -> Alcotest.failf "wanted Io, got %s" (Printexc.to_string e)

(* ---------------------------------------------------------- fixture *)

(* Both fixtures hold the three-rule CLI-walkthrough ruleset. Every
   engine must adopt a fixture with the per-rule counts
   of a fresh compile of those rules. *)
let fixture_rules = [| "hello world"; "hello there"; "he(l|n)p" |]

let check_fixture_counts loaded =
  let fresh = compile fixture_rules in
  List.iter
    (fun engine ->
      let direct = List.map (Registry.compile_automaton_exn engine) fresh in
      let reloaded = List.map (Registry.compile_tables_exn engine) loaded in
      Alcotest.(check (list (array int)))
        (engine ^ ": per-rule counts = fresh compile")
        (List.map (fun e -> Engine_sig.count_per_fsa e stream) direct)
        (List.map (fun e -> Engine_sig.count_per_fsa e stream) reloaded))
    (Registry.names ())

(* test/fixtures/artifact_v1.mfsa is a committed version-1 artifact,
   written when META's reserved byte still carried a hybrid stride of
   2 and the writer still emitted the CSR and INI sections, which the
   reader now checksums and ignores. A format change that cannot read
   it any more must bump [Artifact.version] and consciously handle (or
   reject) version 1 — this test is the tripwire. *)
let fixture_path = "fixtures/artifact_v1.mfsa"

let test_fixture_loads () =
  check_fixture_counts (Artifact.load fixture_path);
  let info = Artifact.describe fixture_path in
  Alcotest.(check int) "fixture version" 1 info.Artifact.in_version;
  Alcotest.(check bool) "fixture stores INI" true (has_section info "INI");
  Alcotest.(check bool) "fixture stores CSR" true (has_section info "CSR")

(* test/fixtures/artifact_v2_tuned.mfsa is a version-2 artifact of the
   same three rules, written with the literal prefilter switched off and
   a hybrid cache size of 16 stored in META — knobs that no longer
   exist. It carries no PFX section, its stored cache size is ignored,
   and so is its INI section. It must load under every engine with
   the per-rule counts of a fresh compile, and [auto] must plan the
   hybrid from it, as it does from the rules. *)
let tuned_fixture_path = "fixtures/artifact_v2_tuned.mfsa"

let test_tuned_fixture_loads () =
  let loaded = Artifact.load tuned_fixture_path in
  check_fixture_counts loaded;
  let info = Artifact.describe tuned_fixture_path in
  Alcotest.(check int) "fixture version" 2 info.Artifact.in_version;
  Alcotest.(check bool) "fixture stores INI" true (has_section info "INI");
  Alcotest.(check bool) "no prefilter stored" false
    info.Artifact.in_prefiltered.(0);
  let auto = Registry.compile_tables_exn "auto" (List.hd loaded) in
  Alcotest.(check bool) "auto plans hybrid" true
    (Mfsa_obs.Snapshot.find
       ~labels:[ ("engine", "auto"); ("planned", "hybrid"); ("active", "hybrid") ]
       (Engine_sig.stats auto) "mfsa_engine_planner_choice"
    <> None)

(* ------------------------------------------------------- properties *)

let fsa_of_rule rule =
  let module A = Mfsa_automata in
  A.Multiplicity.fuse
    (A.Epsilon.remove
       (A.Thompson.build
          (A.Simplify.char_classes_rule (A.Loops.expand_rule rule))))

let prop_round_trip =
  QCheck2.Test.make ~count:60
    ~name:"PERSIST: load(save(compile rs)) = compile rs, every engine"
    ~print:Gen_re.print_ruleset_input
    QCheck2.Gen.(pair (Gen_re.ruleset ()) Gen_re.input)
    (fun (rs, input) ->
      let z = Merge.merge (Array.of_list (List.map fsa_of_rule rs)) in
      let loaded =
        Artifact.of_string (Artifact.to_string (Artifact.export [ z ]))
      in
      List.for_all
        (fun engine ->
          let direct = [ Registry.compile_automaton_exn engine z ] in
          let reloaded = List.map (Registry.compile_tables_exn engine) loaded in
          counts direct input = counts reloaded input)
        (Registry.names ()))

let prop_corrupt_byte_is_typed =
  let base = artifact [| "abc"; "ab[cd]" |] in
  QCheck2.Test.make ~count:120
    ~name:"PERSIST: any single-byte corruption yields a typed error"
    QCheck2.Gen.(pair small_nat (int_range 1 255))
    (fun (pos, flip) ->
      let art = Bytes.of_string base in
      let pos = pos mod Bytes.length art in
      Bytes.set art pos (Char.chr (Char.code (Bytes.get art pos) lxor flip));
      match Artifact.of_string (Bytes.to_string art) with
      | (_ : Tables.t list) -> true (* flip in slack bytes may be benign *)
      | exception Artifact.Error _ -> true
      | exception _ -> false)

let () =
  Alcotest.run "artifact"
    [
      ( "round-trip",
        [
          Alcotest.test_case "counts per engine" `Quick test_round_trip_counts;
          Alcotest.test_case "structure" `Quick test_round_trip_structure;
          Alcotest.test_case "file save/load" `Quick test_save_load_file;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "checksum" `Quick test_checksum;
          Alcotest.test_case "io error" `Quick test_io_error;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "version 1 loads" `Quick test_fixture_loads;
          Alcotest.test_case "version 2 with old knobs loads" `Quick
            test_tuned_fixture_loads;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_round_trip;
          QCheck_alcotest.to_alcotest prop_corrupt_byte_is_typed;
        ] );
    ]
