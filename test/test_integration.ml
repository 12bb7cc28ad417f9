(* End-to-end integration: every execution path must agree on
   realistic workloads — the six synthetic datasets (scaled down) with
   planted-fragment streams. This is the system-level counterpart of
   the per-module property tests: one mismatch anywhere in front-end,
   middle-end, merging, serialisation or engines shows up here. *)

module Datasets = Mfsa_datasets.Datasets
module Stream_gen = Mfsa_datasets.Stream_gen
module Pipeline = Mfsa_core.Pipeline
module Ruleset = Mfsa_core.Ruleset
module Merge = Mfsa_model.Merge
module Mfsa = Mfsa_model.Mfsa
module Im = Mfsa_engine.Imfant
module In = Mfsa_paper.Infant
module De = Mfsa_paper.Dfa_engine
module Dc = Mfsa_paper.Decomposed
module Cluster = Mfsa_paper.Cluster
module Ccsplit = Mfsa_paper.Ccsplit
module H = Mfsa_anml.Homogeneous
module Anml = Mfsa_anml.Anml

let check = Alcotest.check

let scale = 0.05
let stream_size = 8192

type ctx = {
  name : string;
  fsas : Mfsa_automata.Nfa.t array;
  rules : string array;
  stream : string;
}

let contexts =
  lazy
    (List.map
       (fun ds ->
         {
           name = ds.Datasets.abbr;
           fsas = Result.get_ok (Pipeline.build_fsas ds.Datasets.rules);
           rules = ds.Datasets.rules;
           stream =
             Stream_gen.generate ~seed:ds.Datasets.seed ~density:0.1
               ~payload:ds.Datasets.payload ~size:stream_size ds.Datasets.rules;
         })
       (Datasets.all ~scale ()))

(* Reference: per-rule iNFAnt counts. *)
let reference ctx =
  Array.map (fun a -> In.count (In.compile a) ctx.stream) ctx.fsas

let test_imfant_matches_baseline () =
  List.iter
    (fun ctx ->
      let expected = reference ctx in
      let z = Merge.merge ctx.fsas in
      let counts = Im.count_per_fsa (Im.compile z) ctx.stream in
      check Alcotest.(array int) (ctx.name ^ ": iMFAnt per-rule counts") expected
        counts;
      check Alcotest.bool (ctx.name ^ ": stream produces matches") true
        (Array.fold_left ( + ) 0 expected > 0))
    (Lazy.force contexts)

let test_grouped_merging_matches_baseline () =
  List.iter
    (fun ctx ->
      let expected = Array.fold_left ( + ) 0 (reference ctx) in
      List.iter
        (fun m ->
          let total =
            Merge.merge_groups ~m ctx.fsas
            |> List.fold_left (fun acc z -> acc + Im.count (Im.compile z) ctx.stream) 0
          in
          check Alcotest.int
            (Printf.sprintf "%s: total matches at M=%d" ctx.name m)
            expected total)
        [ 3; 7; 0 ])
    (Lazy.force contexts)

let test_anml_roundtrip_at_scale () =
  List.iter
    (fun ctx ->
      let zs = Merge.merge_groups ~m:5 ctx.fsas in
      match Anml.read (Anml.write zs) with
      | Error e -> Alcotest.failf "%s: %s" ctx.name e
      | Ok zs' ->
          List.iter2
            (fun z z' ->
              check Alcotest.int
                (ctx.name ^ ": reloaded counts")
                (Im.count (Im.compile z) ctx.stream)
                (Im.count (Im.compile z') ctx.stream))
            zs zs')
    (Lazy.force contexts)

let test_homogeneous_at_scale () =
  List.iter
    (fun ctx ->
      let z = Merge.merge ctx.fsas in
      check Alcotest.int
        (ctx.name ^ ": STE executor count")
        (Im.count (Im.compile z) ctx.stream)
        (H.count (H.of_mfsa z) ctx.stream))
    (Lazy.force contexts)

let test_dfa_engine_at_scale () =
  List.iter
    (fun ctx ->
      let expected = reference ctx in
      Array.iteri
        (fun j a ->
          check Alcotest.int
            (Printf.sprintf "%s rule %d: DFA count" ctx.name j)
            expected.(j)
            (De.count (Result.get_ok (De.compile a)) ctx.stream))
        ctx.fsas)
    (Lazy.force contexts)

let test_decomposed_at_scale () =
  List.iter
    (fun ctx ->
      let expected = Array.fold_left ( + ) 0 (reference ctx) in
      check Alcotest.int
        (ctx.name ^ ": decomposed count")
        expected
        (Dc.count (Dc.compile ctx.fsas) ctx.stream))
    (Lazy.force contexts)

(* Per original rule, the match counts of merging each group of rule
   indices over [fsas] — the facade's grouping done by hand, so the
   paper's grouping passes can be checked against it. *)
let count_per_rule_groups fsas groups stream =
  let counts = Array.make (Array.length fsas) 0 in
  List.iter
    (fun g ->
      let g = Array.of_list g in
      let z = Merge.merge (Array.map (fun i -> fsas.(i)) g) in
      Array.iteri
        (fun local n -> counts.(g.(local)) <- n)
        (Im.count_per_fsa (Im.compile z) stream))
    groups;
  counts

let test_ruleset_facade_at_scale () =
  List.iter
    (fun ctx ->
      let expected = reference ctx in
      let all = [ List.init (Array.length ctx.fsas) Fun.id ] in
      List.iter
        (fun (label, counts) ->
          check
            Alcotest.(array int)
            (Printf.sprintf "%s: %s" ctx.name label)
            expected counts)
        [
          ("facade m=0", Ruleset.count_per_rule (Ruleset.compile_exn ~m:0 ctx.rules) ctx.stream);
          ( "m=4 clustered",
            count_per_rule_groups ctx.fsas (Cluster.group ~m:4 ctx.rules) ctx.stream );
          ("ccsplit", count_per_rule_groups (Ccsplit.split ctx.fsas) all ctx.stream);
        ])
    (Lazy.force contexts)

let test_streaming_at_scale () =
  List.iter
    (fun ctx ->
      let z = Merge.merge ctx.fsas in
      let eng = Im.compile z in
      let expected = Im.count eng ctx.stream in
      let s = Im.session eng in
      let n = String.length ctx.stream in
      let fed = ref 0 in
      let chunk_size = 777 in
      let i = ref 0 in
      while !i < n do
        let len = min chunk_size (n - !i) in
        fed := !fed + List.length (Im.feed s (String.sub ctx.stream !i len));
        i := !i + len
      done;
      let flushed = List.length (Im.finish s) in
      check Alcotest.int (ctx.name ^ ": chunked count") expected (!fed + flushed))
    (Lazy.force contexts)

let () =
  Alcotest.run "integration"
    [
      ( "datasets-at-scale",
        [
          Alcotest.test_case "iMFAnt = per-rule baseline" `Quick
            test_imfant_matches_baseline;
          Alcotest.test_case "grouped merging" `Quick
            test_grouped_merging_matches_baseline;
          Alcotest.test_case "ANML roundtrip" `Quick test_anml_roundtrip_at_scale;
          Alcotest.test_case "homogeneous executor" `Quick test_homogeneous_at_scale;
          Alcotest.test_case "DFA engine" `Quick test_dfa_engine_at_scale;
          Alcotest.test_case "decomposed engine" `Quick test_decomposed_at_scale;
          Alcotest.test_case "ruleset facade" `Quick test_ruleset_facade_at_scale;
          Alcotest.test_case "streaming sessions" `Quick test_streaming_at_scale;
        ] );
    ]
