(* Cross-module property tests — the system-level invariants.

   The headline property is the MFSA correctness theorem of paper
   §III-B: for any ruleset and any input, the merged MFSA executed by
   iMFAnt produces exactly the matches that the individual FSAs
   produce under iNFAnt — no lost matches and, crucially, no
   false-positive over-matching from the merged paths. *)

module Nfa = Mfsa_automata.Nfa
module Sim = Mfsa_automata.Simulate
module Thompson = Mfsa_automata.Thompson
module Epsilon = Mfsa_automata.Epsilon
module Loops = Mfsa_automata.Loops
module Multiplicity = Mfsa_automata.Multiplicity
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module In = Mfsa_paper.Infant
module Im = Mfsa_engine.Imfant
module Hy = Mfsa_engine.Hybrid
module Anml = Mfsa_anml.Anml
module Ast = Mfsa_frontend.Ast
module Gen = QCheck2.Gen

let qtest = QCheck_alcotest.to_alcotest

let fsa_of_rule rule =
  Multiplicity.fuse
    (Epsilon.remove
       (Thompson.build
          (Mfsa_automata.Simplify.char_classes_rule (Loops.expand_rule rule))))

let ruleset_and_input =
  Gen.pair (Gen_re.ruleset ()) Gen_re.input

let per_fsa_ends events j =
  List.filter_map (fun e -> if e.Im.fsa = j then Some e.Im.end_pos else None) events

(* The headline theorem. *)
let prop_mfsa_equals_union_of_fsas =
  QCheck2.Test.make ~count:150
    ~name:"HEADLINE: iMFAnt(merge rules) = union of iNFAnt(rule)"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let events = Im.run (Im.compile z) input in
      Array.for_all
        (fun j ->
          let expected = In.run (In.compile fsas.(j)) input in
          per_fsa_ends events j = expected)
        (Array.init (Array.length fsas) Fun.id))

(* Same theorem for every intermediate merging factor. *)
let prop_merge_groups_equivalence =
  QCheck2.Test.make ~count:60
    ~name:"merge_groups: every M produces the same matches"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let reference =
        Array.map (fun a -> Sim.match_ends a input) fsas
      in
      List.for_all
        (fun m ->
          let zs = Merge.merge_groups ~m fsas in
          let collected = Array.make (Array.length fsas) [] in
          List.iteri
            (fun gi z ->
              let base = gi * max 1 m in
              let events = Im.run (Im.compile z) input in
              for j = 0 to z.Mfsa.n_fsas - 1 do
                collected.(base + j) <- per_fsa_ends events j
              done)
            zs;
          (* m = 0 merges everything into a single group. *)
          (if m = 0 then
             match zs with
             | [ z ] ->
                 let events = Im.run (Im.compile z) input in
                 Array.iteri
                   (fun j _ -> collected.(j) <- per_fsa_ends events j)
                   fsas
             | _ -> ());
          collected = reference)
        [ 0; 1; 2; 3 ])

(* iNFAnt must agree with the reference simulator. *)
let prop_infant_equals_simulator =
  QCheck2.Test.make ~count:150 ~name:"iNFAnt = reference simulator"
    ~print:Gen_re.print_ruleset_input
    (Gen.map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let a = fsa_of_rule (List.hd rules) in
      In.run (In.compile a) input = Sim.match_ends a input)

(* The full middle-end preserves each rule's language. *)
let prop_middle_end_preserves_language =
  QCheck2.Test.make ~count:150 ~name:"middle-end pipeline preserves language"
    ~print:Gen_re.print_ruleset_input
    (Gen.map2 (fun r i -> ([ r ], i)) Gen_re.rule Gen_re.input)
    (fun (rules, input) ->
      let rule = List.hd rules in
      let raw = Thompson.build rule in
      let opt = fsa_of_rule rule in
      Sim.match_ends raw input = Sim.match_ends opt input)

(* Projection recovers automata of identical size and language. *)
let prop_projection_faithful =
  QCheck2.Test.make ~count:100 ~name:"project z j ≅ input fsa j"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      Array.for_all
        (fun j ->
          let p = Mfsa.project z j in
          p.Nfa.n_states = fsas.(j).Nfa.n_states
          && Nfa.n_transitions p = Nfa.n_transitions fsas.(j)
          && Sim.match_ends p input = Sim.match_ends fsas.(j) input)
        (Array.init (Array.length fsas) Fun.id))

(* Merging never grows the representation beyond the sum and never
   shrinks below the largest member. *)
let prop_merge_size_bounds =
  QCheck2.Test.make ~count:100 ~name:"merge size bounds"
    ~print:(fun rules ->
      String.concat ";" (List.map Gen_re.print_rule rules))
    (Gen_re.ruleset ())
    (fun rules ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let sum_states = Array.fold_left (fun acc a -> acc + a.Nfa.n_states) 0 fsas in
      let max_states = Array.fold_left (fun acc a -> max acc a.Nfa.n_states) 0 fsas in
      let sum_trans = Array.fold_left (fun acc a -> acc + Nfa.n_transitions a) 0 fsas in
      z.Mfsa.n_states <= sum_states
      && z.Mfsa.n_states >= max_states
      && Mfsa.n_transitions z <= sum_trans
      && Mfsa.validate z = Ok ())

(* The extended-ANML codec is lossless with respect to execution. *)
let prop_anml_roundtrip_execution =
  QCheck2.Test.make ~count:80 ~name:"ANML write/read preserves execution"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      match Anml.read (Anml.write [ z ]) with
      | Error _ -> false
      | Ok [ z' ] ->
          z'.Mfsa.n_states = z.Mfsa.n_states
          && Mfsa.n_transitions z' = Mfsa.n_transitions z
          && Im.run (Im.compile z') input = Im.run (Im.compile z) input
      | Ok _ -> false)

(* End-to-end: the textual pipeline agrees with the per-rule oracle. *)
let prop_pipeline_end_to_end =
  QCheck2.Test.make ~count:60 ~name:"pipeline compile + execute = oracle"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let patterns =
        Array.of_list (List.map (fun r -> Format.asprintf "%a" Ast.pp_rule r) rules)
      in
      match Mfsa_core.Pipeline.compile ~m:0 patterns with
      | Error _ -> QCheck2.assume_fail ()
      | Ok c -> (
          match c.Mfsa_core.Pipeline.mfsas with
          | [ z ] ->
              let events = Im.run (Im.compile z) input in
              Array.for_all
                (fun j ->
                  per_fsa_ends events j
                  = Sim.match_ends c.Mfsa_core.Pipeline.fsas.(j) input)
                (Array.init (Array.length patterns) Fun.id)
          | _ -> false))

(* The engine must agree with the executable specification of the
   formal model (Equations 4-9, Mfsa_model.Activation). *)
let prop_imfant_equals_formal_model =
  QCheck2.Test.make ~count:100
    ~name:"iMFAnt = formal-model interpreter (Eq. 4-9)"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let engine =
        Im.run (Im.compile z) input
        |> List.map (fun e -> (e.Im.fsa, e.Im.end_pos))
        |> List.sort (fun (j1, e1) (j2, e2) ->
               if e1 <> e2 then Int.compare e1 e2 else Int.compare j1 j2)
      in
      engine = Mfsa_model.Activation.run z input)

(* Table II instrumentation: the active count can never exceed the
   number of merged FSAs, and a matched FSA was active. *)
let prop_stats_bounds =
  QCheck2.Test.make ~count:80 ~name:"active-set statistics are bounded"
    ~print:Gen_re.print_ruleset_input ruleset_and_input
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let _, stats = Im.run_with_stats (Im.compile z) input in
      stats.Im.positions = String.length input
      && stats.Im.max_active <= Array.length fsas
      && stats.Im.avg_active <= float_of_int stats.Im.max_active +. 1e-9
      && stats.Im.avg_active >= 0.)

(* The headline theorem again over the full byte alphabet: binary
   bytes, wide classes and the 256-symbol tables. *)
let ( >>= ) = Gen.( >>= )

let prop_mfsa_equivalence_full_alphabet =
  QCheck2.Test.make ~count:100
    ~name:"HEADLINE over full byte alphabet"
    ~print:Gen_re.print_ruleset_input
    (Gen.pair
       (Gen.int_range 2 5 >>= fun n -> Gen.list_size (Gen.return n) Gen_re.wide_rule)
       Gen_re.wide_input)
    (fun (rules, input) ->
      let fsas = Array.of_list (List.map fsa_of_rule rules) in
      let z = Merge.merge fsas in
      let events = Im.run (Im.compile z) input in
      Array.for_all
        (fun j ->
          per_fsa_ends events j = In.run (In.compile fsas.(j)) input)
        (Array.init (Array.length fsas) Fun.id))

(* Every other property merges at most 8 rules, so no activation set
   there crosses a 62-bit word. Here 61–130 rules (one to three words
   per set) are made distinct by a 5-letter salt, all at the front
   (every rule has a literal prefix, so the prefilter is on) or all at
   the back (no prefilter). Each batch, chunked and sessioned entry
   point of the flat kernel, and of the hybrid memoising it, must
   reproduce the formal-model interpreter, which shares none of the
   engine's tables, in its (end, fsa) order — unsorted. A session reports the end-anchored
   matches at the end of the stream last, from [finish]. *)
let salted_ruleset =
  let salt i =
    Ast.seq (List.init 5 (fun d -> Ast.Char "abc".[(i / [| 1; 3; 9; 27; 81 |].(d)) mod 3]))
  in
  Gen.int_range 61 130 >>= fun n ->
  Gen.pair (Gen.list_size (Gen.return n) Gen_re.rule) Gen.bool
  |> Gen.map (fun (rules, front) ->
         List.mapi
           (fun i (r : Ast.rule) ->
             let ast =
               if front then Ast.Concat (salt i, r.ast) else Ast.Concat (r.ast, salt i)
             in
             { r with Ast.ast; pattern = Ast.to_string ast })
           rules)

let prop_multiword_kernel_equals_formal_model =
  QCheck2.Test.make ~count:100
    ~name:"iMFAnt over 61-130 FSAs (multi-word sets) = formal model"
    ~print:(fun ((rules, input), cuts) ->
      Printf.sprintf "%s cuts=[%s]"
        (Gen_re.print_ruleset_input (rules, input))
        (String.concat ";" (List.map string_of_int cuts)))
    (Gen.pair
       (Gen.pair salted_ruleset
          (Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'b'; 'c' ]) (Gen.int_range 0 120)))
       (Gen.list_size (Gen.int_range 0 6) (Gen.int_range 0 120)))
    (fun ((rules, input), cuts) ->
      let z = Merge.merge (Array.of_list (List.map fsa_of_rule rules)) in
      let expected = Mfsa_model.Activation.run z input in
      let pairs = List.map (fun e -> (e.Im.fsa, e.Im.end_pos)) in
      let im = Im.compile z in
      let per_fsa = Array.make z.Mfsa.n_fsas 0 in
      List.iter (fun (j, _) -> per_fsa.(j) <- per_fsa.(j) + 1) expected;
      let n = String.length input in
      let bounds = List.sort_uniq compare (0 :: n :: List.map (fun c -> min c n) cuts) in
      let session_order =
        let at_end (j, e) = e = n && z.Mfsa.anchored_end.(j) in
        List.filter (fun ev -> not (at_end ev)) expected @ List.filter at_end expected
      in
      (* Feeds the pieces between the cut points; [at_cut i] runs
         before piece [i]. *)
      let chunked feed finish ~at_cut =
        let rec go i = function
          | a :: (b :: _ as tl) ->
              at_cut i;
              let evs = feed (String.sub input a (b - a)) in
              evs @ go (i + 1) tl
          | _ -> finish ()
        in
        go 0 bounds
      in
      let im_ok =
        let s = Im.session im in
        pairs (Im.run im input) = expected
        && Im.count_per_fsa im input = per_fsa
        && pairs (chunked (Im.feed s) (fun () -> Im.finish s) ~at_cut:ignore)
           = session_order
      in
      (* The flat memo keys index the same words: a hybrid that misses
         and evicts on nearly every byte, and one demoted and promoted
         at every cut point, must agree with the model too. *)
      let hy_ok ~toggle hy =
        let hpairs = List.map (fun e -> (e.Hy.fsa, e.Hy.end_pos)) in
        let mode i = if toggle then if i mod 2 = 0 then Hy.demote hy else Hy.promote hy in
        mode 0;
        let run_ok = hpairs (Hy.run hy input) = expected in
        mode 1;
        let per_fsa_ok = Hy.count_per_fsa hy input = per_fsa in
        let s = Hy.session hy in
        run_ok && per_fsa_ok
        && hpairs (chunked (Hy.feed s) (fun () -> Hy.finish s) ~at_cut:mode)
           = session_order
      in
      im_ok
      && hy_ok ~toggle:false (Hy.of_imfant ~cache_size:2 im)
      && hy_ok ~toggle:true (Hy.of_imfant im)
      && List.for_all
           (fun domains ->
             let sf =
               Mfsa_engine.Sfa.compile { Mfsa_engine.Sfa.domains; threshold = 1 }
                 ~inner:"imfant" z
             in
             List.map
               (fun e -> (e.Mfsa_engine.Sfa.fsa, e.Mfsa_engine.Sfa.end_pos))
               (Mfsa_engine.Sfa.run sf input)
             = expected)
           [ 1; 2; 3; 4 ])

(* Reproducibility: merging is a pure function of its inputs. *)
let prop_merge_deterministic =
  QCheck2.Test.make ~count:80 ~name:"merge is deterministic"
    ~print:(fun rules -> String.concat ";" (List.map Gen_re.print_rule rules))
    (Gen_re.ruleset ())
    (fun rules ->
      let fsas () = Array.of_list (List.map fsa_of_rule rules) in
      let z1 = Merge.merge (fsas ()) and z2 = Merge.merge (fsas ()) in
      z1.Mfsa.n_states = z2.Mfsa.n_states
      && z1.Mfsa.row = z2.Mfsa.row
      && z1.Mfsa.col = z2.Mfsa.col
      && Array.for_all2 Mfsa_charset.Charclass.equal z1.Mfsa.idx z2.Mfsa.idx
      && Array.for_all2 Mfsa_util.Bitset.equal z1.Mfsa.bel z2.Mfsa.bel
      && z1.Mfsa.init_of = z2.Mfsa.init_of)

let () =
  Alcotest.run "properties"
    [
      ( "system",
        [
          qtest prop_mfsa_equals_union_of_fsas;
          qtest prop_merge_groups_equivalence;
          qtest prop_infant_equals_simulator;
          qtest prop_middle_end_preserves_language;
          qtest prop_projection_faithful;
          qtest prop_merge_size_bounds;
          qtest prop_anml_roundtrip_execution;
          qtest prop_pipeline_end_to_end;
          qtest prop_imfant_equals_formal_model;
          qtest prop_mfsa_equivalence_full_alphabet;
          qtest prop_merge_deterministic;
          qtest prop_stats_bounds;
          qtest prop_multiword_kernel_equals_formal_model;
        ] );
    ]
