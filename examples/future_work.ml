(* The paper's future-work directions, implemented and measured:
   partial character-class merging (§VI-A) and similarity-driven rule
   clustering (§VIII).

   A ruleset with partially-overlapping classes and interleaved rule
   families is merged four ways — {plain, cc-split} × {sequential,
   clustered} — and the example reports what each extension buys,
   then verifies that all four automata match identically.

   Run with: dune exec examples/future_work.exe *)

module Pipeline = Mfsa_core.Pipeline
module Report = Mfsa_core.Report
module Cluster = Mfsa_paper.Cluster
module Merge = Mfsa_model.Merge
module Mfsa = Mfsa_model.Mfsa
module Ccsplit = Mfsa_paper.Ccsplit
module Imfant = Mfsa_engine.Imfant
module Nfa = Mfsa_automata.Nfa

(* Two interleaved families (clustering bait) whose classes overlap
   only partially ([abce] vs [bcd]: shared atom [bc] — the paper's own
   §VI-A example). *)
let rules =
  [|
    "login[abce]+user"; "GET /v1/[0-9a-f]{4}"; "login[bcd]+root";
    "GET /v2/[0-9a-f]{4}"; "login[abce]*admin"; "GET /v1/[0-9]{2}x";
    "login[bcd]*guest"; "GET /v2/[0-9]{2}y";
  |]

let describe name zs =
  let states = List.fold_left (fun acc z -> acc + z.Mfsa.n_states) 0 zs in
  let transitions = List.fold_left (fun acc z -> acc + Mfsa.n_transitions z) 0 zs in
  Printf.printf "  %-28s %4d states %5d transitions (%d MFSA%s)\n" name states
    transitions (List.length zs)
    (if List.length zs = 1 then "" else "s");
  (states, transitions)

let matches_of zs groups input =
  (* Per original rule index, the sorted match ends. *)
  let result = Hashtbl.create 16 in
  List.iter2
    (fun z group ->
      let events = Imfant.run (Imfant.compile z) input in
      List.iteri
        (fun local original ->
          Hashtbl.replace result original
            (List.filter_map
               (fun e -> if e.Imfant.fsa = local then Some e.Imfant.end_pos else None)
               events))
        group)
    zs groups;
  List.init (Array.length rules) (fun i ->
      Option.value ~default:[] (Hashtbl.find_opt result i))

let () =
  let m = 4 in
  let fsas = Result.get_ok (Pipeline.build_fsas rules) in
  let sequential_groups =
    List.init ((Array.length rules + m - 1) / m) (fun g ->
        List.init (min m (Array.length rules - (g * m))) (fun k -> (g * m) + k))
  in
  let clustered_groups = Cluster.group ~m (Array.map Fun.id rules) in

  Printf.printf "%d rules, merging factor %d:\n\n" (Array.length rules) m;
  let plain_seq = Merge.merge_groups ~m fsas in
  let _ = describe "sequential, plain" plain_seq in
  let split_seq = Merge.merge_groups ~m (Ccsplit.split fsas) in
  let _ = describe "sequential, cc-split" split_seq in
  let clustered = Cluster.merge_clustered ~m fsas in
  let s_clu, _ = describe "clustered, plain" clustered in
  let clustered_split =
    List.map
      (fun g ->
        Merge.merge (Ccsplit.split (Array.of_list (List.map (fun i -> fsas.(i)) g))))
      clustered_groups
  in
  let s_both, _ = describe "clustered, cc-split" clustered_split in

  let before = Report.fsa_totals fsas in
  Printf.printf
    "\nSeparate FSAs: %d states. Both extensions together reach %.1f%% state\n\
     compression vs %.1f%% for clustering alone.\n"
    before.Report.states
    (Mfsa.states_compression ~before:before.Report.states ~after:s_both)
    (Mfsa.states_compression ~before:before.Report.states ~after:s_clu);

  (* All four configurations must match identically. *)
  let input =
    "x loginbbcuser y GET /v1/0af3 loginccroot GET /v2/17y loginadmin"
  in
  let reference = matches_of plain_seq sequential_groups input in
  List.iter
    (fun (name, zs, groups) ->
      let got = matches_of zs groups input in
      if got <> reference then begin
        Printf.printf "MISMATCH in %s!\n" name;
        exit 1
      end)
    [
      ("cc-split", split_seq, sequential_groups);
      ("clustered", clustered, clustered_groups);
      ("clustered+cc-split", clustered_split, clustered_groups);
    ];
  Printf.printf
    "\nAll four configurations produce identical matches on the test input\n\
     (%d match events) — the extensions change the representation, never\n\
     the recognised languages.\n"
    (List.fold_left (fun acc l -> acc + List.length l) 0 reference)
