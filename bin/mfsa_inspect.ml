(* mfsa-inspect: examine a compiled extended-ANML ruleset — sizes,
   sharing structure, per-rule projections, Graphviz rendering. *)

module Anml = Mfsa_anml.Anml
module Mfsa = Mfsa_model.Mfsa
module Nfa = Mfsa_automata.Nfa
module Bitset = Mfsa_util.Bitset

let print_summary mfsas =
  Printf.printf "MFSAs: %d\n" (List.length mfsas);
  List.iteri
    (fun gi z ->
      let nt = Mfsa.n_transitions z in
      let shared =
        Array.to_list z.Mfsa.bel
        |> List.filter (fun b -> Bitset.cardinal b > 1)
        |> List.length
      in
      let cc_count, cc_len = Mfsa.cc_stats z in
      Printf.printf
        "mfsa %d: %d rules, %d states, %d transitions (%d shared by 2+ rules), \
         %d character classes (total length %d)\n"
        gi z.Mfsa.n_fsas z.Mfsa.n_states nt shared cc_count cc_len;
      Array.iteri
        (fun j pattern ->
          let own = ref 0 in
          Array.iter (fun b -> if Bitset.mem b j then incr own) z.Mfsa.bel;
          Printf.printf "  rule %d.%d %-40s %d transitions%s%s\n" gi j pattern
            !own
            (if z.Mfsa.anchored_start.(j) then " [^]" else "")
            (if z.Mfsa.anchored_end.(j) then " [$]" else ""))
        z.Mfsa.patterns)
    mfsas

let print_sharing z =
  (* Histogram: how many transitions are shared by k rules. *)
  let hist = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      let k = Bitset.cardinal b in
      Hashtbl.replace hist k (1 + Option.value ~default:0 (Hashtbl.find_opt hist k)))
    z.Mfsa.bel;
  Printf.printf "sharing histogram (rules per transition -> transitions):\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %3d -> %d\n" k v)

(* A binary artifact is header metadata, not rules: report the
   directory (version, section sizes, per-automaton counts) instead
   of attempting to parse it as extended ANML. *)
let print_artifact path =
  let module A = Engine_cli.Artifact in
  match A.describe path with
  | exception A.Error e ->
      Printf.eprintf "mfsa-inspect: %s: %s\n" path (A.error_to_string e);
      1
  | info ->
      Printf.printf "artifact: version %d, %d bytes, %d MFSA(s)\n"
        info.A.in_version info.A.in_bytes info.A.in_mfsas;
      Array.iteri
        (fun i rules ->
          Printf.printf
            "mfsa %d: %d rules, %d states, %d byte classes%s\n" i rules
            info.A.in_states.(i) info.A.in_classes.(i)
            (if info.A.in_prefiltered.(i) then ", prefilter" else ""))
        info.A.in_rules;
      List.iter
        (fun s -> Printf.printf "section %-8s %d bytes\n" s.A.si_name s.A.si_bytes)
        info.A.in_sections;
      0

let run path dot project sharing coo =
  if Engine_cli.Source.is_artifact_file path then print_artifact path
  else
  match Anml.read_file path with
  | Error msg ->
      Printf.eprintf "mfsa-inspect: %s\n" msg;
      1
  | Ok mfsas -> (
      match (dot, project) with
      | true, _ ->
          List.iter (fun z -> print_string (Mfsa.to_dot z)) mfsas;
          0
      | false, None when coo ->
          List.iteri
            (fun gi z ->
              Printf.printf "mfsa %d (paper Fig. 2 layout):\n" gi;
              Format.printf "%a" Mfsa.pp_coo z)
            mfsas;
          0
      | false, Some j -> (
          let rec find gi = function
            | [] ->
                Printf.eprintf "mfsa-inspect: no rule %d in the document\n" j;
                1
            | z :: rest ->
                if j < z.Mfsa.n_fsas then begin
                  let p = Mfsa.project z j in
                  Printf.printf "rule %d.%d: %s\n" gi j z.Mfsa.patterns.(j);
                  Format.printf "%a@." Nfa.pp p;
                  0
                end
                else find (gi + 1) rest
          in
          (* Rule indices are document-global. *)
          let rec descend j gi = function
            | [] -> find gi []
            | z :: rest ->
                if j < z.Mfsa.n_fsas then find gi (z :: rest)
                else descend (j - z.Mfsa.n_fsas) (gi + 1) rest
          in
          match descend j 0 mfsas with code -> code)
      | false, None ->
          print_summary mfsas;
          if sharing then List.iter print_sharing mfsas;
          0)

open Cmdliner

let path =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"ANML" ~doc:"Extended-ANML file produced by mfsa-compile.")

let dot =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of the summary.")

let project =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "project" ] ~docv:"RULE"
        ~doc:"Print the projection of one rule (document-global index) as a plain FSA.")

let sharing =
  Arg.(
    value & flag
    & info [ "sharing" ] ~doc:"Print the transition-sharing histogram per MFSA.")

let coo =
  Arg.(
    value & flag
    & info [ "coo" ]
        ~doc:"Print the COO vectors (bel/row/col/idx) in the paper's Fig. 2 layout.")

let cmd =
  Cmd.v
    (Cmd.info "mfsa-inspect" ~version:"1.0.0"
       ~doc:"Inspect a compiled MFSA ruleset")
    Term.(const run $ path $ dot $ project $ sharing $ coo)

let () = Engine_cli.main cmd
