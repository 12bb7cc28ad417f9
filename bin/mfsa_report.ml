(* mfsa-report: regenerate the paper's evaluation artefacts (Tables I
   and II, Figures 1 and 7-10) on the synthetic datasets. *)

module E = Mfsa_paper.Experiments

let experiments =
  [
    ("fig1", E.fig1); ("table1", E.table1); ("fig7", E.fig7); ("fig8", E.fig8);
    ("table2", E.table2); ("fig9", E.fig9); ("fig10", E.fig10);
    ("ablation-ccsplit", E.ablation_ccsplit);
    ("ablation-cluster", E.ablation_cluster);
    ("ablation-bisim", E.ablation_bisim); ("baselines", E.baselines);
    ("complexity", E.complexity);
  ]

let write_artefact dir name text =
  let path = Filename.concat dir (name ^ ".txt") in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
  Printf.eprintf "wrote %s\n" path

let run names scale stream_kb reps paper out_dir =
  let cfg =
    if paper then E.paper_scale
    else
      let base = E.default () in
      {
        base with
        E.scale = Option.value ~default:base.E.scale scale;
        stream_kb = Option.value ~default:base.E.stream_kb stream_kb;
        reps = Option.value ~default:base.E.reps reps;
      }
  in
  let emit name text =
    match out_dir with
    | Some dir -> write_artefact dir name text
    | None ->
        print_string text;
        print_newline ()
  in
  match names with
  | [] ->
      (match out_dir with
      | Some _ -> List.iter (fun (name, f) -> emit name (f cfg)) experiments
      | None -> print_string (E.run_all cfg));
      0
  | names ->
      let rec go = function
        | [] -> 0
        | name :: rest -> (
            match List.assoc_opt (String.lowercase_ascii name) experiments with
            | Some f ->
                emit (String.lowercase_ascii name) (f cfg);
                go rest
            | None ->
                Printf.eprintf
                  "mfsa-report: unknown experiment %S (expected %s)\n" name
                  (String.concat ", " (List.map fst experiments));
                1)
      in
      go names

open Cmdliner

let names =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:"Artefacts to regenerate (fig1, table1, fig7, fig8, table2, fig9, fig10); all when omitted.")

let scale =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"S" ~doc:"Ruleset size multiplier (1.0 = paper size).")

let stream_kb =
  Arg.(
    value
    & opt (some int) None
    & info [ "stream-kb" ] ~docv:"KB" ~doc:"Input stream size in KiB (paper: 1024).")

let reps =
  Arg.(
    value
    & opt (some int) None
    & info [ "reps" ] ~docv:"N" ~doc:"Repetitions for timing experiments.")

let paper =
  Arg.(
    value & flag
    & info [ "paper-scale" ]
        ~doc:"Run at the paper's full scale (300-rule datasets, 1 MiB streams; expect hours).")

let out_dir =
  Arg.(
    value
    & opt (some dir) None
    & info [ "o"; "out" ] ~docv:"DIR"
        ~doc:"Write each artefact to $(docv)/<name>.txt instead of stdout.")

let cmd =
  Cmd.v
    (Cmd.info "mfsa-report" ~version:"1.0.0"
       ~doc:"Reproduce the paper's evaluation tables and figures")
    Term.(const run $ names $ scale $ stream_kb $ reps $ paper $ out_dir)

let () = Engine_cli.main cmd
