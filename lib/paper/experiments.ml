module Report = Mfsa_core.Report
module Pipeline = Mfsa_core.Pipeline
module Datasets = Mfsa_datasets.Datasets
module Stream_gen = Mfsa_datasets.Stream_gen
module Nfa = Mfsa_automata.Nfa
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Imfant = Mfsa_engine.Imfant
module Engine_sig = Mfsa_engine.Engine_sig
module Registry = Mfsa_engine.Registry

type config = {
  scale : float;
  stream_kb : int;
  reps : int;
  merge_factors : int list;
  thread_counts : int list;
  hw_threads : int;
}

let paper_scale =
  {
    scale = 1.0;
    stream_kb = 1024;
    reps = 15;
    merge_factors = [ 2; 5; 10; 20; 50; 100; 0 ];
    thread_counts = [ 1; 2; 4; 8; 16; 32; 64; 128 ];
    hw_threads = 8;
  }

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> default)
  | None -> default

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let default () =
  {
    scale = env_float "MFSA_SCALE" 0.2;
    stream_kb = env_int "MFSA_STREAM_KB" 64;
    reps = env_int "MFSA_REPS" 3;
    merge_factors = [ 2; 5; 10; 20; 50; 0 ];
    thread_counts = [ 1; 2; 4; 8; 16; 32; 64; 128 ];
    hw_threads = env_int "MFSA_HW_THREADS" 8;
  }

let m_label m = if m = 0 then "all" else string_of_int m

let now () = Mfsa_util.Clock.now ()

(* Per-dataset compiled context, built once and shared by the
   experiments that need it. *)
type ctx = {
  ds : Datasets.t;
  fsas : Nfa.t array;
  stream : string;
}

let contexts cfg =
  List.map
    (fun ds ->
      let fsas =
        match Pipeline.build_fsas ds.Datasets.rules with
        | Ok fsas -> fsas
        | Error e ->
            failwith
              (Printf.sprintf "dataset %s failed to compile: %s" ds.Datasets.abbr
                 (Pipeline.error_to_string e))
      in
      let stream =
        Stream_gen.generate ~seed:ds.Datasets.seed
          ~payload:ds.Datasets.payload ~size:(cfg.stream_kb * 1024)
          ds.Datasets.rules
      in
      { ds; fsas; stream })
    (Datasets.all ~scale:cfg.scale ())

let header title = Printf.sprintf "== %s ==\n" title

(* ------------------------------------------------------------ Fig 1 *)

let fig1 cfg =
  let rows =
    List.map
      (fun ds ->
        let sim =
          Indel.average_pairwise_similarity ~sample:20_000 ~seed:1 ds.Datasets.rules
        in
        [ ds.Datasets.abbr; Printf.sprintf "%.3f" sim ])
      (Datasets.all ~scale:cfg.scale ())
  in
  header "Fig. 1: average normalised INDEL similarity per dataset"
  ^ Report.table ~header:[ "Dataset"; "Similarity [0,1]" ] rows

(* ---------------------------------------------------------- Table I *)

let table1 cfg =
  let rows =
    List.map
      (fun { ds; fsas; _ } ->
        let n = Array.length fsas in
        let t = Report.fsa_totals fsas in
        let _cc_count, cc_len =
          Array.fold_left
            (fun (c, l) a ->
              let c', l' = Nfa.cc_stats a in
              (c + c', l + l'))
            (0, 0) fsas
        in
        [
          ds.Datasets.name;
          ds.Datasets.abbr;
          string_of_int n;
          string_of_int t.Report.states;
          string_of_int t.Report.transitions;
          string_of_int cc_len;
          Printf.sprintf "%.2f" (float_of_int t.Report.states /. float_of_int n);
          Printf.sprintf "%.2f" (float_of_int t.Report.transitions /. float_of_int n);
        ])
      (contexts cfg)
  in
  header "Table I: dataset characteristics"
  ^ Report.table
      ~header:
        [ "Dataset"; "Abbr."; "Num. REs"; "Tot. Ns"; "Tot. Nt"; "Tot. Ncc";
          "Avg. Ns"; "Avg. Nt" ]
      rows

(* ------------------------------------------------------------ Fig 7 *)

let fig7 cfg =
  let ctxs = contexts cfg in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (header "Fig. 7: state and transition compression % by merging factor");
  let rows =
    List.concat_map
      (fun { ds; fsas; _ } ->
        let before = Report.fsa_totals fsas in
        List.map
          (fun m ->
            let after = Report.mfsa_totals (Merge.merge_groups ~m fsas) in
            let cs, ct = Report.compression ~before ~after in
            [
              ds.Datasets.abbr; m_label m;
              Printf.sprintf "%.2f" cs; Printf.sprintf "%.2f" ct;
            ])
          cfg.merge_factors)
      ctxs
  in
  Buffer.add_string buf
    (Report.table ~header:[ "Dataset"; "M"; "States %"; "Transitions %" ] rows);
  (* The paper headlines the M=all averages (71.95% / 38.88%). *)
  let all_cs, all_ct =
    List.fold_left
      (fun (acs, act) { fsas; _ } ->
        let before = Report.fsa_totals fsas in
        let after = Report.mfsa_totals (Merge.merge_groups ~m:0 fsas) in
        let cs, ct = Report.compression ~before ~after in
        (cs :: acs, ct :: act))
      ([], []) ctxs
  in
  let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  Buffer.add_string buf
    (Printf.sprintf
       "Average at M=all: %.2f%% states, %.2f%% transitions (paper: 71.95%% / 38.88%%)\n"
       (avg all_cs) (avg all_ct));
  Buffer.contents buf

(* ------------------------------------------------------------ Fig 8 *)

let fig8 cfg =
  let rows =
    List.concat_map
      (fun ds ->
        List.map
          (fun m ->
            (* Average the stage times over the configured repetitions,
               recompiling from scratch each time as the paper does. *)
            let acc = ref { Pipeline.frontend = 0.; conversion = 0.; optimization = 0.; merging = 0.; backend = 0. } in
            for _ = 1 to cfg.reps do
              match Pipeline.compile ~m ds.Datasets.rules with
              | Ok c ->
                  let t = c.Pipeline.times in
                  acc :=
                    {
                      Pipeline.frontend = !acc.Pipeline.frontend +. t.Pipeline.frontend;
                      conversion = !acc.Pipeline.conversion +. t.Pipeline.conversion;
                      optimization = !acc.Pipeline.optimization +. t.Pipeline.optimization;
                      merging = !acc.Pipeline.merging +. t.Pipeline.merging;
                      backend = !acc.Pipeline.backend +. t.Pipeline.backend;
                    }
              | Error e -> raise (Pipeline.Compile_error e)
            done;
            let r = float_of_int cfg.reps in
            let avg x = x /. r in
            [
              ds.Datasets.abbr; m_label m;
              Report.fmt_time (avg !acc.Pipeline.frontend);
              Report.fmt_time (avg !acc.Pipeline.conversion);
              Report.fmt_time (avg !acc.Pipeline.optimization);
              Report.fmt_time (avg !acc.Pipeline.merging);
              Report.fmt_time (avg !acc.Pipeline.backend);
              Report.fmt_time
                (avg
                   (!acc.Pipeline.frontend +. !acc.Pipeline.conversion
                   +. !acc.Pipeline.optimization +. !acc.Pipeline.merging
                   +. !acc.Pipeline.backend));
            ])
          cfg.merge_factors)
      (Datasets.all ~scale:cfg.scale ())
  in
  header
    (Printf.sprintf "Fig. 8: compilation stage times (average of %d reps)" cfg.reps)
  ^ Report.table
      ~header:[ "Dataset"; "M"; "FE"; "AST to FSA"; "ME-single"; "ME-merging"; "BE"; "Total" ]
      rows

(* --------------------------------------------------------- Table II *)

let table2 cfg =
  let rows =
    List.map
      (fun { ds; fsas; stream } ->
        let z =
          match Merge.merge_groups ~m:0 fsas with
          | [ z ] -> z
          | _ -> assert false
        in
        let eng = Imfant.compile z in
        let _, stats = Imfant.run_with_stats eng stream in
        [
          ds.Datasets.abbr;
          Printf.sprintf "%.2f" stats.Imfant.avg_active;
          string_of_int stats.Imfant.max_active;
        ])
      (contexts cfg)
  in
  header "Table II: active FSAs during MFSA traversal (M = all)"
  ^ Report.table ~header:[ "Abbr."; "Avg. Nact"; "Max Nact" ] rows

(* ------------------------------------------------- Fig 9 machinery *)

(* Measure one engine run, averaged over reps. *)
let time_runs reps f =
  let total = ref 0. in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    total := !total +. (now () -. t0)
  done;
  !total /. float_of_int (max 1 reps)

(* Best-of-N: the minimum over the reps. Robust against GC and
   scheduler jitter, which matters when two engines within a few
   percent of each other are being ranked (the planner gate). *)
let best_of_runs reps f =
  let best = ref infinity in
  for _ = 1 to max 1 reps do
    let t0 = now () in
    f ();
    let t = now () -. t0 in
    if t < !best then best := t
  done;
  !best

(* Per-automaton single-thread execution times for a given merging
   factor. Every M runs the same kernel: iMFAnt over
   [Merge.merge_groups ~m], so M = 1 is per-rule iNFAnt work (one-bit
   belonging sets). The literal prefilter is off throughout — the
   paper's iMFAnt runs unfiltered, and a prefiltered merged group
   timed against an unfiltered baseline would credit the prefilter
   to the merge. *)
let automaton_times cfg ~m { fsas; stream; _ } =
  Merge.merge_groups ~m fsas
  |> List.map (fun z ->
         let eng = Imfant.of_tables { (Imfant.tables z) with prefilter = None } in
         time_runs cfg.reps (fun () -> ignore (Imfant.count eng stream)))

let fig9 cfg =
  let ctxs = contexts cfg in
  let ms = 1 :: cfg.merge_factors in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (header
       (Printf.sprintf
          "Fig. 9: single-thread execution time and throughput vs M (%d KiB stream, %d reps)"
          cfg.stream_kb cfg.reps));
  let best_improvements = ref [] in
  let rows =
    List.concat_map
      (fun ctx ->
        let n_rules = Array.length ctx.fsas in
        let data_size = String.length ctx.stream in
        let baseline = ref 0. in
        let best = ref 0. in
        let rows =
          List.map
            (fun m ->
              let times = automaton_times cfg ~m ctx in
              let total = List.fold_left ( +. ) 0. times in
              if m = 1 then baseline := total;
              let th =
                Report.throughput ~n_mfsa:1 ~m:n_rules ~data_size ~exe_time:total
              in
              let improvement = if m = 1 then 1.0 else !baseline /. total in
              if improvement > !best then best := improvement;
              [
                ctx.ds.Datasets.abbr; m_label m;
                Report.fmt_time total;
                Printf.sprintf "%.1f MB/s of RE-work" (th /. 1e6);
                Printf.sprintf "%.2fx" improvement;
              ])
            ms
        in
        best_improvements := !best :: !best_improvements;
        rows)
      ctxs
  in
  Buffer.add_string buf
    (Report.table
       ~header:[ "Dataset"; "M"; "Exec time"; "Throughput (Eq. 11)"; "vs M=1" ]
       rows);
  Buffer.add_string buf
    (Printf.sprintf
       "Geomean of best per-dataset improvement: %.2fx (paper: 5.99x)\n"
       (Report.geomean !best_improvements));
  Buffer.contents buf

(* ----------------------------------------------------------- Fig 10 *)

let fig10 cfg =
  let ctxs = contexts cfg in
  (* Fig. 10 studies how merging redistributes work across threads, so
     the number of MFSAs per ruleset (⌈N/M⌉) is the quantity to
     preserve: at reduced ruleset scale the paper's absolute M values
     would collapse every configuration to a single group. Scale M by
     the ruleset scale (labelled "50→10" below) to keep the group
     structure the paper measures. *)
  let eff m =
    if m = 0 || cfg.scale >= 1.0 then m
    else max 2 (int_of_float (Float.round (float_of_int m *. cfg.scale)))
  in
  let label m =
    if m = 0 || cfg.scale >= 1.0 then m_label m
    else Printf.sprintf "%s>%s" (m_label m) (m_label (eff m))
  in
  let ms = 1 :: cfg.merge_factors in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (header
       "Fig. 10: multi-thread scaling (greedy-scheduler projection from measured per-automaton times)");
  let cores = Domain.recommended_domain_count () in
  Buffer.add_string buf
    (Printf.sprintf
       "Note: this host exposes %s; per-automaton times are measured\n\
        for real and the T-thread makespan is %sprojected by replaying the pool's\n\
        greedy in-order scheduler (DESIGN.md substitution 3). As on the\n\
        paper's i7-6700, scaling saturates at the modelled hardware limit of\n\
        %d threads.\n\n"
       (if cores = 1 then "a single core" else Printf.sprintf "%d cores" cores)
       (if cores = 1 then "" else "still ")
       cfg.hw_threads);
  let speedups = ref [] in
  List.iter
    (fun ctx ->
      let times_by_m =
        List.map
          (fun m ->
            let m' = if m = 1 then 1 else eff m in
            (m, Array.of_list (automaton_times cfg ~m:m' ctx)))
          ms
      in
      let rows =
        List.map
          (fun (m, times) ->
            (if m = 1 then "1" else label m)
            :: List.map
                 (fun t ->
                   Report.fmt_time
                     (Schedule.project ~threads:(min t cfg.hw_threads) times))
                 cfg.thread_counts)
          times_by_m
      in
      Buffer.add_string buf (Printf.sprintf "--- %s ---\n" ctx.ds.Datasets.abbr);
      Buffer.add_string buf
        (Report.table
           ~header:("M \\ T" :: List.map string_of_int cfg.thread_counts)
           rows);
      (* Markers: best multi-threaded single-FSA vs best MFSA config. *)
      let best_over_t times =
        List.fold_left
          (fun acc t ->
            min acc (Schedule.project ~threads:(min t cfg.hw_threads) times))
          infinity cfg.thread_counts
      in
      let m1_times = List.assoc 1 times_by_m in
      let best_m1 = best_over_t m1_times in
      let best_mfsa, best_m =
        List.fold_left
          (fun (best, bm) (m, times) ->
            if m = 1 then (best, bm)
            else
              let v = best_over_t times in
              if v < best then (v, m) else (best, bm))
          (infinity, 1) times_by_m
      in
      let speedup = best_m1 /. best_mfsa in
      speedups := speedup :: !speedups;
      (* Best thread utilisation: least threads for an MFSA config to
         reach the top single-FSA performance. *)
      let best_util =
        List.fold_left
          (fun acc (m, times) ->
            if m = 1 then acc
            else
              let t = Schedule.best_threads_within ~tolerance:0.05 ~target:best_m1 times in
              if Schedule.project ~threads:t times <= best_m1 *. 1.05 then
                match acc with
                | Some (t', _) when t' <= t -> acc
                | _ -> Some (t, m)
              else acc)
          None times_by_m
      in
      Buffer.add_string buf
        (Printf.sprintf
           "Best Perf. M=1: %s | Best Perf. M=%s: %s (speedup %.2fx)%s\n\n"
           (Report.fmt_time best_m1) (label best_m) (Report.fmt_time best_mfsa)
           speedup
           (match best_util with
           | Some (t, m) ->
               Printf.sprintf " | Best Th. Ut.: M=%s with %d thread%s" (label m)
                 t
                 (if t = 1 then "" else "s")
           | None -> "")))
    ctxs;
  Buffer.add_string buf
    (Printf.sprintf
       "Geomean best-MFSA vs best-parallel-FSAs speedup: %.2fx (paper: 4.05x)\n"
       (Report.geomean !speedups));
  Buffer.contents buf

(* ------------------------------------------------------- Ablations *)

let ablation_ccsplit cfg =
  let rows =
    List.map
      (fun { ds; fsas; _ } ->
        let before = Report.fsa_totals fsas in
        let plain = Report.mfsa_totals (Merge.merge_groups ~m:0 fsas) in
        let split =
          Report.mfsa_totals
            (Merge.merge_groups ~m:0 (Ccsplit.split fsas))
        in
        let pcs, pct = Report.compression ~before ~after:plain in
        let scs, sct = Report.compression ~before ~after:split in
        [
          ds.Datasets.abbr;
          Printf.sprintf "%.2f" pcs; Printf.sprintf "%.2f" pct;
          Printf.sprintf "%.2f" scs; Printf.sprintf "%.2f" sct;
        ])
      (contexts cfg)
  in
  header
    "Ablation: partial character-class merging (paper §VI-A future work), M = all"
  ^ Report.table
      ~header:
        [ "Dataset"; "States % (plain)"; "Trans % (plain)";
          "States % (cc-split)"; "Trans % (cc-split)" ]
      rows
  ^ "Note: splitting classes into shared atoms unlocks partial-overlap\n\
     sharing (states) at the cost of extra parallel arcs (transitions).\n"

let ablation_cluster cfg =
  let ms = [ 5; 10; 20 ] in
  let rows =
    List.concat_map
      (fun { ds; fsas; _ } ->
        let before = Report.fsa_totals fsas in
        List.map
          (fun m ->
            let seq = Report.mfsa_totals (Merge.merge_groups ~m fsas) in
            let clu = Report.mfsa_totals (Cluster.merge_clustered ~m fsas) in
            let scs, _ = Report.compression ~before ~after:seq in
            let ccs, _ = Report.compression ~before ~after:clu in
            [
              ds.Datasets.abbr; string_of_int m;
              Printf.sprintf "%.2f" scs; Printf.sprintf "%.2f" ccs;
              Printf.sprintf "%+.2f" (ccs -. scs);
            ])
          ms)
      (contexts cfg)
  in
  header "Ablation: INDEL-similarity clustering vs sequential sampling (paper §VIII)"
  ^ Report.table
      ~header:
        [ "Dataset"; "M"; "States % (sequential)"; "States % (clustered)"; "Delta" ]
      rows

(* ------------------------------------------------------- Baselines *)

let is_literal_rule pattern =
  match Mfsa_frontend.Parser.parse pattern with
  | Error _ -> false
  | Ok rule ->
      let rec literal = function
        | Mfsa_frontend.Ast.Char _ -> true
        | Mfsa_frontend.Ast.Concat (a, b) -> literal a && literal b
        | Mfsa_frontend.Ast.Empty | Mfsa_frontend.Ast.Class _
        | Mfsa_frontend.Ast.Alt _ | Mfsa_frontend.Ast.Star _
        | Mfsa_frontend.Ast.Plus _ | Mfsa_frontend.Ast.Opt _
        | Mfsa_frontend.Ast.Repeat _ ->
            false
      in
      (not rule.Mfsa_frontend.Ast.anchored_start)
      && (not rule.Mfsa_frontend.Ast.anchored_end)
      && literal rule.Mfsa_frontend.Ast.ast

let literal_text pattern =
  match Mfsa_frontend.Parser.parse pattern with
  | Ok rule -> String.concat "" (Mfsa_frontend.Ast.literals rule.Mfsa_frontend.Ast.ast)
  | Error _ -> ""

let baselines cfg =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (header "Baselines: MFSA vs per-rule DFA / D2FA / 2-stride / Aho-Corasick");
  (* Representation sizes and execution times per dataset. *)
  let rows =
    List.map
      (fun { ds; fsas; stream } ->
        let nfa_states = (Report.fsa_totals fsas).Report.states in
        let z =
          match Merge.merge_groups ~m:0 fsas with [ z ] -> z | _ -> assert false
        in
        (* Per-rule DFA cells read "over budget" when any rule's
           subset construction passes [Dfa.state_budget]. *)
        let per_rule f =
          let rs = Array.map f fsas in
          if Array.for_all Result.is_ok rs then Some (Array.map Result.get_ok rs)
          else None
        in
        let cell f = function Some x -> f x | None -> "over budget" in
        let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
        let dfas =
          per_rule (fun a -> Result.map Dfa.minimize (Dfa.determinize a))
        in
        (* Single-thread execution over the stream. *)
        let imfant = Imfant.compile z in
        let t_imfant = time_runs cfg.reps (fun () -> ignore (Imfant.count imfant stream)) in
        let t_dfa engines =
          Report.fmt_time
            (time_runs cfg.reps (fun () ->
                 Array.iter (fun e -> ignore (Dfa_engine.count e stream)) engines))
        in
        [
          ds.Datasets.abbr;
          string_of_int nfa_states;
          string_of_int z.Mfsa_model.Mfsa.n_states;
          cell (fun d -> string_of_int (sum (fun d -> d.Dfa.n_states) d)) dfas;
          cell
            (fun d ->
              string_of_int
                (sum (fun d -> D2fa.n_stored_transitions (D2fa.compress d)) d))
            dfas;
          Report.fmt_time t_imfant;
          cell t_dfa (per_rule Dfa_engine.compile);
        ])
      (contexts cfg)
  in
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "NFA states"; "MFSA states"; "min-DFA states";
           "D2FA stored arcs"; "iMFAnt (M=all)"; "per-rule DFA" ]
       rows);
  (* Decomposition-based matching (Hyperscan-style, paper §I): literal
     pre-filter + anchored confirmation, exact on the whole ruleset. *)
  Buffer.add_string buf
    "\nDecomposition baseline (literal pre-filter + FSA confirmation, §I):\n";
  let dec_rows =
    List.map
      (fun { ds; fsas; stream } ->
        let t = Decomposed.compile fsas in
        let z =
          match Merge.merge_groups ~m:0 fsas with [ z ] -> z | _ -> assert false
        in
        let imfant = Imfant.compile z in
        let n_im = Imfant.count imfant stream in
        let n_dec = Decomposed.count t stream in
        let t_dec =
          time_runs cfg.reps (fun () ->
              ignore (Decomposed.count t stream))
        in
        let t_im =
          time_runs cfg.reps (fun () -> ignore (Imfant.count imfant stream))
        in
        [
          ds.Datasets.abbr;
          string_of_int (Decomposed.n_prefiltered t);
          string_of_int (Decomposed.n_fallback t);
          string_of_int n_dec;
          (if n_dec = n_im then "yes" else "NO");
          Report.fmt_time t_dec;
          Report.fmt_time t_im;
        ])
      (contexts cfg)
  in
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "prefiltered"; "fallback"; "matches"; "= iMFAnt";
           "decomposed"; "iMFAnt (M=all)" ]
       dec_rows);
  Buffer.add_string buf "\n";
  (* Literal-only sub-ruleset: Aho-Corasick is applicable and exact. *)
  Buffer.add_string buf "\nLiteral-only sub-rulesets (Aho-Corasick applicable):\n";
  let lit_rows =
    List.filter_map
      (fun { ds; stream; _ } ->
        let literal_rules =
          Array.to_list ds.Datasets.rules
          |> List.filter is_literal_rule
          |> List.map literal_text
          |> List.filter (fun s -> s <> "")
          |> Array.of_list
        in
        if Array.length literal_rules < 2 then None
        else begin
          let fsas =
            match Pipeline.build_fsas
                    (Array.map
                       (fun s -> Mfsa_datasets.Rulegen.escape_literal s)
                       literal_rules)
            with
            | Ok fsas -> fsas
            | Error _ -> [||]
          in
          if Array.length fsas = 0 then None
          else begin
            let z =
              match Merge.merge_groups ~m:0 fsas with
              | [ z ] -> z
              | _ -> assert false
            in
            let imfant = Imfant.compile z in
            let ac = Mfsa_engine.Aho_corasick.build literal_rules in
            let n_im = Imfant.count imfant stream in
            let n_ac = Mfsa_engine.Aho_corasick.count ac stream in
            let t_im = time_runs cfg.reps (fun () -> ignore (Imfant.count imfant stream)) in
            let t_ac =
              time_runs cfg.reps (fun () ->
                  ignore (Mfsa_engine.Aho_corasick.count ac stream))
            in
            Some
              [
                ds.Datasets.abbr;
                string_of_int (Array.length literal_rules);
                string_of_int n_im;
                string_of_int n_ac;
                Report.fmt_time t_im;
                Report.fmt_time t_ac;
              ]
          end
        end)
      (contexts cfg)
  in
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "lit. rules"; "iMFAnt matches"; "AC matches";
           "iMFAnt"; "Aho-Corasick" ]
       lit_rows);
  (* 2-stride speedup on one representative single rule per dataset. *)
  Buffer.add_string buf
    "\n2-stride vs 1-stride DFA, anchored scan of the stream (first rule of each dataset):\n";
  let stride_rows =
    List.map
      (fun { ds; fsas; stream } ->
        match Dfa.determinize fsas.(0) with
        | Error _ -> ds.Datasets.abbr :: List.init 5 (fun _ -> "over budget")
        | Ok d ->
            let d = Dfa.minimize d in
            let s2 = Stride.build d in
            let t1 =
              time_runs cfg.reps (fun () -> ignore (Dfa.accepts d stream))
            in
            let t2 =
              time_runs cfg.reps (fun () -> ignore (Stride.accepts s2 stream))
            in
            [
              ds.Datasets.abbr;
              string_of_int d.Dfa.n_states;
              string_of_int s2.Stride.n_classes;
              Report.fmt_time t1;
              Report.fmt_time t2;
              Printf.sprintf "%.2fx" (t1 /. t2);
            ])
      (contexts cfg)
  in
  Buffer.add_string buf
    (Report.table
       ~header:[ "Dataset"; "DFA states"; "byte classes"; "1-stride"; "2-stride"; "speedup" ]
       stride_rows);
  Buffer.contents buf

(* -------------------------------------------------- Bisim ablation *)

let ablation_bisim cfg =
  let rows =
    List.map
      (fun { ds; fsas; stream } ->
        let reduced = Array.map Bisim.reduce fsas in
        let before = Report.fsa_totals fsas in
        let before_reduced = Report.fsa_totals reduced in
        let measure fsas =
          let z =
            match Merge.merge_groups ~m:0 fsas with
            | [ z ] -> z
            | _ -> assert false
          in
          let eng = Imfant.compile z in
          let t = time_runs cfg.reps (fun () -> ignore (Imfant.count eng stream)) in
          (z.Mfsa.n_states, t)
        in
        let plain_states, plain_t = measure fsas in
        let red_states, red_t = measure reduced in
        [
          ds.Datasets.abbr;
          string_of_int before.Report.states;
          string_of_int before_reduced.Report.states;
          string_of_int plain_states;
          string_of_int red_states;
          Report.fmt_time plain_t;
          Report.fmt_time red_t;
        ])
      (contexts cfg)
  in
  header
    "Ablation: bisimulation NFA reduction before merging (extension, not in the paper)"
  ^ Report.table
      ~header:
        [ "Dataset"; "FSA states"; "reduced"; "MFSA states"; "MFSA (reduced)";
          "exec"; "exec (reduced)" ]
      rows

(* ----------------------------------------------- Engine comparison *)

type engine_row = {
  er_dataset : string;
  er_engine : string;
  er_time : float;
  er_mbps : float;
  er_hit_rate : float option;
  er_matches : int;
  er_agree : bool;
  er_stats : Mfsa_obs.Snapshot.t;
}

(* Engine order: the reference engine first, then the rest of the
   requested names in their given order. *)
let engine_list = function
  | Some names -> names
  | None ->
      "imfant" :: List.filter (fun n -> n <> "imfant") (Registry.names ())

(* One M=all automaton per dataset, every requested registry engine
   compiled on it and timed on the same stream. iMFAnt is the
   agreement reference (always measured, listed only when requested).
   Each engine is warmed by the agreement check — for the hybrid that
   first pass populates the configuration cache — then only its
   *counters* are reset ({!Engine_sig.reset_counters}, which keeps
   the caches warm, unlike [reset_stats] which would flush them and
   charge the rebuild to the first timed rep). After timing, the
   counters are reset once more and one extra untimed pass supplies
   the reported stats, so the snapshot — in particular the hybrid's
   cache hit rate — reflects exactly one steady-state pass rather
   than an average smeared across warm-up and [reps] repetitions. *)
let steady_stats inst stream =
  Engine_sig.reset_counters inst;
  ignore (Engine_sig.count inst stream);
  Engine_sig.stats inst

let engine_measurements ?engines cfg =
  let engines = engine_list engines in
  List.map
    (fun { ds; fsas; stream } ->
      let z =
        match Merge.merge_groups ~m:0 fsas with
        | [ z ] -> z
        | _ -> assert false
      in
      let reference = Registry.compile_automaton_exn "imfant" z in
      let per_ref = Engine_sig.count_per_fsa reference stream in
      Engine_sig.reset_counters reference;
      let t_ref =
        time_runs cfg.reps (fun () -> ignore (Engine_sig.count reference stream))
      in
      let stats_ref = steady_stats reference stream in
      let rows =
        List.map
          (fun name ->
            if name = "imfant" then (name, t_ref, per_ref, stats_ref, true)
            else begin
              let inst = Registry.compile_automaton_exn name z in
              let per = Engine_sig.count_per_fsa inst stream in
              let agree = per = per_ref in
              Engine_sig.reset_counters inst;
              let t =
                time_runs cfg.reps (fun () ->
                    ignore (Engine_sig.count inst stream))
              in
              (name, t, per, steady_stats inst stream, agree)
            end)
          engines
      in
      (ds, String.length stream, t_ref, rows))
    (contexts cfg)

(* [None] when the engine exports no cache-hit gauge at all — a
   cache-less engine has no hit rate, which is not the same thing as
   a 0% one. *)
let stat_hit_rate stats =
  Mfsa_obs.Snapshot.number stats "mfsa_engine_cache_hit_ratio"

let engine_rows ?engines cfg =
  List.concat_map
    (fun (ds, size, _t_ref, rows) ->
      let mbps t = float_of_int size /. 1e6 /. t in
      List.map
        (fun (name, t, per, stats, agree) ->
          {
            er_dataset = ds.Datasets.abbr;
            er_engine = name;
            er_time = t;
            er_mbps = mbps t;
            er_hit_rate = stat_hit_rate stats;
            er_matches = Array.fold_left ( + ) 0 per;
            er_agree = agree;
            er_stats =
              Mfsa_obs.Snapshot.with_labels
                [ ("dataset", ds.Datasets.abbr) ]
                stats;
          })
        rows)
    (engine_measurements ?engines cfg)

let engine_compare ?engines cfg =
  let ms = engine_measurements ?engines cfg in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (header
       (Printf.sprintf
          "Engine comparison over the registry, M = all (%d KiB stream, %d reps)"
          cfg.stream_kb cfg.reps));
  let speedups = Hashtbl.create 8 in
  let rows =
    List.concat_map
      (fun (ds, size, t_ref, engine_rows) ->
        let mbps t = float_of_int size /. 1e6 /. t in
        List.map
          (fun (name, t, per, stats, agree) ->
            if name <> "imfant" then
              Hashtbl.replace speedups name
                ((t_ref /. t)
                :: Option.value ~default:[] (Hashtbl.find_opt speedups name));
            [
              ds.Datasets.abbr; name; Report.fmt_time t;
              Printf.sprintf "%.1f" (mbps t);
              (match stat_hit_rate stats with
              | None -> "-"
              | Some hr -> Printf.sprintf "%.4f" hr);
              string_of_int (Array.fold_left ( + ) 0 per);
              Printf.sprintf "%.2fx" (t_ref /. t);
              (if agree then "ok" else "DIVERGED");
            ])
          engine_rows)
      ms
  in
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "Engine"; "Exec time"; "MB/s"; "Hit rate"; "Matches";
           "vs imfant"; "Agreement" ]
       rows);
  Hashtbl.fold (fun name sp acc -> (name, sp) :: acc) speedups []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, sp) ->
         Buffer.add_string buf
           (Printf.sprintf "Geomean %s speedup over imfant: %.2fx\n" name
              (Report.geomean sp)));
  Buffer.contents buf

(* --------------------------------------------- Planner and churn *)

(* Two artefacts behind BENCH_planner.json and the CI planner gate:

   - the planner comparison: the [auto] meta-engine against the
     concrete engines it plans between (imfant, hybrid) and the
     per-rule DFAs on every dataset at M = all — auto must agree with
     the iMFAnt reference everywhere and land within 10% of the best
     concrete engine's throughput;

   - the churn ablation: the hybrid engine at the default
     configuration cache under incremental clock eviction, against an
     unbounded cache and with iMFAnt as the cache-less floor. On the
     churn-heavy dataset (DS9) clock eviction keeps the resident
     working set and the adaptive band grows the capacity; on
     cache-friendly datasets (BRO, PEN) the bounded and unbounded
     rows coincide because the cache never fills. *)

type planner_row = {
  pl_dataset : string;
  pl_engine : string;  (* "auto" or a concrete engine *)
  pl_planned : string option;  (* auto rows: the static plan *)
  pl_active : string option;  (* auto rows: engine active after the run *)
  pl_time : float;
  pl_mbps : float;
  pl_matches : int;
  pl_agree : bool;
  pl_vs_best : float;  (* best concrete time / this row's time *)
}

type churn_row = {
  cr_dataset : string;
  cr_policy : string;  (* "clock" | "unbounded" | "imfant" *)
  cr_cache_rows : int;  (* configured base capacity; 0 for imfant *)
  cr_time : float;
  cr_mbps : float;
  cr_hit_rate : float;  (* steady-state; 0 for imfant *)
  cr_flushes : int;
  cr_evictions : int;
  cr_grows : int;
  cr_capacity : int;  (* adaptive capacity after the steady pass *)
  cr_resident : int;  (* configurations resident after the steady pass *)
  cr_matches : int;
  cr_agree : bool;
}

let planner_engines = [ "imfant"; "hybrid"; "auto" ]

(* The static feature vector the planner sees per dataset, with its
   decision — what the thresholds in {!Mfsa_engine.Planner} were
   fitted against, kept in the report (and BENCH_planner.json) so a
   drifting dataset generator shows up as a feature change, not just
   as an unexplained plan flip. *)
let planner_features cfg =
  let module Planner = Mfsa_engine.Planner in
  List.map
    (fun { ds; fsas; _ } ->
      let z =
        match Merge.merge_groups ~m:0 fsas with
        | [ z ] -> z
        | _ -> assert false
      in
      let f = Planner.features_of_mfsa z in
      (ds.Datasets.abbr, f, Planner.choose f))
    (contexts cfg)

let planner_rows cfg =
  List.concat_map
    (fun { ds; fsas; stream } ->
      let z =
        match Merge.merge_groups ~m:0 fsas with
        | [ z ] -> z
        | _ -> assert false
      in
      let size = String.length stream in
      let mbps t = float_of_int size /. 1e6 /. t in
      let per_ref =
        Engine_sig.count_per_fsa
          (Registry.compile_automaton_exn "imfant" z)
          stream
      in
      let measured =
        List.map
          (fun name ->
            let inst = Registry.compile_automaton_exn name z in
            let per = Engine_sig.count_per_fsa inst stream in
            Engine_sig.reset_counters inst;
            let t =
              best_of_runs cfg.reps (fun () ->
                  ignore (Engine_sig.count inst stream))
            in
            (name, inst, t, per))
          planner_engines
      in
      let best =
        List.fold_left
          (fun acc (name, _, t, _) -> if name = "auto" then acc else min acc t)
          infinity measured
      in
      List.map
        (fun (name, inst, t, per) ->
          let planned, active =
            if name <> "auto" then (None, None)
            else
              match
                Mfsa_obs.Snapshot.find (Engine_sig.stats inst)
                  "mfsa_engine_planner_choice"
              with
              | Some s ->
                  ( List.assoc_opt "planned" s.Mfsa_obs.Snapshot.labels,
                    List.assoc_opt "active" s.Mfsa_obs.Snapshot.labels )
              | None -> (None, None)
          in
          {
            pl_dataset = ds.Datasets.abbr;
            pl_engine = name;
            pl_planned = planned;
            pl_active = active;
            pl_time = t;
            pl_mbps = mbps t;
            pl_matches = Array.fold_left ( + ) 0 per;
            pl_agree = per = per_ref;
            pl_vs_best = best /. t;
          })
        measured)
    (contexts cfg)

(* Small enough that a churning configuration space overflows it at
   bench scale, large enough that the cache-friendly datasets never
   notice the bound. *)
let churn_cache_rows = 4096

let churn_rows cfg =
  let module Hybrid = Mfsa_engine.Hybrid in
  List.concat_map
    (fun { ds; fsas; stream } ->
      let z =
        match Merge.merge_groups ~m:0 fsas with
        | [ z ] -> z
        | _ -> assert false
      in
      let size = String.length stream in
      let mbps t = float_of_int size /. 1e6 /. t in
      let im = Imfant.compile z in
      let per_ref = Imfant.count_per_fsa im stream in
      let t_im =
        best_of_runs cfg.reps (fun () -> ignore (Imfant.count im stream))
      in
      let im_row =
        {
          cr_dataset = ds.Datasets.abbr;
          cr_policy = "imfant";
          cr_cache_rows = 0;
          cr_time = t_im;
          cr_mbps = mbps t_im;
          cr_hit_rate = 0.;
          cr_flushes = 0;
          cr_evictions = 0;
          cr_grows = 0;
          cr_capacity = 0;
          cr_resident = 0;
          cr_matches = Array.fold_left ( + ) 0 per_ref;
          cr_agree = true;
        }
      in
      let policy_row (pname, cache_size) =
        let hy = Hybrid.of_imfant ~cache_size im in
        let per = Hybrid.count_per_fsa hy stream in
        (* Cold-start adaptation counters: the warm-up pass is where the
           clock cache grows toward the working set, so
           flushes/evictions/grows are read here,
           before the counter reset — a warm steady pass on a
           well-sized cache legitimately shows none. *)
        let warm = Hybrid.stats hy in
        Hybrid.reset_stats hy;
        let t =
          best_of_runs cfg.reps (fun () -> ignore (Hybrid.count hy stream))
        in
        (* Steady-state rate gauges: one more pass on the warm cache
           with freshly zeroed counters, so the hit rate is not
           smeared across the reps. *)
        Hybrid.reset_stats hy;
        ignore (Hybrid.count hy stream);
        let st = Hybrid.stats hy in
        {
          cr_dataset = ds.Datasets.abbr;
          cr_policy = pname;
          cr_cache_rows = cache_size;
          cr_time = t;
          cr_mbps = mbps t;
          cr_hit_rate =
            (if st.Hybrid.steps = 0 then 0.
             else float_of_int st.Hybrid.hits /. float_of_int st.Hybrid.steps);
          cr_flushes = warm.Hybrid.flushes + st.Hybrid.flushes;
          cr_evictions = warm.Hybrid.evictions + st.Hybrid.evictions;
          cr_grows = warm.Hybrid.grows + st.Hybrid.grows;
          cr_capacity = st.Hybrid.capacity;
          cr_resident = st.Hybrid.resident_configs;
          cr_matches = Array.fold_left ( + ) 0 per;
          cr_agree = per = per_ref;
        }
      in
      im_row
      :: List.map policy_row
           [ ("clock", churn_cache_rows); ("unbounded", 1 lsl 20) ])
    (contexts cfg)

let planner_report cfg feats prows crows =
  let module Planner = Mfsa_engine.Planner in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (header "Planner features: what the static decision sees, per dataset");
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "States"; "FSAs"; "Transitions"; "Classes"; "Density";
           "Literal share"; "Prefilter"; "Plan" ]
       (List.map
          (fun (abbr, f, choice) ->
            [
              abbr;
              string_of_int f.Planner.f_states;
              string_of_int f.Planner.f_fsas;
              string_of_int f.Planner.f_transitions;
              string_of_int f.Planner.f_classes;
              Printf.sprintf "%.4f" f.Planner.f_density;
              Printf.sprintf "%.3f" f.Planner.f_literal_share;
              string_of_bool f.Planner.f_prefilter;
              choice;
            ])
          feats));
  Buffer.add_string buf
    (header
       (Printf.sprintf
          "Engine planner: auto vs concrete engines, M = all (%d KiB stream, \
           %d reps)"
          cfg.stream_kb cfg.reps));
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "Engine"; "Planned"; "Active"; "MB/s"; "vs best";
           "Matches"; "Agreement" ]
       (List.map
          (fun r ->
            [
              r.pl_dataset; r.pl_engine;
              Option.value ~default:"-" r.pl_planned;
              Option.value ~default:"-" r.pl_active;
              Printf.sprintf "%.1f" r.pl_mbps;
              Printf.sprintf "%.2fx" r.pl_vs_best;
              string_of_int r.pl_matches;
              (if r.pl_agree then "ok" else "DIVERGED");
            ])
          prows));
  let auto_ratios =
    List.filter_map
      (fun r -> if r.pl_engine = "auto" then Some r.pl_vs_best else None)
      prows
  in
  if auto_ratios <> [] then
    Buffer.add_string buf
      (Printf.sprintf
         "Geomean auto vs best concrete engine: %.2fx (min %.2fx)\n"
         (Report.geomean auto_ratios)
         (List.fold_left min infinity auto_ratios));
  Buffer.add_string buf
    (header
       (Printf.sprintf
          "Churn ablation: hybrid at the default %d-row cache vs an \
           unbounded cache and iMFAnt"
          churn_cache_rows));
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "Dataset"; "Policy"; "MB/s"; "Hit rate"; "Flushes"; "Evictions";
           "Grows"; "Capacity"; "Resident"; "Agreement" ]
       (List.map
          (fun r ->
            [
              r.cr_dataset; r.cr_policy;
              Printf.sprintf "%.1f" r.cr_mbps;
              (if r.cr_policy = "imfant" then "-"
               else Printf.sprintf "%.4f" r.cr_hit_rate);
              string_of_int r.cr_flushes;
              string_of_int r.cr_evictions;
              string_of_int r.cr_grows;
              string_of_int r.cr_capacity;
              string_of_int r.cr_resident;
              (if r.cr_agree then "ok" else "DIVERGED");
            ])
          crows));
  List.iter
    (fun ds_abbr ->
      let find p =
        List.find_opt
          (fun r -> r.cr_dataset = ds_abbr && r.cr_policy = p)
          crows
      in
      match (find "clock", find "imfant") with
      | Some c, Some i ->
          Buffer.add_string buf
            (Printf.sprintf
               "churn %s: clock %.2fx over imfant (evictions %d, flushes %d)\n"
               ds_abbr
               (i.cr_time /. c.cr_time)
               c.cr_evictions c.cr_flushes)
      | _ -> ())
    (List.sort_uniq compare (List.map (fun r -> r.cr_dataset) crows));
  Buffer.contents buf

let planner cfg =
  planner_report cfg (planner_features cfg) (planner_rows cfg) (churn_rows cfg)

(* ------------------------------------------------------ Complexity *)

let complexity cfg =
  let ds = Datasets.bro217 ~scale:1.0 () in
  let all_fsas =
    match Pipeline.build_fsas ds.Datasets.rules with
    | Ok fsas -> fsas
    | Error e -> raise (Pipeline.Compile_error e)
  in
  let sizes = [ 13; 27; 54; 108; 217 ] in
  let points =
    List.map
      (fun n ->
        let fsas = Array.sub all_fsas 0 n in
        let t0 = now () in
        for _ = 1 to cfg.reps do
          ignore (Merge.merge fsas)
        done;
        let dt = (now () -. t0) /. float_of_int cfg.reps in
        (n, dt))
      sizes
  in
  (* Least-squares slope of log t against log n. *)
  let logs = List.map (fun (n, t) -> (log (float_of_int n), log t)) points in
  let k = float_of_int (List.length logs) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs in
  let slope = ((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx)) in
  header "Merging cost growth (paper §III-A, Eq. 3)"
  ^ Report.table
      ~header:[ "Ruleset size M"; "Merge time" ]
      (List.map (fun (n, t) -> [ string_of_int n; Report.fmt_time t ]) points)
  ^ Printf.sprintf
      "Fitted growth exponent: time ~ M^%.2f (the paper models Algorithm 1 \
       as O(M^4) on average; the per-label and per-triple indexes bring \
       this implementation's measured growth far below that)\n"
      slope

let run_all cfg =
  String.concat "\n"
    [
      fig1 cfg; table1 cfg; fig7 cfg; fig8 cfg; table2 cfg; fig9 cfg; fig10 cfg;
      ablation_ccsplit cfg; ablation_cluster cfg;
      ablation_bisim cfg; baselines cfg; engine_compare cfg; complexity cfg;
    ]
