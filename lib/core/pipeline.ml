module Parser = Mfsa_frontend.Parser
module Ast = Mfsa_frontend.Ast
module Thompson = Mfsa_automata.Thompson
module Epsilon = Mfsa_automata.Epsilon
module Loops = Mfsa_automata.Loops
module Multiplicity = Mfsa_automata.Multiplicity
module Simplify = Mfsa_automata.Simplify
module Merge = Mfsa_model.Merge
module Anml = Mfsa_anml.Anml

let log_src = Logs.Src.create "mfsa.pipeline" ~doc:"MFSA compilation framework"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stage_times = {
  frontend : float;
  conversion : float;
  optimization : float;
  merging : float;
  backend : float;
}

let total t =
  t.frontend +. t.conversion +. t.optimization +. t.merging +. t.backend

type compiled = {
  rules : Ast.rule array;
  fsas : Mfsa_automata.Nfa.t array;
  mfsas : Mfsa_model.Mfsa.t list;
  merge_stats : Merge.stats;
  times : stage_times;
  anml : string;
}

type error = { rule_index : int; pattern : string; message : string }

let error_to_string { rule_index; pattern; message } =
  Printf.sprintf "rule %d (%s): %s" rule_index pattern message

exception Compile_error of error

let () =
  Printexc.register_printer (function
    | Compile_error e ->
        Some ("Mfsa_core.Pipeline.Compile_error: " ^ error_to_string e)
    | _ -> None)

exception Stop of error

let now () = Mfsa_util.Clock.now ()

let timed cell f =
  let t0 = now () in
  let r = f () in
  cell := !cell +. (now () -. t0);
  r

(* --------------------------------------------------- Stage tracing *)

(* One latency histogram per compile stage, in the process-wide
   registry: every compile — batch, or a single rule arriving through
   a Live update — adds one observation per stage, so production
   deployments see where compile time goes without the bench harness.
   The lumped stage_times quantities keep the paper's Fig. 8 grouping;
   the spans split the middle-end into its three passes. *)
let stage_span =
  let h stage =
    Mfsa_obs.Obs.histogram ~registry:Mfsa_obs.Obs.default
      ~help:"Compile-pipeline stage latency in seconds, per compile call"
      ~labels:[ ("stage", stage) ]
      "mfsa_compile_stage_seconds"
  in
  let frontend = h "frontend"
  and expansion = h "loop_expansion"
  and thompson = h "thompson"
  and epsilon = h "epsilon_removal"
  and multiplicity = h "multiplicity"
  and merge = h "merge"
  and emit = h "emit" in
  fun stage ->
    match stage with
    | `Frontend -> frontend
    | `Expansion -> expansion
    | `Thompson -> thompson
    | `Epsilon -> epsilon
    | `Multiplicity -> multiplicity
    | `Merge -> merge
    | `Emit -> emit

let compiles_total =
  Mfsa_obs.Obs.counter ~registry:Mfsa_obs.Obs.default
    ~help:"Successful pipeline compile calls" "mfsa_compile_total"

let compile_rules_total =
  Mfsa_obs.Obs.counter ~registry:Mfsa_obs.Obs.default
    ~help:"Rules successfully taken through the per-rule stages"
    "mfsa_compile_rules_total"

let compile_errors_total =
  Mfsa_obs.Obs.counter ~registry:Mfsa_obs.Obs.default
    ~help:"Compile calls rejected with a rule error"
    "mfsa_compile_errors_total"

let rule_error i pattern = function
  | Parser.Parse_error { pos; message } ->
      { rule_index = i; pattern; message = Printf.sprintf "at offset %d: %s" pos message }
  | Invalid_argument message -> { rule_index = i; pattern; message }
  | e -> raise e

let compile_stages patterns =
  let fe = ref 0.
  and exp = ref 0.
  and conv = ref 0.
  and eps = ref 0.
  and mult = ref 0. in
  (* Front-end: lexical and syntactic analyses of every rule. *)
  let parse i pattern =
    match timed fe (fun () -> Parser.parse_exn pattern) with
    | rule -> rule
    | exception e ->
        Mfsa_obs.Obs.inc compile_errors_total;
        raise (Stop (rule_error i pattern e))
  in
  let rules = Array.mapi parse patterns in
  (* Middle-end, per rule: loop expansion (optimisation), Thompson
     construction (conversion), ε-removal and multiplicity fusion
     (optimisation). *)
  let build i rule =
    match
      let expanded =
        timed exp (fun () -> Simplify.char_classes_rule (Loops.expand_rule rule))
      in
      let nfa = timed conv (fun () -> Thompson.build expanded) in
      let nfa = timed eps (fun () -> Epsilon.remove nfa) in
      timed mult (fun () -> Multiplicity.fuse nfa)
    with
    | fsa -> fsa
    | exception e ->
        Mfsa_obs.Obs.inc compile_errors_total;
        raise (Stop (rule_error i patterns.(i) e))
  in
  let fsas = Array.mapi build rules in
  Mfsa_obs.Obs.add compile_rules_total (Array.length patterns);
  Mfsa_obs.Obs.observe (stage_span `Frontend) !fe;
  Mfsa_obs.Obs.observe (stage_span `Expansion) !exp;
  Mfsa_obs.Obs.observe (stage_span `Thompson) !conv;
  Mfsa_obs.Obs.observe (stage_span `Epsilon) !eps;
  Mfsa_obs.Obs.observe (stage_span `Multiplicity) !mult;
  (rules, fsas, !fe, !conv, !exp +. !eps +. !mult)

let build_fsas patterns =
  match compile_stages patterns with
  | _, fsas, _, _, _ -> Ok fsas
  | exception Stop e -> Error e

let build_fsa pattern =
  match build_fsas [| pattern |] with
  | Ok [| fsa |] -> Ok fsa
  | Ok _ -> assert false
  | Error e -> Error e

(* The whole framework; [~emit:false] stops after merging, for the
   rule compiler below, which needs only the automata. Its empty
   [anml] never leaves this module. *)
let run ~emit ?(m = 0) patterns =
  if Array.length patterns = 0 then
    Error { rule_index = 0; pattern = ""; message = "empty ruleset" }
  else
    match compile_stages patterns with
    | exception Stop e -> Error e
    | rules, fsas, fe, conv, opt ->
        let stats =
          ref
            {
              Merge.seeds = 0;
              chains = 0;
              merged_transitions = 0;
              merged_states = 0;
            }
        in
        let t0 = now () in
        let mfsas = Merge.merge_groups ~stats ~m fsas in
        let merging = now () -. t0 in
        let t1 = now () in
        let anml = if emit then Anml.write mfsas else "" in
        let backend = now () -. t1 in
        Mfsa_obs.Obs.observe (stage_span `Merge) merging;
        if emit then Mfsa_obs.Obs.observe (stage_span `Emit) backend;
        Mfsa_obs.Obs.inc compiles_total;
        Log.info (fun l ->
            l
              "compiled %d rules into %d MFSA(s): FE %.3fms, AST->FSA %.3fms, \
               ME-single %.3fms, ME-merging %.3fms, BE %.3fms"
              (Array.length patterns) (List.length mfsas) (fe *. 1e3)
              (conv *. 1e3) (opt *. 1e3) (merging *. 1e3) (backend *. 1e3));
        Ok
          {
            rules;
            fsas;
            mfsas;
            merge_stats = !stats;
            times =
              {
                frontend = fe;
                conversion = conv;
                optimization = opt;
                merging;
                backend;
              };
            anml;
          }

let compile ?m patterns = run ~emit:true ?m patterns

let run_exn ~emit ?m patterns =
  match run ~emit ?m patterns with
  | Ok c -> c
  | Error e -> raise (Compile_error e)

let compile_exn ?m patterns = run_exn ~emit:true ?m patterns

(* Install the rule-compilation half of {!Mfsa_engine.Source}'s hook
   pair: any executable linked against this library can hand
   [Source.Rules]/[Rules_file] to [Registry.compile] and get the
   pipeline up to merging, [Compile_error] propagation included. An
   engine needs only the merged automata, so no ANML is written. *)
let () =
  Mfsa_engine.Source.set_rule_compiler (fun patterns ->
      (run_exn ~emit:false patterns).mfsas)
