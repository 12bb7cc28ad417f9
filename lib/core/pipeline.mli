(** The multi-level compilation framework (paper §IV, Fig. 4).

    Drives a ruleset through the five stages: front-end (lexical and
    syntactic analysis), AST-to-FSA conversion (Thompson-like
    construction), single-FSA middle-end optimisation (loop expansion,
    ε-removal, multiplicity fusion), MFSA merging with factor [M], and
    extended-ANML generation. Each stage's wall-clock time is recorded
    — the quantities broken down in the paper's Fig. 8.

    Every compile also feeds the process-wide metrics registry
    ({!Mfsa_obs.Obs.default}): one observation per stage in the
    [mfsa_compile_stage_seconds{stage=...}] latency histogram (stages
    [frontend], [loop_expansion], [thompson], [epsilon_removal],
    [multiplicity], [merge], [emit]) plus the [mfsa_compile_total],
    [mfsa_compile_rules_total] and [mfsa_compile_errors_total]
    counters — so live-update deployments see compile cost at run
    time, not only under the bench harness. The [emit] stage is
    observed only when a document is written ({!compile}): the rule
    compiler this module installs in {!Mfsa_engine.Source} (what
    [Registry.compile] runs on a rules source) needs only the merged
    automata, so it stops after [merge]. *)

type stage_times = {
  frontend : float;  (** Lexing + parsing, seconds (Fig. 8 "FE"). *)
  conversion : float;  (** Thompson construction ("AST to FSA"). *)
  optimization : float;
      (** Loop expansion + ε-removal + multiplicity fusion
          ("ME-single"). *)
  merging : float;  (** Algorithm 1 over all groups ("ME-merging"). *)
  backend : float;  (** ANML generation ("BE"). *)
}

val total : stage_times -> float

type compiled = {
  rules : Mfsa_frontend.Ast.rule array;
  fsas : Mfsa_automata.Nfa.t array;  (** Optimised single FSAs. *)
  mfsas : Mfsa_model.Mfsa.t list;  (** ⌈N/M⌉ merged automata. *)
  merge_stats : Mfsa_model.Merge.stats;
  times : stage_times;
  anml : string;  (** The generated extended-ANML document. *)
}

type error = { rule_index : int; pattern : string; message : string }

val error_to_string : error -> string

exception Compile_error of error
(** The typed form of a rule rejection, raised by the [_exn] entry
    points here, in {!Mfsa_core.Ruleset} and in {!Mfsa_live.Live}.
    Serving layers match on it to reject an update while keeping the
    previous generation live; a printer is registered with
    {!Printexc}, so an uncaught one still names the rule. (These
    used to raise bare [Failure], which nothing upstream could
    distinguish from an internal error.) *)

val compile : ?m:int -> string array -> (compiled, error) result
(** [compile ~m patterns] runs the whole framework. [m] is the merging
    factor (default 0 = merge the entire ruleset into one MFSA, the
    paper's "M = all"). *)

val compile_exn : ?m:int -> string array -> compiled
(** @raise Compile_error on a rejected rule. *)

val build_fsa : string -> (Mfsa_automata.Nfa.t, error) result
(** Single-rule convenience: front-end + conversion + single-FSA
    optimisation. *)

val build_fsas : string array -> (Mfsa_automata.Nfa.t array, error) result
(** The per-rule part of the pipeline (everything before merging). *)
