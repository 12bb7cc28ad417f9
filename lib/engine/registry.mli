(** The engine registry: names to first-class engine modules.

    One table maps engine names to implementations of
    {!Engine_sig.S}. Everything that selects an execution engine — the
    [-e/--engine] flag of [mfsa-match], [mfsa-live] and the benchmark
    driver, [Live.create ~engine], the engine-compare experiment, the
    {!Mfsa_serve.Serve} replicas — resolves the name here, so adding
    an engine means registering one module, not editing five call
    sites.

    Registered out of the box:

    - ["imfant"] — {!Imfant}, the transition-centric MFSA engine
      (paper §V), the default.
    - ["hybrid"] — {!Hybrid}, the lazy-DFA configuration cache over
      iMFAnt.
    - ["dfa"] — {!Dfa_engine} per projected rule: scanning DFAs,
      subset construction + Hopcroft.
    - ["auto"] — the {!Planner} meta-engine: picks ["imfant"],
      ["hybrid"] or ["dfa"] per ruleset from static compile-time
      features (literal coverage, rule count, merged size), then
      delegates; when the plan was ["hybrid"] it monitors the
      windowed cache hit rate online and {!Hybrid.demote}s it to a
      plain iMFAnt scan on sustained churn — sessions keep their
      state across the demotion. Its stats are the inner engine's series
      relabelled [engine="auto"] plus [mfsa_engine_planner_*].

    The per-rule ["dfa"] engine satisfies the streaming half of the
    signature by re-scanning a buffered copy of the stream (documented
    in {!Engine_sig.S}); its match semantics are identical.

    The paper's other baselines — per-rule {!Infant}, {!Decomposed}
    and {!Aho_corasick} — are plain modules, not registry engines: no
    plan picks them, and the experiments that use them call them
    directly.

    Beyond the table, the registry resolves the {!Faulty} wrapper
    grammar: any name of the form [faulty{k=v,...}:<engine>] (the
    parameter block optional, wrappers nestable) denotes the named
    engine behind a seeded deterministic fault injector — the
    reproducible failure source the {!Mfsa_serve.Serve}
    fault-tolerance tests and CI smoke run against. Wrapper names are
    resolvable by {!find}/{!compile} but do not appear in {!names}. *)

val register : (module Engine_sig.S) -> unit
(** Make an engine selectable by name. Re-registering a name replaces
    the previous entry (latest wins), so tests and downstream
    libraries can shadow built-ins. *)

val find : string -> (module Engine_sig.S) option
(** Table lookup, falling back to the [faulty{...}:<inner>] wrapper
    grammar ([None] on a malformed spec — {!compile} carries the
    detailed message). *)

val find_exn : string -> (module Engine_sig.S)
(** @raise Invalid_argument on an unknown name, listing the
    registered ones (or detailing a malformed wrapper spec). *)

val underlying : string -> string
(** The innermost engine name once every [faulty] wrapper is
    stripped: [underlying "faulty{seed=3}:imfant" = "imfant"] — what a
    fault-injected serving run compares against as its clean
    sequential baseline. The identity on non-wrapper names. *)

val names : unit -> string list
(** Registered names, sorted. *)

val doc : string -> string option
(** The engine's one-line description. *)

val help : unit -> string
(** A ready-to-print listing, one ["name — doc"] line per engine —
    what [-e help] shows. *)

val unknown_message : string -> string
(** The shared error message for an unrecognised engine name. *)

(** {2 The unified compile surface}

    One entrypoint from "where the automata come from" ({!Source.t}:
    rules, pre-built automata, or a binary artifact) to running packed
    engines — what [mfsa-match], [mfsa-live], [mfsa-served] and the
    bench harness all call. *)

val compile : string -> Source.t -> (Engine_sig.t list, string) result
(** Resolve the engine name, resolve the source, and compile one
    packed instance per automaton the source yields. [Error] carries
    engine-level failures (unknown name, malformed wrapper spec, or
    an artifact source handed to an engine without a table loader —
    checked {e before} the artifact is read). Source-level failures
    propagate as their own typed exceptions: the pipeline's
    [Compile_error] for bad rules, the artifact library's error for a
    bad artifact, [Source.Error] for an unreadable file. *)

val compile_exn : string -> Source.t -> Engine_sig.t list
(** @raise Invalid_argument on the [Error] cases of {!compile} (plus
    the source-level exceptions it lets through). *)

(** {2 Per-automaton compilation}

    The lower-level half of {!compile}, for callers that already hold
    an automaton or a table bundle (the serving layer's replica
    spawns, the live layer's generation refreshes, the experiment
    drivers). *)

val compile_automaton : string -> Mfsa_model.Mfsa.t -> (Engine_sig.t, string) result
(** Resolve the name and compile a packed engine instance. *)

val compile_automaton_exn : string -> Mfsa_model.Mfsa.t -> Engine_sig.t
(** @raise Invalid_argument on an unknown name. *)

val compile_tables : string -> Tables.t -> (Engine_sig.t, string) result
(** Adopt a persisted table bundle through the engine's
    {!Engine_sig.S.of_tables} capability; [Error] with a clean
    one-line message when the engine has none. *)

val compile_tables_exn : string -> Tables.t -> Engine_sig.t

val can_load_tables : string -> bool
(** Whether the named engine has a table loader ([false] also for
    unknown names). [faulty{..}] wrappers never do: fault injection
    exists to test the compile-from-source recovery paths. *)

val table_capable_names : unit -> string list
(** The registered engines that can load artifacts, sorted. *)

val no_table_loader : string -> string
(** The shared one-line error for an artifact source handed to an
    engine without a table loader (lists the capable engines) — what
    {!compile} and {!compile_tables} say, exported so other serving
    entry points report the identical wording. *)
