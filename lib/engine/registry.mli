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
    - ["auto"] — the {!Planner} meta-engine: picks ["imfant"] or
      ["hybrid"] per ruleset from static compile-time features
      (whether iMFAnt's literal prefilter engages), then delegates; when
      the plan was ["hybrid"] it monitors the windowed cache hit rate
      online and {!Hybrid.demote}s it to a plain iMFAnt scan on
      sustained churn — sessions keep their state across the
      demotion. Its stats are the inner engine's series relabelled
      [engine="auto"] plus [mfsa_engine_planner_*].

    Every registered engine streams natively: a session carries its
    cross-chunk state, so feeding costs the chunk, not the stream.
    Every engine, wrappers included, has one constructor,
    {!Engine_sig.S.of_tables}: a ruleset and an artifact reach it the
    same way, as a table bundle.

    The paper's baselines — per-rule iNFAnt, per-rule DFAs, the
    decomposition matcher — live in the separate [mfsa.paper]
    library, not in the registry: no plan picks them, and only the
    experiments run them.

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
    rules, pre-built automata, a binary artifact or table bundles) to
    running packed engines — what [mfsa-match], [mfsa-live],
    [mfsa-served] and the bench harness all call. There is one
    construction path: the source resolves to table bundles
    ({!Source.resolve}) and the engine is built from each by its
    {!Engine_sig.S.of_tables}, so every engine, the [faulty{..}] and
    [sfa{..}] wrappers included, runs an artifact as it runs rules. *)

val compile : string -> Source.t -> (Engine_sig.t list, string) result
(** Resolve the engine name, resolve the source, and build one packed
    instance per automaton the source yields. [Error] carries
    engine-name failures (unknown name, malformed wrapper spec),
    checked {e before} the source is read. Source-level failures
    propagate as their own typed exceptions: the pipeline's
    [Compile_error] for bad rules, the artifact library's error for a
    bad artifact, [Source.Error] for an unreadable file. *)

val compile_exn : string -> Source.t -> Engine_sig.t list
(** @raise Invalid_argument on the [Error] cases of {!compile} (plus
    the source-level exceptions it lets through). *)

(** {2 Per-automaton construction}

    The lower-level half of {!compile}, for callers that already hold
    an automaton or a table bundle (the serving layer's replica
    spawns, the live layer's generation refreshes, the experiment
    drivers). *)

val compile_automaton_exn : string -> Mfsa_model.Mfsa.t -> Engine_sig.t
(** Build the named engine from {!Imfant.tables} of the automaton.
    @raise Invalid_argument on an unknown name. *)

val compile_tables_exn : string -> Tables.t -> Engine_sig.t
(** Build the named engine from a table bundle in O(size).
    @raise Invalid_argument on an unknown name. *)
