(** Reproduction harness for every table and figure of the paper's
    evaluation (§VI). Each function renders one artefact as plain
    text; {!run_all} prints the full evaluation in paper order.

    The experiments run on the synthetic datasets of
    {!Mfsa_datasets.Datasets} (DESIGN.md substitution 1). Default
    sizes are scaled down so the whole suite finishes in minutes on
    one core; set the [MFSA_SCALE], [MFSA_STREAM_KB] and [MFSA_REPS]
    environment variables (or build a {!config} directly) to approach
    the paper's full scale (scale 1.0, 1024 KiB, 30/15 repetitions —
    see EXPERIMENTS.md). *)

type config = {
  scale : float;  (** Ruleset size multiplier (1.0 = paper size). *)
  stream_kb : int;  (** Input stream size in KiB (paper: 1024). *)
  reps : int;  (** Repetitions averaged for timing experiments. *)
  merge_factors : int list;
      (** The M sweep; 0 encodes the paper's "all". *)
  thread_counts : int list;  (** The T sweep of Fig. 10. *)
  hw_threads : int;
      (** Modelled hardware-thread limit for the Fig. 10 projection
          (the paper's i7-6700 exposes 8); scaling saturates here. *)
}

val default : unit -> config
(** Scaled-down defaults, overridable via environment variables. *)

val paper_scale : config
(** The paper's configuration (expect hours of runtime). *)

val fig1 : config -> string
(** Average normalised INDEL similarity per dataset (Fig. 1). *)

val table1 : config -> string
(** Dataset characteristics: rules, states, transitions, character
    classes (Table I). *)

val fig7 : config -> string
(** State and transition compression % per dataset and merging factor
    (Fig. 7). *)

val fig8 : config -> string
(** Compilation-stage time breakdown per dataset and merging factor
    (Fig. 8). *)

val table2 : config -> string
(** Average and maximum number of active FSAs during M=all traversal
    (Table II). *)

val fig9 : config -> string
(** Single-threaded execution time and throughput improvement over
    M=1 per dataset and merging factor (Fig. 9), with the geometric
    means the paper headlines. *)

val fig10 : config -> string
(** Multi-threaded scaling: projected greedy-scheduler latency per
    dataset, merging factor and thread count, with best-performance
    and best-thread-utilisation markers (Fig. 10). *)

val ablation_ccsplit : config -> string
(** Ablation of the paper's §VI-A future-work optimisation: state and
    transition compression at M=all with and without the partial
    character-class merging pre-pass ({!Ccsplit}). *)

val ablation_cluster : config -> string
(** Ablation of the paper's §VIII clustering direction: compression
    with sequential sampling (the paper's grouping) versus
    INDEL-similarity clustering ({!Cluster}) at several merging
    factors. *)

val baselines : config -> string
(** Comparison against the classical alternatives of §II/§VII on each
    dataset: per-rule scanning DFAs (subset construction + Hopcroft),
    D²FA default-transition compression, 2-stride DFAs, and — on the
    literal-only sub-ruleset — Aho–Corasick. Reports representation
    sizes and single-thread execution times next to the MFSA's. *)

val ablation_bisim : config -> string
(** Ablation of an optional pre-merging pass not in the paper:
    bisimulation-based NFA state reduction ({!Bisim})
    applied to every rule before Algorithm 1 — per-rule size
    reduction, and compression/execution at M=all with and without
    it. *)

type engine_row = {
  er_dataset : string;  (** Dataset abbreviation. *)
  er_engine : string;  (** A {!Mfsa_engine.Registry} engine name. *)
  er_time : float;  (** Seconds per pass over the stream. *)
  er_mbps : float;  (** Stream megabytes per second. *)
  er_hit_rate : float option;
      (** Warm cache hit rate, read from the engine's
          [mfsa_engine_cache_hit_ratio] gauge; [None] for engines
          that report none (cache-less engines have no hit rate). *)
  er_matches : int;  (** Total match events on the stream. *)
  er_agree : bool;
      (** Per-FSA match counts identical to the iMFAnt reference. *)
  er_stats : Mfsa_obs.Snapshot.t;
      (** The engine's full warm metric snapshot, tagged with a
          [dataset] label — exported verbatim into [BENCH_obs.json]. *)
}

val engine_rows : ?engines:string list -> config -> engine_row list
(** Machine-readable form of {!engine_compare}: one row per engine
    per dataset, M = all. [engines] defaults to every
    {!Mfsa_engine.Registry} name. Consumed by the benchmark driver's
    JSON export. *)

val engine_compare : ?engines:string list -> config -> string
(** Every requested {!Mfsa_engine.Registry} engine (default: all
    registered) on every dataset at M = all: execution time,
    throughput, warm cache hit rate where the engine reports one, and
    a per-dataset agreement check of the per-FSA match counts against
    the iMFAnt reference (rows disagreeing are marked [DIVERGED] —
    grepped for by the CI smoke gate). *)

type planner_row = {
  pl_dataset : string;  (** Dataset abbreviation. *)
  pl_engine : string;
      (** ["auto"] or one of the concrete engines it plans between
          (["imfant"], ["hybrid"]). *)
  pl_planned : string option;
      (** Auto rows: the engine the static features selected. [None]
          on concrete rows. *)
  pl_active : string option;
      (** Auto rows: the engine active after the run — differs from
          [pl_planned] when the churn monitor demoted a hybrid plan
          mid-stream. *)
  pl_time : float;  (** Seconds per pass over the stream. *)
  pl_mbps : float;  (** Stream megabytes per second. *)
  pl_matches : int;  (** Total match events on the stream. *)
  pl_agree : bool;
      (** Per-FSA match counts identical to the iMFAnt reference. *)
  pl_vs_best : float;
      (** Best concrete engine's time divided by this row's — 1.0 is
          the per-dataset winner; the acceptance bar holds auto's rows
          at >= 0.9 (within 10% of the best concrete engine). *)
}

type churn_row = {
  cr_dataset : string;  (** Dataset abbreviation. *)
  cr_policy : string;
      (** ["clock"] (the default-sized cache under incremental
          second-chance eviction), ["unbounded"] (a cache large enough
          never to fill — the working-set reference), or ["imfant"]
          (the cache-less floor). *)
  cr_cache_rows : int;
      (** Configured base cache capacity in rows (0 for imfant). *)
  cr_time : float;  (** Seconds per pass over the stream. *)
  cr_mbps : float;  (** Stream megabytes per second. *)
  cr_hit_rate : float;
      (** Steady-state memo hit rate of one warm pass (0 for
          imfant). *)
  cr_flushes : int;
      (** Whole-table drops, cumulative over the cold warm-up pass
          plus one steady pass — 0 unless something demoted or
          flushed the engine; the CI gate pins it there. *)
  cr_evictions : int;
      (** Single-row evictions, cumulative over warm-up plus one
          steady pass — under clock eviction a well-sized cache
          evicts while growing toward the working set, then stops. *)
  cr_grows : int;
      (** Adaptive capacity doublings, cumulative over warm-up plus
          one steady pass. *)
  cr_capacity : int;  (** Adaptive capacity after the steady pass. *)
  cr_resident : int;
      (** Configurations resident after the steady pass — under
          ["unbounded"], the ruleset's working-set size on this
          stream. *)
  cr_matches : int;  (** Total match events on the stream. *)
  cr_agree : bool;  (** Per-FSA counts identical to iMFAnt's. *)
}

val planner_features :
  config -> (string * Mfsa_engine.Planner.features * string) list
(** Per dataset at M = all: the static feature vector
    {!Mfsa_engine.Planner.features_of_mfsa} extracts and the engine
    {!Mfsa_engine.Planner.choose} picks from it — the data the
    planner thresholds were fitted against, exported as the
    ["features"] array of [BENCH_planner.json]. *)

val planner_rows : config -> planner_row list
(** The [auto] meta-engine against each concrete engine it plans
    between, per dataset at M = all — machine-readable half of
    {!planner}, exported as the ["planner"] array of
    [BENCH_planner.json]. *)

val churn_rows : config -> churn_row list
(** The churn ablation: the hybrid engine at the default
    configuration-cache size ([4096] rows) under clock eviction, with
    an unbounded-cache reference (the working-set size) and iMFAnt as
    the cache-less floor — the ["churn"] array of
    [BENCH_planner.json]. On rulesets whose working set overflows the
    base cache (DS9, TCP, RG1) clock eviction grows the capacity under
    eviction pressure and keeps the working set resident; on
    cache-friendly ones (BRO, PEN) the cache never fills and the
    bounded and unbounded rows coincide. *)

val planner_report :
  config ->
  (string * Mfsa_engine.Planner.features * string) list ->
  planner_row list ->
  churn_row list ->
  string
(** Render precomputed planner features, comparison and churn rows
    (tables plus the geomean/min auto-vs-best and per-dataset
    clock-vs-imfant summary lines the CI gate greps). *)

val planner : config -> string
(** [planner_report] over {!planner_features}, {!planner_rows} and
    {!churn_rows}. *)

val complexity : config -> string
(** Empirical validation of the merging cost model (paper §III-A,
    Eq. 3): wall-clock time of Algorithm 1 over growing prefixes of
    the BRO ruleset, with the fitted log-log slope. The paper
    approximates the average complexity as O(M⁴) under Nfs ≈ M; the
    per-label and per-triple hash indexes bring this implementation's
    measured growth far below the model's bound. *)

val run_all : config -> string
(** Every artefact in paper order — the Figs. 1 and 7-10 and Tables I
    and II reproductions followed by the ablations and baselines —
    separated by headers. *)
