(** High-level ruleset matching — the library's front door.

    Wraps the whole system for the common consumer: compile a ruleset
    once (choosing the merging factor and, optionally, the clustering
    and partial-CC-merging extensions), then match streams; matches
    are reported against the {e original rule indices} regardless of
    how rules were grouped and merged internally. Engines are compiled
    lazily once and reused across calls; multi-MFSA rulesets can be
    executed on a domain pool.

    {[
      let rs = Ruleset.compile_exn [| "GET /admin"; "\\.\\./\\.\\." |] in
      Ruleset.run rs payload
      |> List.iter (fun { Ruleset.rule; end_pos } -> ...)
    ]} *)

type t

type match_event = { rule : int;  (** Index into the compiled rules. *) end_pos : int }

val compile :
  ?m:int ->
  ?cluster:bool ->
  ?ccsplit:bool ->
  string array ->
  (t, Pipeline.error) result
(** [compile rules] builds the matcher. [m] is the merging factor
    (default 0 = one MFSA for the whole ruleset); [cluster] (default
    false) groups rules by INDEL similarity instead of sequentially
    (paper §VIII); [ccsplit] (default false) enables partial
    character-class merging (paper §VI-A). *)

val compile_exn :
  ?m:int ->
  ?cluster:bool ->
  ?ccsplit:bool ->
  string array ->
  t
(** @raise Pipeline.Compile_error on the first offending rule. *)

val n_rules : t -> int

val patterns : t -> string array
(** The rules, in original order. *)

val n_mfsas : t -> int

val run : ?threads:int -> t -> string -> match_event list
(** All matches, ordered by end position (rule index within ties).
    [threads] (default 1) distributes the MFSAs over a domain pool —
    results are identical at any thread count. *)

val count_per_rule : ?threads:int -> t -> string -> int array
(** Match counts per original rule. *)

val count : ?threads:int -> t -> string -> int

val to_anml : t -> string
(** Serialise the compiled automata (extended ANML). Note the document
    stores the {e merged} ruleset: reloading with {!of_anml} recovers
    the same matcher, including the rule order. *)

val of_anml : string -> (t, string) result
(** Load a matcher from a document written by {!to_anml}. *)

(** {2 Streaming}

    Chunked matching with cross-boundary state, wrapping
    {!Mfsa_engine.Imfant.session} for every merged automaton and
    mapping matches back to original rule indices. *)

type session

val session : t -> session

val feed : session -> string -> match_event list
(** Consume a chunk; completed matches, with global stream offsets. *)

val finish : session -> match_event list
(** End of stream: pending matches of end-anchored rules. *)

val reset : session -> unit

val compression : t -> float * float
(** [(states %, transitions %)] the merge achieved over the rules'
    separate optimised FSAs. *)
