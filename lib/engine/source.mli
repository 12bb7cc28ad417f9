(** What a compiled engine is built {e from} — the one input type of
    the unified compile surface. Every source resolves to table
    bundles ({!Tables.t}), the one thing every engine is built from.

    Every consumer that used to hand-roll its own path from "rules on
    disk" or "a serialized artifact" to a running engine
    ([mfsa-match], [mfsa-live], [mfsa-served], the bench harness, the
    serving layers) now constructs a [Source.t] and hands it to
    {!Registry.compile_exn} (or [Live.of_source] /
    [Serve.create_source] / [Served.create_source]). The source names
    where the automata come from:

    - {!Rules} / {!Rules_file}: POSIX-ERE patterns, compiled through
      the full pipeline (parse → Thompson → optimise → merge).
    - {!Automata}: already-built automata (e.g. loaded from extended
      ANML) — their tables are derived by {!Imfant.tables}.
    - {!Artifact_file} / {!Artifact_bytes}: a versioned binary
      artifact written by [mfsa-compile --emit]; loading reconstructs
      engine-ready tables in O(size) with no re-derivation.
    - {!Tables}: bundles already in memory, used as they are.

    Rule compilation and artifact decoding live {e above} this
    library ([mfsa.core] and [mfsa.artifact]); they plug in through
    {!set_rule_compiler} / {!set_artifact_loader} at link time, so
    the registry can stay the single compile entrypoint without a
    dependency cycle. *)

type t =
  | Rules of string array  (** One POSIX-ERE pattern per entry. *)
  | Rules_file of string
      (** Path to a rules file (one pattern per line, [#] comments);
          ["-"] reads stdin. *)
  | Automata of Mfsa_model.Mfsa.t list  (** Pre-built automata. *)
  | Artifact_file of string  (** Path to a binary artifact. *)
  | Artifact_bytes of string  (** An artifact already in memory. *)
  | Tables of Tables.t list
      (** Bundles already in memory (e.g. one automaton of an
          artifact load), used as they are. *)

exception Error of string
(** Source-level failure: unreadable rules file, or a missing back
    end (executable linked without the pipeline / artifact library).
    Artifact decoding failures raise the artifact library's own typed
    error instead. *)

val resolve : t -> Tables.t list
(** Read, compile or decode the source into one table bundle per
    automaton. Raises the pipeline's typed
    [Compile_error] on bad rules, the artifact library's typed error
    on a bad artifact, and {!Error} for source-level failures. *)

val describe : t -> string
(** Short human label ("rules file x", "artifact y", …) for error
    messages. *)

val read_rules_file : string -> string array
(** The shared rules-file reader (one pattern per line, [#] comments,
    ["-"] = stdin) — exposed so CLI code paths that need the raw
    patterns (e.g. [mfsa-served]'s add/remove admin) read files with
    the same semantics as {!Rules_file}.
    @raise Error on an unreadable file. *)

(** {2 Artifact sniffing}

    The artifact magic is owned here (below the artifact library) so
    CLIs can dispatch on file type without depending on the decoder. *)

val artifact_magic : string
(** The 8-byte file magic every artifact starts with. *)

val is_artifact_string : string -> bool
val is_artifact_file : string -> bool
(** [false] also when the file is unreadable or shorter than the
    magic. *)

(** {2 Back-end registration} (called at module init by the
    providers; user code never needs these) *)

val set_rule_compiler : (string array -> Mfsa_model.Mfsa.t list) -> unit
val set_artifact_loader :
  ([ `File of string | `Bytes of string ] -> Tables.t list) -> unit
