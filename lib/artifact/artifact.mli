(** Versioned binary MFSA artifacts (compile once, load in O(size)).

    An artifact persists everything {!Mfsa_engine.Imfant.compile}
    derives from a merged automaton — the COO vectors, the byte-class
    partition, the class-indexed transition tables, the unanchored
    activation table and the literal-prefilter automaton — as a flat,
    offset-based binary blob: an 8-byte magic
    ({!Mfsa_engine.Source.artifact_magic}), a version word, and a
    checksummed section directory followed by the raw payloads.
    Loading is sequential reads plus validation; nothing is
    re-derived, so artifact-capable engines
    ({!Mfsa_engine.Registry.table_capable_names}) come up in time
    proportional to the file size rather than to the compile
    pipeline's cost. Lazy structures (the hybrid engine's
    configuration cache) stay lazy.

    Linking this library installs the {!Mfsa_engine.Source} artifact
    loader hook, which is how [Registry.compile] resolves
    [Artifact_file]/[Artifact_bytes] sources. Executables that only
    reach artifacts through [Source] should call {!link} once to keep
    the module (and hence the registration) from being dropped. *)

val version : int
(** The format version this build writes (currently [2]); it reads
    versions 1 and 2. Readers reject any other version with
    {!Bad_version} — the format is versioned precisely so old binaries
    fail loudly instead of misparsing newer layouts. *)

(** {2 Errors}

    Every way a load can fail maps to one constructor, so callers
    (CLIs, the serving admin plane) render a one-line diagnosis
    without pattern-matching on message strings. *)

type error =
  | Bad_magic  (** Not an artifact at all. *)
  | Bad_version of int  (** An artifact, but a version we don't read. *)
  | Truncated of string
      (** A section ends before its payload does; carries the section
          name. *)
  | Checksum of string
      (** Stored CRC-32 disagrees with the payload; carries the
          section name. *)
  | Malformed of string
      (** Checksums pass but the structure is inconsistent (indices
          out of range, dimensions disagreeing across sections). *)
  | Io of string  (** File-system failure, message verbatim. *)

val error_to_string : error -> string

exception Error of error
(** Raised by every reader and writer below (registered with
    [Printexc] for readable uncaught output). *)

(** {2 Compile and persist} *)

val export : Mfsa_model.Mfsa.t list -> Mfsa_engine.Tables.t list
(** Compile each automaton with the transition-centric engine and
    export its table bundle — the "compile" half of
    compile-then-{!save}.
    @raise Invalid_argument on an empty list. *)

val to_string : Mfsa_engine.Tables.t list -> string
(** Serialize table bundles to the binary artifact format.
    @raise Invalid_argument on an empty list. *)

val save : string -> Mfsa_engine.Tables.t list -> unit
(** {!to_string} written to a file. @raise Error on I/O failure. *)

(** {2 Load} *)

val of_string : string -> Mfsa_engine.Tables.t list
(** Validate (magic, version, directory bounds, every section
    checksum, structural invariants) and reconstruct the table
    bundles. @raise Error on anything invalid. *)

val load : string -> Mfsa_engine.Tables.t list
(** {!of_string} over a file's contents. @raise Error on I/O
    failure or invalid contents. *)

(** {2 Inspection}

    Header-level metadata without full reconstruction — what
    [mfsa-inspect] prints for [.mfsa] files. Payload checksums of the
    sections actually peeked into are still verified. *)

type section_info = {
  si_name : string;  (** e.g. ["AUTO[0]"], ["META"]. *)
  si_bytes : int;  (** Payload size. *)
}

type info = {
  in_version : int;
  in_bytes : int;  (** Total artifact size. *)
  in_mfsas : int;
  in_rules : int array;  (** Merged FSAs per automaton. *)
  in_states : int array;
  in_classes : int array;  (** Byte classes per automaton. *)
  in_prefiltered : bool array;  (** Whether a prefilter was stored. *)
  in_sections : section_info list;
}

val describe : string -> info
(** @raise Error as {!load}'s validation would. *)

val describe_string : string -> info

val link : unit -> unit
(** No-op whose call forces this module's initialisation — i.e. the
    {!Mfsa_engine.Source.set_artifact_loader} registration — into any
    executable that would otherwise not reference the library. *)
