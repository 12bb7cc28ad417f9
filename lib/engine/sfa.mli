(** SFA-style intra-input parallelism (Sin'ya & Matsuzaki,
    "Simultaneous Finite Automata") for the merged-automaton engines.

    One oversized input is cut into contiguous chunks, one per domain.
    Each chunk runs the sequential engine restricted to its window —
    finding every match whose threads inject inside the chunk, and
    producing the chunk's carry-out boundary configuration
    ({!Imfant.run_chunk} / {!Hybrid.run_chunk}). The per-byte step
    distributes over thread-set union, so the join is a cheap
    left-to-right pass: each boundary's carried configuration is
    stepped through the next chunk with no injection
    ({!Imfant.carry_step}), reporting the matches carried threads
    complete; carried sets shrink monotonically and usually die within
    bytes, so cold boundaries resolve in O(1). The merged, deduplicated
    event set equals the sequential engine's matches exactly —
    including start/end anchors and literals straddling chunk splits.

    Exposed to users as the [sfa{domains=..,threshold=..}:<inner>]
    registry wrapper (inner engine [imfant] or [hybrid]); inputs below
    the threshold, and streaming sessions, take the sequential inner
    path. *)

type match_event = Engine_sig.match_event = { fsa : int; end_pos : int }

(** {2 Wrapper spec} *)

type spec = {
  domains : int;  (** chunk slots per oversized input, in [[1,64]] *)
  threshold : int;  (** input bytes above which a run is chunked, ≥ 1 *)
}

val default : spec
(** 2 domains, 1 MiB threshold. *)

val max_domains : int
(** Upper bound on [spec.domains] (64). *)

val split_spec : string -> (spec * string, string) result option
(** Recognise [sfa:<inner>] / [sfa{k=v,..}:<inner>] engine names:
    [None] when the name is not sfa-shaped, [Some (Error _)] with a
    one-line message on a malformed spec (unknown key, non-positive
    threshold, domains outside [[1,64]]), [Some (Ok (spec, inner))]
    otherwise. *)

val make : name:string -> spec -> inner:string -> (module Engine_sig.S)
(** The registry wrapper module. [inner] must be ["imfant"] or
    ["hybrid"] (validated at compile time). *)

(** {2 Direct API} *)

type t

val compile : spec -> inner:string -> Mfsa_model.Mfsa.t -> t
(** Raises [Invalid_argument] on an invalid spec or an inner engine
    other than imfant/hybrid. Every table either inner reads is
    built eagerly, so replicas share them across domains. *)

val of_tables : spec -> inner:string -> Tables.t -> t

val export_tables : t -> Tables.t

val mfsa : t -> Mfsa_model.Mfsa.t

val spec : t -> spec

val run : t -> string -> match_event list
(** All matches, deduplicated per (FSA, end position) and ordered by
    end position (ties by FSA id) — the same set every sequential
    engine reports. Inputs of at least [threshold] bytes (with
    [domains ≥ 2]) are chunked across freshly spawned domains; smaller
    ones run sequentially. *)

val count : t -> string -> int

val count_per_fsa : t -> string -> int array

val chunked : t -> string -> bool
(** Whether [run] would take the chunked path for this input. *)

type timing = {
  chunk_s : float array;  (** per-chunk local pass seconds *)
  join_s : float;  (** fix-up + merge seconds *)
}

val run_span : t -> string -> match_event list * timing
(** The chunk passes run sequentially on the calling domain, each
    individually timed — the critical path (max chunk time + join
    time) a machine with [domains] free cores would see, independent
    of how many cores the measuring box actually has. Used by
    [bench sfa]; {!run} remains the real parallel path. *)

val stats : engine:string -> t -> Mfsa_obs.Snapshot.t
(** The [mfsa_sfa_*] series, labelled with the wrapper's full engine
    name. *)

val reset_counters : t -> unit

val reset_stats : t -> unit

(** {2 Streaming}

    Sessions take the sequential inner engine: streams already arrive
    chunked by the transport, and the SFA split applies to oversized
    single buffers. Contract as {!Imfant.session}. *)

type session

val session : t -> session

val feed : session -> string -> match_event list

val finish : session -> match_event list

val reset : session -> unit

val position : session -> int
