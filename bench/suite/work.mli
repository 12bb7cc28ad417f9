(** What every workload shares: its run context, the result it
    reports, and the helpers for references and counters. *)

type ctx = {
  seed : int;  (** Drives every generated input. *)
  seconds : float;  (** Length of the timed phase. *)
  smoke : bool;  (** Shrunken inputs, for the test suite. *)
  dir : string;  (** Directory for the run's files. *)
}

(** {2 Results} *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** Samples behind [value]. *)
  q1 : float;
  q3 : float;
  min : float;
  tail_q : float;  (** See {!Measure.summary}. *)
  tail : float;
}

type result

val result : unit -> result

val value : result -> string -> string -> ?n:int -> float -> unit
(** [value r name unit v] records one number. *)

val summary : result -> string -> string -> Measure.summary -> unit
(** The median of the samples, with their statistics. *)

val p99 : result -> string -> string -> float array -> unit
(** The nearest-rank 99th percentile of the samples. *)

val throughput : result -> (int * (int * float)) list -> unit
(** Timed operations as [(window, (bytes, seconds))]: records
    [throughput_mbps], the best window's bytes per busy second, with
    the quartiles of all windows and their count. *)

val latency : result -> (int * float) list -> unit
(** Operation latencies in seconds by window: records
    [latency_p50_ms], the lowest window median (quartiles and count
    over windows), and [latency_p99_ms] over every sample. *)

val check : result -> string -> bool -> unit
(** One verified operation: counts towards [attempted], and towards
    [failed] (with a message naming it on stderr) when false. *)

val absorb : result -> result -> unit
(** [absorb r extra] adds [extra]'s checks to [r], and those of its
    metrics [r] does not have yet. *)

val has : result -> string -> bool

val attempted : result -> int
val failed : result -> int
val metrics : result -> metric list
(** In the order recorded. *)

val to_json : result -> Json.t
val of_json : Json.t -> result

(** {2 Inputs and references} *)

val dataset : string -> Mfsa_datasets.Datasets.t
(** A paper-size ruleset by abbreviation. *)

val default_seed : int

val pin : ctx -> result -> string -> int -> unit
(** [pin ctx r workload total] checks a reference match count against
    the value pinned for the default seed (full-size inputs only). *)

type signature = { count : int; sum : int }
(** An order-independent digest of a set of match events. *)

val empty : signature
val add : signature -> int -> int -> signature
(** [add s rule end_pos]. *)

val events_sig : Mfsa_engine.Engine_sig.match_event list -> signature

val chunk_sigs :
  chunk:int -> len:int -> Mfsa_engine.Engine_sig.match_event list -> signature array
(** The reference digest of each [chunk]-byte chunk of a [len]-byte
    stream: the events ending inside it (end positions are one past
    the last byte, so those in [(a, b\]]). *)

val split : string -> int -> string array
(** Consecutive chunks of at most the given size. *)

val mfsa : string array -> Mfsa_model.Mfsa.t
(** The whole ruleset merged into one automaton. *)

val compile : string -> Mfsa_model.Mfsa.t -> Mfsa_engine.Engine_sig.t

(** {2 Counters} *)

val counter : Mfsa_obs.Snapshot.t -> string -> float
(** Sum of every sample of a counter or gauge; 0 when absent. *)

val vm_hwm_mb : int -> float
(** Peak resident set size of a process ([VmHWM]), in MB. *)
