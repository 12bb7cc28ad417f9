(** In-memory spans around calls into the layers under test.

    With tracing off, {!span} is a direct call. With tracing on, each
    call records its name, start and end, the enclosing span on the
    same domain, and a request id (inherited from the enclosing span
    unless given). Spans stay in memory until the run writes them out. *)

type span = {
  id : int;  (** Positive, unique within the process. *)
  parent : int;  (** Enclosing span's id; [0] at top level. *)
  name : string;
  req : int;  (** Request id; [0] outside any request. *)
  start : float;  (** Monotonic seconds. *)
  stop : float;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val span : ?req:int -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a span when tracing is on (also
    when [f] raises). *)

val spans : unit -> span list
(** Every recorded span, in start order. *)

val self_times : span list -> string -> float array
(** Self time, in seconds, of each span with this name: its duration
    minus the time its direct children cover. Children run on their
    parent's domain, one after another, so their durations add up. *)

val to_json : span list -> Json.t
