(** The measurement kernel shared by every workload of the suite.

    Timings are kept as raw samples and summarised with exact
    nearest-rank statistics — no histogram buckets — so a 10% change
    in a median or a tail is visible as such. *)

val now : unit -> float
(** Monotonic seconds. *)

val time : (unit -> 'a) -> float * 'a
(** [time f] runs [f] once: its duration in seconds and its result. *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-quantile of an
    ascending array: the element of 1-based rank [ceil (q * n)], and
    the minimum for [q = 0]. [q] is clamped to [\[0, 1\]].
    @raise Invalid_argument on an empty array. *)

type summary = {
  n : int;
  median : float;
  q1 : float;  (** Nearest-rank 25th percentile. *)
  q3 : float;  (** Nearest-rank 75th percentile. *)
  min : float;
  max : float;
  tail_q : float;
      (** The highest of p50, p90, p99 and p99.9 with at least ten
          samples beyond it; [1.0] (the maximum) when even p50 has
          fewer. *)
  tail : float;  (** The sample at [tail_q]. *)
}

val summarize : float array -> summary
(** Summary of unsorted samples (the array is not modified).
    @raise Invalid_argument on an empty array. *)

val repeat :
  warmup:int -> min_reps:int -> seconds:float -> (unit -> float) -> float array
(** [repeat ~warmup ~min_reps ~seconds rep] calls [rep] [warmup]
    times, discarding what it returns, then keeps calling it until at
    least [min_reps] calls were made {e and} [seconds] of wall time
    passed since the first timed call. [rep] returns its own sample
    (typically the part of its work it timed), so set-up inside a rep
    stays out of the numbers. *)

(** {2 Windows}

    On a machine shared with other tenants, a neighbour can slow the
    whole machine by a third for seconds at a time; it never speeds it
    up. A timed phase is therefore cut into windows, each metric is
    computed per window, and the least disturbed window is reported.
    Each window covers every input of the workload equally often. *)

val for_seconds : seconds:float -> window:float -> (int -> unit) -> unit
(** [for_seconds ~seconds ~window step] calls [step w] until [seconds]
    have passed (at least once), [w] being the index of the
    [window]-second slice in which the call starts. *)

val by_window : (int * 'a) list -> 'a array list
(** The samples of each window, in window order. *)
