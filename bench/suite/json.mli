(** The little JSON the suite reads and writes: results passed from a
    workload process to its parent, the output files, and
    [BENCHMARK.json] for the schema check. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t

val to_string : t -> string
(** Compact, on one line. Numbers keep every digit ([%.17g]);
    non-finite numbers are written as [null]. *)

val of_string : string -> t
(** @raise Failure on malformed input or trailing bytes. *)

val member : string -> t -> t
(** The field of an object; [Null] when absent or not an object. *)

val to_float : t -> float
(** @raise Failure unless a number. *)

val to_list : t -> t list
(** @raise Failure unless an array. *)

val to_str : t -> string
(** @raise Failure unless a string. *)
