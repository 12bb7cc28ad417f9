type match_event = { fsa : int; end_pos : int }

module type S = sig
  val name : string
  val doc : string

  type compiled

  val of_tables : Tables.t -> compiled
  val mfsa : compiled -> Mfsa_model.Mfsa.t
  val run : compiled -> string -> match_event list
  val count : compiled -> string -> int
  val count_per_fsa : compiled -> string -> int array
  val stats : compiled -> Mfsa_obs.Snapshot.t
  val reset_stats : compiled -> unit
  val reset_counters : compiled -> unit

  type session

  val session : compiled -> session
  val feed : session -> string -> match_event list
  val finish : session -> match_event list
  val reset : session -> unit
  val position : session -> int
end

type t =
  | Packed :
      (module S with type compiled = 'c and type session = 's) * 'c
      -> t

type session =
  | Session :
      (module S with type compiled = 'c and type session = 's) * 's
      -> session

let pack m c = Packed (m, c)

let name (Packed ((module E), _)) = E.name

let mfsa (Packed ((module E), c)) = E.mfsa c

let run (Packed ((module E), c)) input = E.run c input

let count (Packed ((module E), c)) input = E.count c input

let count_per_fsa (Packed ((module E), c)) input = E.count_per_fsa c input

let stats (Packed ((module E), c)) = E.stats c

let reset_stats (Packed ((module E), c)) = E.reset_stats c

let reset_counters (Packed ((module E), c)) = E.reset_counters c

let session (Packed ((module E), c)) = Session ((module E), E.session c)

let feed (Session ((module E), s)) chunk = E.feed s chunk

let finish (Session ((module E), s)) = E.finish s

let reset (Session ((module E), s)) = E.reset s

let position (Session ((module E), s)) = E.position s
