type t = { classes : bool; prefilter : bool; cache_size : int }

let default = { classes = true; prefilter = true; cache_size = 4096 }

let current = Atomic.make default

let get () = Atomic.get current

let check t =
  if t.cache_size < 1 then
    invalid_arg "Tuning.set: cache_size must be at least 1"

let set t =
  check t;
  Atomic.set current t

let with_tuning t f =
  check t;
  let saved = Atomic.get current in
  Atomic.set current t;
  Fun.protect ~finally:(fun () -> Atomic.set current saved) f
