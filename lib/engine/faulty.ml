module Prng = Mfsa_util.Prng
module Snapshot = Mfsa_obs.Snapshot

exception Transient_fault of string

exception Replica_poisoned of string

type config = {
  seed : int;
  fail_every : int;
  poison_every : int;
  delay_every : int;
  delay_ms : float;
  fail_p : float;
  poison_p : float;
  delay_p : float;
}

let default =
  {
    seed = 42;
    fail_every = 5;
    poison_every = 0;
    delay_every = 0;
    delay_ms = 1.;
    fail_p = 0.;
    poison_p = 0.;
    delay_p = 0.;
  }

(* ----------------------------------------------------- Spec parsing *)

let prefix = "faulty"

let starts_with ~p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parse_param cfg kv =
  match String.index_opt kv '=' with
  | None -> Error (Printf.sprintf "parameter %S is not key=value" kv)
  | Some i -> (
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      let int_v () =
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "%s wants a non-negative integer, got %S" key v)
      in
      let prob_v () =
        match float_of_string_opt v with
        | Some p when p >= 0. && p <= 1. -> Ok p
        | _ -> Error (Printf.sprintf "%s wants a probability in [0,1], got %S" key v)
      in
      let float_v () =
        match float_of_string_opt v with
        | Some f when f >= 0. -> Ok f
        | _ -> Error (Printf.sprintf "%s wants a non-negative number, got %S" key v)
      in
      match key with
      | "seed" -> (
          match int_of_string_opt v with
          | Some n -> Ok { cfg with seed = n }
          | None -> Error (Printf.sprintf "seed wants an integer, got %S" v))
      | "fail_every" -> Result.map (fun n -> { cfg with fail_every = n }) (int_v ())
      | "poison_every" ->
          Result.map (fun n -> { cfg with poison_every = n }) (int_v ())
      | "delay_every" ->
          Result.map (fun n -> { cfg with delay_every = n }) (int_v ())
      | "delay_ms" -> Result.map (fun f -> { cfg with delay_ms = f }) (float_v ())
      | "fail" -> Result.map (fun p -> { cfg with fail_p = p }) (prob_v ())
      | "poison" -> Result.map (fun p -> { cfg with poison_p = p }) (prob_v ())
      | "delay" -> Result.map (fun p -> { cfg with delay_p = p }) (prob_v ())
      | _ ->
          Error
            (Printf.sprintf
               "unknown parameter %S (expected seed, fail_every, poison_every, \
                delay_every, delay_ms, fail, poison, delay)"
               key))

let parse_params s =
  if s = "" then Ok default
  else
    List.fold_left
      (fun acc kv -> Result.bind acc (fun cfg -> parse_param cfg (String.trim kv)))
      (Ok default)
      (String.split_on_char ',' s)

let split_spec name =
  if not (starts_with ~p:prefix name) then None
  else
    let rest =
      String.sub name (String.length prefix)
        (String.length name - String.length prefix)
    in
    if rest = "" then None
    else if rest.[0] = ':' then
      let inner = String.sub rest 1 (String.length rest - 1) in
      if inner = "" then Some (Error "missing inner engine after ':'")
      else Some (Ok (default, inner))
    else if rest.[0] = '{' then
      match String.index_opt rest '}' with
      | None -> Some (Error "unterminated '{' in parameters")
      | Some j ->
          let params = String.sub rest 1 (j - 1) in
          let tail = String.sub rest (j + 1) (String.length rest - j - 1) in
          if String.length tail < 2 || tail.[0] <> ':' then
            Some (Error "faulty{...} must be followed by ':<engine>'")
          else
            Some
              (Result.map
                 (fun cfg -> (cfg, String.sub tail 1 (String.length tail - 1)))
                 (parse_params params))
    else None

(* ------------------------------------------------------ The wrapper *)

let make ~name:full_name cfg (module E : Engine_sig.S) : (module Engine_sig.S) =
  (module struct
    let name = full_name

    let doc =
      Printf.sprintf
        "deterministic fault injection (seed %d) over the %s engine" cfg.seed
        E.name

    type compiled = {
      inner : E.compiled;
      mutable g : Prng.t;
      mutable attempts : int;  (* run/count entry calls since load/reset *)
      mutable transients : int;
      mutable delays : int;
      mutable poisons : int;
      mutable poisoned : bool;  (* sticky until a fresh load (or reset) *)
    }

    (* Loads through the wrapped engine's constructor with a fresh
       schedule and [poisoned = false]: a supervision respawn from the
       shared table bundle is a genuinely new replica. *)
    let of_tables tb =
      {
        inner = E.of_tables tb;
        g = Prng.create cfg.seed;
        attempts = 0;
        transients = 0;
        delays = 0;
        poisons = 0;
        poisoned = false;
      }

    let mfsa c = E.mfsa c.inner

    (* The schedule: each batch entry point counts as one attempt; an
       attempt whose ordinal hits a *_every multiple (or whose seeded
       coin comes up for a *_p probability) injects that fault. Faults
       fire *before* the inner engine touches the input, so a retried
       attempt replays cleanly. A poisoned replica fails every call
       until it is reloaded — the signal replica supervision keys
       on. *)
    let inject c =
      if c.poisoned then raise (Replica_poisoned full_name);
      c.attempts <- c.attempts + 1;
      let hit every p =
        (every > 0 && c.attempts mod every = 0)
        || (p > 0. && Prng.chance c.g p)
      in
      if hit cfg.delay_every cfg.delay_p then begin
        c.delays <- c.delays + 1;
        if cfg.delay_ms > 0. then Unix.sleepf (cfg.delay_ms /. 1000.)
      end;
      if hit cfg.poison_every cfg.poison_p then begin
        c.poisons <- c.poisons + 1;
        c.poisoned <- true;
        raise (Replica_poisoned full_name)
      end;
      if hit cfg.fail_every cfg.fail_p then begin
        c.transients <- c.transients + 1;
        raise (Transient_fault full_name)
      end

    let run c input =
      inject c;
      E.run c.inner input

    let count c input =
      inject c;
      E.count c.inner input

    let count_per_fsa c input =
      inject c;
      E.count_per_fsa c.inner input

    let stats c =
      let labels = [ ("engine", full_name) ] in
      Snapshot.merge
        [
          [
            Snapshot.counter_i ~labels
              ~help:"Batch entry calls seen by the fault injector"
              "mfsa_engine_fault_attempts_total" c.attempts;
            Snapshot.counter_i ~labels ~help:"Transient faults injected"
              "mfsa_engine_fault_transient_total" c.transients;
            Snapshot.counter_i ~labels ~help:"Delays injected"
              "mfsa_engine_fault_delays_total" c.delays;
            Snapshot.counter_i ~labels ~help:"Poison faults injected"
              "mfsa_engine_fault_poisons_total" c.poisons;
            Snapshot.gauge_i ~labels
              ~help:"1 while the replica is poisoned (every call fails)"
              "mfsa_engine_fault_poisoned" (if c.poisoned then 1 else 0);
          ];
          E.stats c.inner;
        ]

    (* Reset replays the whole fault schedule from the start — the
       metric-reproducibility contract of Engine_sig. *)
    let reset_stats c =
      c.g <- Prng.create cfg.seed;
      c.attempts <- 0;
      c.transients <- 0;
      c.delays <- 0;
      c.poisons <- 0;
      c.poisoned <- false;
      E.reset_stats c.inner

    (* The fault schedule is position-dependent state, not a warm
       cache: a counters-only reset still replays it, so both resets
       coincide here. *)
    let reset_counters = reset_stats

    (* Streaming sessions delegate without injection: faults model
       per-request serving failures, and a mid-stream fault would
       desynchronise the session position from the stream. *)
    type session = E.session

    let session c = E.session c.inner

    let feed = E.feed

    let finish = E.finish

    let reset = E.reset

    let position = E.position
  end)
