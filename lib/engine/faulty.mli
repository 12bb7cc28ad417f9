(** Deterministic fault injection over any engine.

    [faulty] wraps another {!Engine_sig.S} implementation and makes it
    fail, stall or die on a {e seeded, reproducible} schedule — the
    test bed for everything {!Mfsa_serve.Serve}'s fault-tolerance
    layer does (retries, deadlines, replica supervision). Because the
    schedule is driven by an attempt counter and a {!Mfsa_util.Prng}
    stream seeded from the spec, a failing run replays exactly in a
    test or in CI.

    Selected through {!Registry} with the wrapper syntax

    {[
      faulty:imfant
      faulty{seed=7,fail_every=3,delay_ms=2}:hybrid
      faulty:faulty{poison_every=11}:imfant   (* wrappers nest *)
    ]}

    Parameters ([k=v], comma-separated):
    - [seed] — PRNG seed for the probabilistic modes (default 42);
    - [fail_every] — every k-th attempt raises {!Transient_fault}
      (default 5; 0 disables);
    - [poison_every] — every k-th attempt raises {!Replica_poisoned}
      and marks the replica poisoned: {e every} later call fails until
      the replica is reloaded (default 0);
    - [delay_every] — every k-th attempt first sleeps [delay_ms]
      milliseconds (default 0; [delay_ms] defaults to 1);
    - [fail]/[poison]/[delay] — probabilistic variants in [[0,1]],
      drawn from the seeded PRNG, composable with the deterministic
      ones.

    Faults fire {e before} the inner engine sees the input, so a
    retried attempt replays cleanly; streaming sessions delegate to
    the inner engine without injection. *)

exception Transient_fault of string
(** A one-off failure: retrying the same call may succeed. The string
    is the wrapper's full registry name. *)

exception Replica_poisoned of string
(** The replica is dead: every call fails until it is reloaded —
    what {!Mfsa_serve.Serve}'s supervision reacts to by respawning the
    worker's replica. *)

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

val default : config
(** [seed=42, fail_every=5], everything else off. *)

val split_spec : string -> ((config * string), string) result option
(** Parse a registry name against the wrapper grammar
    [faulty\{k=v,...\}:<inner>]. [None]: not a faulty spec at all.
    [Some (Error msg)]: faulty-shaped but malformed. [Some (Ok (cfg,
    inner))]: parsed; [inner] is the wrapped engine's name (itself
    resolvable, so wrappers nest). *)

val make : name:string -> config -> (module Engine_sig.S) -> (module Engine_sig.S)
(** [make ~name cfg (module E)] is the fault-injecting engine; [name]
    becomes its registry name (the full spec string, also the payload
    of the fault exceptions). It loads through the wrapped engine's
    [of_tables], so it runs a compiled ruleset and an artifact alike.
    Each load gets its own attempt counter and PRNG, so every replica
    replays the same schedule independently. *)
