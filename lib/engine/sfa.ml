(* SFA-style intra-input parallelism (Sin'ya & Matsuzaki,
   "Simultaneous Finite Automata") over the merged-automaton engines.

   One input is cut into [domains] contiguous chunks. Each chunk runs
   an injection-driven local pass on its own domain — exactly the
   sequential engine restricted to the window, so it finds every match
   whose threads were injected inside the chunk ([Imfant.run_chunk] /
   [Hybrid.run_chunk]) and produces the chunk's carry-out boundary
   configuration. Because the per-byte step distributes over
   thread-set union, the sequential state at a boundary is
   local-carry ∪ (carry-in stepped with no injection); the join is
   therefore a left-to-right pass that steps each boundary's carried
   configuration through the next chunk ([Imfant.carry_step]),
   reporting the matches carried threads complete and dying out — with
   a prefilter, usually within a few bytes — so cold boundaries
   resolve in O(1). Events from the local passes and the fix-ups are
   deduplicated per (fsa, end position) and sorted; the result is
   byte-identical to the sequential engine's match set.

   The hybrid inner engine keeps one replica per chunk slot (chunk i
   always runs on replica i, so its memo cache stays warm across
   runs); the imfant inner engine shares one read-only table set
   across all domains. The shared [Imfant.t] also serves the
   sequential path — inputs below the threshold, and streaming
   sessions, which by nature already arrive in chunks. *)

module Mfsa = Mfsa_model.Mfsa
module Snapshot = Mfsa_obs.Snapshot

type match_event = Engine_sig.match_event = { fsa : int; end_pos : int }

(* ------------------------------------------------------------ Spec *)

type spec = { domains : int; threshold : int }

let default = { domains = 2; threshold = 1 lsl 20 }

let max_domains = 64

let prefix = "sfa"

let starts_with ~p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parse_param cfg kv =
  match String.index_opt kv '=' with
  | None -> Error (Printf.sprintf "parameter %S is not key=value" kv)
  | Some i -> (
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      match key with
      | "domains" -> (
          match int_of_string_opt v with
          | Some n when n >= 1 && n <= max_domains ->
              Ok { cfg with domains = n }
          | _ ->
              Error
                (Printf.sprintf "domains wants an integer in [1,%d], got %S"
                   max_domains v))
      | "threshold" -> (
          match int_of_string_opt v with
          | Some n when n >= 1 -> Ok { cfg with threshold = n }
          | _ ->
              Error
                (Printf.sprintf
                   "threshold wants a positive byte count, got %S" v))
      | _ ->
          Error
            (Printf.sprintf "unknown parameter %S (expected domains, threshold)"
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
            Some (Error "sfa{...} must be followed by ':<engine>'")
          else
            Some
              (Result.map
                 (fun cfg -> (cfg, String.sub tail 1 (String.length tail - 1)))
                 (parse_params params))
    else None

(* ---------------------------------------------------------- Engine *)

type kind =
  | Im  (* chunk passes share the read-only imfant tables *)
  | Hy of Hybrid.t array * Hybrid.t
      (* per-chunk-slot replicas; the extra engine serves the
         sequential path and sessions, keeping the slot caches warm *)

type t = {
  im : Imfant.t;
  kind : kind;
  spec : spec;
  (* Coordinator-domain counters (surfaced as the mfsa_sfa_ series). *)
  mutable runs : int;  (* parallel (chunked) runs *)
  mutable seq_runs : int;  (* inputs below the threshold *)
  mutable chunks : int;
  mutable fixup_bytes : int;  (* bytes the join fix-ups consumed *)
  mutable carry_dead : int;  (* boundaries whose carry-in was empty *)
  mutable carry_live : int;
  mutable skipped : int;  (* prefilter skips inside imfant chunk passes *)
}

let validate spec =
  if spec.domains < 1 || spec.domains > max_domains then
    invalid_arg
      (Printf.sprintf "Sfa: domains must be in [1,%d], got %d" max_domains
         spec.domains);
  if spec.threshold < 1 then
    invalid_arg
      (Printf.sprintf "Sfa: threshold must be positive, got %d" spec.threshold)

let of_imfant spec ~inner im =
  validate spec;
  let kind =
    match inner with
    | "imfant" -> Im
    | "hybrid" ->
        Hy
          ( Array.init spec.domains (fun _ -> Hybrid.of_imfant im),
            Hybrid.of_imfant im )
    | other ->
        invalid_arg
          (Printf.sprintf "Sfa: inner engine must be imfant or hybrid, got %S"
             other)
  in
  {
    im;
    kind;
    spec;
    runs = 0;
    seq_runs = 0;
    chunks = 0;
    fixup_bytes = 0;
    carry_dead = 0;
    carry_live = 0;
    skipped = 0;
  }

let compile spec ~inner z = of_imfant spec ~inner (Imfant.compile z)

let of_tables spec ~inner tb = of_imfant spec ~inner (Imfant.of_tables tb)

let export_tables t = Imfant.export_tables t.im

let mfsa t = Imfant.mfsa t.im

let spec t = t.spec

(* --------------------------------------------------------- Running *)

(* Contiguous chunk boundaries: bounds.(i) .. bounds.(i+1). Inputs
   shorter than the domain count produce empty chunks, which carry
   nothing and join as the identity. *)
let chunk_bounds len d = Array.init (d + 1) (fun i -> i * len / d)

let cmp_ev (f1, e1) (f2, e2) =
  if e1 <> e2 then Int.compare e1 e2 else Int.compare f1 f2

(* One chunk-local pass; returns (events reversed, carry-out). Safe to
   run on any domain: Im reads the shared tables only, Hy mutates its
   slot-private replica. *)
let chunk_pass t input ~slot ~start ~stop =
  let acc = ref [] in
  let on_match fsa e = acc := (fsa, e) :: !acc in
  match t.kind with
  | Im ->
      let carry, skipped = Imfant.run_chunk t.im input ~start ~stop ~on_match in
      (!acc, carry, skipped)
  | Hy (reps, _) ->
      let carry = Hybrid.run_chunk reps.(slot) input ~start ~stop ~on_match in
      (!acc, carry, 0)

(* The left-to-right join over the per-chunk results: step each
   boundary's carry-in through the next chunk with no injection,
   collect the matches carried threads complete, and fold the final
   event set. Runs on the calling (coordinating) domain. *)
let join t input bounds results =
  let d = Array.length results in
  let events = ref [] in
  let carry = ref [||] in
  for i = 0 to d - 1 do
    let local_events, local_carry, skipped = results.(i) in
    t.skipped <- t.skipped + skipped;
    List.iter (fun ev -> events := ev :: !events) local_events;
    if i > 0 then begin
      if Array.length !carry = 0 then t.carry_dead <- t.carry_dead + 1
      else begin
        t.carry_live <- t.carry_live + 1;
        let stepped, consumed =
          Imfant.carry_step t.im !carry input ~start:bounds.(i)
            ~stop:bounds.(i + 1)
            ~on_match:(fun fsa e -> events := (fsa, e) :: !events)
        in
        t.fixup_bytes <- t.fixup_bytes + consumed;
        carry := stepped
      end
    end;
    carry := Imfant.carry_union t.im local_carry !carry
  done;
  List.sort_uniq cmp_ev !events
  |> List.map (fun (fsa, end_pos) -> { fsa; end_pos })

let run_chunked t input =
  let len = String.length input in
  let d = t.spec.domains in
  let bounds = chunk_bounds len d in
  let results = Array.make d ([], [||], 0) in
  let workers =
    Array.init (d - 1) (fun j ->
        Domain.spawn (fun () ->
            chunk_pass t input ~slot:(j + 1) ~start:bounds.(j + 1)
              ~stop:bounds.(j + 2)))
  in
  results.(0) <- chunk_pass t input ~slot:0 ~start:0 ~stop:bounds.(1);
  Array.iteri (fun j w -> results.(j + 1) <- Domain.join w) workers;
  t.runs <- t.runs + 1;
  t.chunks <- t.chunks + d;
  join t input bounds results

let run_seq t input =
  t.seq_runs <- t.seq_runs + 1;
  match t.kind with
  | Im -> Imfant.run t.im input
  | Hy (_, seq) -> Hybrid.run seq input

let chunked t input =
  t.spec.domains >= 2 && String.length input >= t.spec.threshold

let run t input =
  if chunked t input then run_chunked t input else run_seq t input

let count t input = List.length (run t input)

let count_per_fsa t input =
  let counts = Array.make (mfsa t).Mfsa.n_fsas 0 in
  List.iter (fun e -> counts.(e.fsa) <- counts.(e.fsa) + 1) (run t input);
  counts

(* ------------------------------------------------- Span measurement *)

(* The same chunk passes run sequentially on the calling domain, each
   individually timed: span = max chunk time + join time is the
   critical path a machine with [domains] free cores would see. The
   benches gate on it because wall clock on a core-starved box (CI
   containers included) measures the scheduler, not the
   decomposition; [run] above is still the real parallel path and is
   what agreement is checked against. *)
type timing = { chunk_s : float array; join_s : float }

let run_span t input =
  let len = String.length input in
  let d = t.spec.domains in
  let bounds = chunk_bounds len d in
  let results = Array.make d ([], [||], 0) in
  let chunk_s = Array.make d 0. in
  for slot = 0 to d - 1 do
    let t0 = Unix.gettimeofday () in
    results.(slot) <-
      chunk_pass t input ~slot ~start:bounds.(slot) ~stop:bounds.(slot + 1);
    chunk_s.(slot) <- Unix.gettimeofday () -. t0
  done;
  t.runs <- t.runs + 1;
  t.chunks <- t.chunks + d;
  let t0 = Unix.gettimeofday () in
  let events = join t input bounds results in
  let join_s = Unix.gettimeofday () -. t0 in
  (events, { chunk_s; join_s })

(* ------------------------------------------------------------- Obs *)

let stats ~engine t =
  let labels = [ ("engine", engine) ] in
  let z = Imfant.mfsa t.im in
  [
    Snapshot.gauge_i ~labels ~help:"States in the compiled automaton"
      "mfsa_engine_states" z.Mfsa.n_states;
    Snapshot.gauge_i ~labels ~help:"Transitions in the compiled automaton"
      "mfsa_engine_transitions" (Mfsa.n_transitions z);
    Snapshot.counter_i ~labels ~help:"Inputs run through the chunked SFA path"
      "mfsa_sfa_runs_total" t.runs;
    Snapshot.counter_i ~labels
      ~help:"Inputs below the split threshold, run sequentially"
      "mfsa_sfa_seq_runs_total" t.seq_runs;
    Snapshot.counter_i ~labels ~help:"Chunk-local passes executed"
      "mfsa_sfa_chunks_total" t.chunks;
    Snapshot.counter_i ~labels
      ~help:"Bytes the join fix-ups stepped carried configurations through"
      "mfsa_sfa_fixup_bytes_total" t.fixup_bytes;
    Snapshot.counter_i ~labels
      ~help:"Chunk boundaries whose carry-in was already empty (O(1) join)"
      "mfsa_sfa_carry_dead_total" t.carry_dead;
    Snapshot.counter_i ~labels
      ~help:"Chunk boundaries joined by stepping a live carried configuration"
      "mfsa_sfa_carry_live_total" t.carry_live;
    Snapshot.counter_i ~labels
      ~help:"Bytes the literal prefilter skipped inside chunk passes"
      "mfsa_sfa_prefilter_skipped_bytes_total" t.skipped;
    Snapshot.gauge_i ~labels ~help:"Chunk slots (domains) per oversized input"
      "mfsa_sfa_domains" t.spec.domains;
    Snapshot.gauge_i ~labels
      ~help:"Input bytes above which a run is chunked across domains"
      "mfsa_sfa_threshold_bytes" t.spec.threshold;
  ]

let reset_counters t =
  t.runs <- 0;
  t.seq_runs <- 0;
  t.chunks <- 0;
  t.fixup_bytes <- 0;
  t.carry_dead <- 0;
  t.carry_live <- 0;
  t.skipped <- 0

let reset_stats t =
  reset_counters t;
  Imfant.reset_skipped t.im;
  match t.kind with
  | Im -> ()
  | Hy (reps, seq) ->
      Array.iter
        (fun h ->
          Hybrid.promote h;
          Hybrid.flush h;
          Hybrid.reset_stats h)
        reps;
      Hybrid.promote seq;
      Hybrid.flush seq;
      Hybrid.reset_stats seq

(* ------------------------------------------------------- Streaming *)

(* Streams already arrive chunked by the transport; a session is a
   sequential inner session — the SFA split applies to oversized
   single buffers, not to feeds. *)
type session = S_im of Imfant.session | S_hy of Hybrid.session

let session t =
  match t.kind with
  | Im -> S_im (Imfant.session t.im)
  | Hy (_, seq) -> S_hy (Hybrid.session seq)

let feed s chunk =
  match s with
  | S_im s -> Imfant.feed s chunk
  | S_hy s -> Hybrid.feed s chunk

let finish = function
  | S_im s -> Imfant.finish s
  | S_hy s -> Hybrid.finish s

let reset = function S_im s -> Imfant.reset s | S_hy s -> Hybrid.reset s

let position = function
  | S_im s -> Imfant.position s
  | S_hy s -> Hybrid.position s

(* ------------------------------------------------ Registry wrapper *)

let make ~name:full_name (cfg : spec) ~inner : (module Engine_sig.S) =
  (module struct
    let name = full_name

    let doc =
      Printf.sprintf
        "SFA intra-input parallel wrapper (%d domains, split at %d B) over \
         the %s engine"
        cfg.domains cfg.threshold inner

    type compiled = t

    let compile z = compile cfg ~inner z

    let of_tables = Some (fun tb -> of_tables cfg ~inner tb)

    let to_tables c = Some (export_tables c)

    let mfsa = mfsa

    let run = run

    let count = count

    let count_per_fsa = count_per_fsa

    let stats c = stats ~engine:full_name c

    let reset_stats = reset_stats

    let reset_counters = reset_counters

    type nonrec session = session

    let session = session

    let feed = feed

    let finish = finish

    let reset = reset

    let position = position
  end)
