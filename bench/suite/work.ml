open Mfsa_engine

type ctx = { seed : int; seconds : float; smoke : bool; dir : string }

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;
  q1 : float;
  q3 : float;
  min : float;
  tail_q : float;
  tail : float;
}

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (* newest first *)
}

let result () = { attempted = 0; failed = 0; metrics = [] }

let record r m = r.metrics <- m :: List.filter (fun x -> x.name <> m.name) r.metrics

let value r name unit_ ?(n = 1) v =
  record r { name; unit_; value = v; n; q1 = v; q3 = v; min = v; tail_q = 1.; tail = v }

let of_summary name unit_ value (s : Measure.summary) =
  { name; unit_; value; n = s.n; q1 = s.q1; q3 = s.q3; min = s.min; tail_q = s.tail_q; tail = s.tail }

let summary r name unit_ (s : Measure.summary) = record r (of_summary name unit_ s.median s)

let p99 r name unit_ samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  value r name unit_ ~n:(Array.length s) (Measure.percentile s 0.99)

let best r name unit_ pick per_window =
  let per = Array.of_list per_window in
  record r (of_summary name unit_ (Array.fold_left pick per.(0) per) (Measure.summarize per))

let throughput r ops =
  Measure.by_window ops
  |> List.map (fun w ->
         let bytes, busy = Array.fold_left (fun (b, t) (b', t') -> (b + b', t +. t')) (0, 0.) w in
         float_of_int bytes /. 1e6 /. busy)
  |> best r "throughput_mbps" "MB/s" Float.max

let latency r samples =
  Measure.by_window samples
  |> List.map (fun w -> (Measure.summarize w).median *. 1e3)
  |> best r "latency_p50_ms" "ms" Float.min;
  p99 r "latency_p99_ms" "ms" (Array.of_list (List.map (fun (_, s) -> s *. 1e3) samples))

let check r what ok =
  r.attempted <- r.attempted + 1;
  if not ok then (
    r.failed <- r.failed + 1;
    if r.failed <= 5 then Printf.eprintf "suite: DIVERGED: %s\n%!" what)

let has r name = List.exists (fun m -> m.name = name) r.metrics

let absorb r extra =
  r.attempted <- r.attempted + extra.attempted;
  r.failed <- r.failed + extra.failed;
  List.iter (fun m -> if not (has r m.name) then record r m) (List.rev extra.metrics)

let attempted r = r.attempted
let failed r = r.failed
let metrics r = List.rev r.metrics

let to_json r =
  Json.Obj
    [
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ( "metrics",
        Json.Arr
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("name", Json.Str m.name);
                   ("unit", Json.Str m.unit_);
                   ("value", Json.Num m.value);
                   ("n", Json.int m.n);
                   ("q1", Json.Num m.q1);
                   ("q3", Json.Num m.q3);
                   ("min", Json.Num m.min);
                   ("tail_q", Json.Num m.tail_q);
                   ("tail", Json.Num m.tail);
                 ])
             (metrics r)) );
    ]

let of_json j =
  let num k o = Json.to_float (Json.member k o) in
  {
    attempted = int_of_float (num "attempted" j);
    failed = int_of_float (num "failed" j);
    metrics =
      List.rev_map
        (fun o ->
          {
            name = Json.to_str (Json.member "name" o);
            unit_ = Json.to_str (Json.member "unit" o);
            value = num "value" o;
            n = int_of_float (num "n" o);
            q1 = num "q1" o;
            q3 = num "q3" o;
            min = num "min" o;
            tail_q = num "tail_q" o;
            tail = num "tail" o;
          })
        (Json.to_list (Json.member "metrics" j));
  }

let dataset abbr =
  match Mfsa_datasets.Datasets.find ~scale:1.0 abbr with
  | Some d -> d
  | None -> invalid_arg ("unknown dataset " ^ abbr)

let default_seed = 1

(* Reference match counts at the default seed, full-size inputs. A
   change here means the inputs or the reference engine changed, and
   every earlier measurement stops being comparable. *)
let pinned =
  [
    ("lit-stream", 87156);
    ("nolit-stream", 2661);
    ("demote-stream", 4009);
    ("rule-churn", 20729);
    ("served", 2680);
  ]

let pin ctx r workload total =
  if ctx.seed = default_seed && not ctx.smoke then
    match List.assoc_opt workload pinned with
    | Some expected ->
        check r
          (Printf.sprintf "%s: reference count %d, pinned %d" workload total expected)
          (total = expected)
    | None -> ()

type signature = { count : int; sum : int }

let empty = { count = 0; sum = 0 }

(* A multiplicative mix, so the digest of a multiset is the wrapping
   sum of its elements' digests. *)
let add s rule end_pos =
  let h = (rule * 0x9E3779B1) lxor (end_pos * 0x7FEB352D) in
  { count = s.count + 1; sum = s.sum + (h lxor (h lsr 29)) }

let events_sig evs =
  List.fold_left (fun s (e : Engine_sig.match_event) -> add s e.fsa e.end_pos) empty evs

let chunk_sigs ~chunk ~len evs =
  let sigs = Array.make ((len + chunk - 1) / chunk) empty in
  List.iter
    (fun (e : Engine_sig.match_event) ->
      let i = (e.end_pos - 1) / chunk in
      sigs.(i) <- add sigs.(i) e.fsa e.end_pos)
    evs;
  sigs

let split s size =
  let n = String.length s in
  Array.init ((n + size - 1) / size) (fun i ->
      String.sub s (i * size) (min size (n - (i * size))))

let mfsa rules =
  match (Mfsa_core.Pipeline.compile_exn rules).mfsas with
  | [ z ] -> z
  | _ -> assert false

let compile engine z = Registry.compile_automaton_exn engine z

let counter snap name =
  List.fold_left
    (fun acc (s : Mfsa_obs.Snapshot.sample) ->
      match s.value with
      | Mfsa_obs.Snapshot.Counter v | Gauge v when s.name = name -> acc +. v
      | _ -> acc)
    0. snap

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
        | _ -> go ()
      in
      go ())
