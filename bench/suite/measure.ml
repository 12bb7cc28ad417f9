let now = Mfsa_util.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  let q = Float.min 1. (Float.max 0. q) in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (rank - 1))

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  tail_q : float;
  tail : float;
}

(* Samples strictly beyond the nearest-rank [q]-quantile. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Measure.summarize: no samples";
  let s = Array.copy samples in
  Array.sort Float.compare s;
  let tail_q =
    match List.find_opt (fun q -> beyond n q >= 10) [ 0.999; 0.99; 0.9; 0.5 ] with
    | Some q -> q
    | None -> 1.0
  in
  {
    n;
    median = percentile s 0.5;
    q1 = percentile s 0.25;
    q3 = percentile s 0.75;
    min = s.(0);
    max = s.(n - 1);
    tail_q;
    tail = percentile s tail_q;
  }

let repeat ~warmup ~min_reps ~seconds rep =
  for _ = 1 to warmup do
    ignore (rep () : float)
  done;
  let t0 = now () in
  let acc = ref [] and k = ref 0 in
  while !k < min_reps || now () -. t0 < seconds do
    acc := rep () :: !acc;
    incr k
  done;
  Array.of_list (List.rev !acc)

let for_seconds ~seconds ~window step =
  let t0 = now () in
  let rec go first =
    let elapsed = now () -. t0 in
    if first || elapsed < seconds then (
      step (int_of_float (elapsed /. window));
      go false)
  in
  go true

let by_window samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (w, x) -> Hashtbl.replace tbl w (x :: Option.value (Hashtbl.find_opt tbl w) ~default:[]))
    samples;
  Hashtbl.fold (fun w xs acc -> (w, Array.of_list (List.rev xs)) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
