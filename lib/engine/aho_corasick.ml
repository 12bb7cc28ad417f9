module Vec = Mfsa_util.Vec

type t = {
  n_states : int;
  (* Flattened goto ∘ fail: [next.(q * 256 + c)] is the state after
     reading byte c in state q, fail arcs already resolved. *)
  next : int array;
  (* Output lists: pattern ids ending at each state (own output plus
     the inherited fail-chain outputs, pre-merged). *)
  outputs : int list array;
}

type match_event = { pattern : int; end_pos : int }

let build patterns =
  Array.iter
    (fun p ->
      if String.length p = 0 then
        invalid_arg "Aho_corasick.build: empty pattern")
    patterns;
  (* 1. Trie of all patterns. *)
  let children = Vec.create () in
  let outputs = Vec.create () in
  let new_node () =
    Vec.push children (Array.make 256 (-1));
    Vec.push outputs [];
    Vec.length children - 1
  in
  let root = new_node () in
  Array.iteri
    (fun id pattern ->
      let q = ref root in
      String.iter
        (fun c ->
          let kids = Vec.get children !q in
          let next =
            match kids.(Char.code c) with
            | -1 ->
                let n = new_node () in
                kids.(Char.code c) <- n;
                n
            | n -> n
          in
          q := next)
        pattern;
      Vec.set outputs !q (id :: Vec.get outputs !q))
    patterns;
  let n = Vec.length children in
  (* 2. BFS to compute fail links; flatten goto+fail into a total
     table and merge outputs down the fail chains. *)
  let fail = Array.make n root in
  let next = Array.make (n * 256) root in
  let out = Array.make n [] in
  for i = 0 to n - 1 do
    out.(i) <- Vec.get outputs i
  done;
  let queue = Queue.create () in
  let root_kids = Vec.get children root in
  for c = 0 to 255 do
    match root_kids.(c) with
    | -1 -> next.((root * 256) + c) <- root
    | k ->
        next.((root * 256) + c) <- k;
        fail.(k) <- root;
        Queue.add k queue
  done;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    out.(q) <- out.(q) @ out.(fail.(q));
    let kids = Vec.get children q in
    for c = 0 to 255 do
      match kids.(c) with
      | -1 -> next.((q * 256) + c) <- next.((fail.(q) * 256) + c)
      | k ->
          next.((q * 256) + c) <- k;
          fail.(k) <- next.((fail.(q) * 256) + c);
          Queue.add k queue
    done
  done;
  { n_states = n; next; outputs = out }

let n_states t = t.n_states

let scan t input ~on_match =
  let q = ref 0 in
  String.iteri
    (fun i c ->
      q := t.next.((!q * 256) + Char.code c);
      match t.outputs.(!q) with
      | [] -> ()
      | out -> List.iter (fun id -> on_match id (i + 1)) out)
    input

let run t input =
  let acc = ref [] in
  scan t input ~on_match:(fun pattern e -> acc := { pattern; end_pos = e } :: !acc);
  List.rev
    (List.sort
       (fun a b ->
         if a.end_pos <> b.end_pos then Int.compare b.end_pos a.end_pos
         else Int.compare b.pattern a.pattern)
       !acc)

let count t input =
  let c = ref 0 in
  scan t input ~on_match:(fun _ _ -> incr c);
  !c

let count_per_pattern t input =
  (* Number of patterns = 1 + max id seen in outputs. *)
  let max_id = ref (-1) in
  Array.iter (List.iter (fun id -> if id > !max_id then max_id := id)) t.outputs;
  let counts = Array.make (!max_id + 1) 0 in
  scan t input ~on_match:(fun id _ -> counts.(id) <- counts.(id) + 1);
  counts

(* ----------------------------------------------- Table round trip *)

type tables = {
  ac_states : int;
  ac_next : int array;
  ac_out_off : int array;
  ac_out_ids : int array;
}

let export t =
  let n_out = Array.fold_left (fun a l -> a + List.length l) 0 t.outputs in
  let out_off = Array.make (t.n_states + 1) 0 in
  let out_ids = Array.make n_out 0 in
  let w = ref 0 in
  Array.iteri
    (fun q l ->
      out_off.(q) <- !w;
      List.iter
        (fun id ->
          out_ids.(!w) <- id;
          incr w)
        l)
    t.outputs;
  out_off.(t.n_states) <- !w;
  { ac_states = t.n_states; ac_next = Array.copy t.next; ac_out_off = out_off;
    ac_out_ids = out_ids }

let import ?(copy = true) tb =
  let n = tb.ac_states in
  let fail msg = Error ("Aho-Corasick tables: " ^ msg) in
  if n < 1 then fail "no states"
  else if Array.length tb.ac_next <> n * 256 then
    fail "transition table size mismatch"
  else if
    (* Manual loop, not [Array.exists]: this table is by far the
       largest thing an artifact load validates, and the closure call
       per element triples the cost of the scan. *)
    let bad = ref false in
    for i = 0 to Array.length tb.ac_next - 1 do
      let q = Array.unsafe_get tb.ac_next i in
      if q < 0 || q >= n then bad := true
    done;
    !bad
  then fail "transition target out of range"
  else if Array.length tb.ac_out_off <> n + 1 then
    fail "output offset table size mismatch"
  else if tb.ac_out_off.(0) <> 0 || tb.ac_out_off.(n) <> Array.length tb.ac_out_ids
  then fail "output offsets do not cover the id table"
  else begin
    let monotone = ref true in
    for q = 0 to n - 1 do
      if tb.ac_out_off.(q) > tb.ac_out_off.(q + 1) then monotone := false
    done;
    if not !monotone then fail "output offsets not monotone"
    else if Array.exists (fun id -> id < 0) tb.ac_out_ids then
      fail "negative pattern id"
    else begin
      let outputs =
        Array.init n (fun q ->
            List.init
              (tb.ac_out_off.(q + 1) - tb.ac_out_off.(q))
              (fun i -> tb.ac_out_ids.(tb.ac_out_off.(q) + i)))
      in
      Ok
        {
          n_states = n;
          next = (if copy then Array.copy tb.ac_next else tb.ac_next);
          outputs;
        }
    end
  end
