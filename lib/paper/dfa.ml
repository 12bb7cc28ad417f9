module Nfa = Mfsa_automata.Nfa
module Charclass = Mfsa_charset.Charclass
module Vec = Mfsa_util.Vec

type t = {
  n_states : int;
  next : int array;
  start : int;
  finals : bool array;
  anchored_start : bool;
  anchored_end : bool;
  pattern : string;
}

let create ~n_states ~next ~start ~finals ?(anchored_start = false)
    ?(anchored_end = false) ~pattern () =
  if n_states <= 0 then invalid_arg "Dfa.create: need at least one state";
  if Array.length next <> n_states * 256 then
    invalid_arg "Dfa.create: transition table must have n_states * 256 entries";
  if Array.length finals <> n_states then
    invalid_arg "Dfa.create: finals must have n_states entries";
  if start < 0 || start >= n_states then
    invalid_arg "Dfa.create: start state out of range";
  Array.iter
    (fun q ->
      if q < 0 || q >= n_states then
        invalid_arg "Dfa.create: transition target out of range")
    next;
  { n_states; next; start; finals; anchored_start; anchored_end; pattern }

let step t q c = t.next.((q * 256) + Char.code c)

let state_budget = 16384

type error = Over_budget

let error_message Over_budget =
  Printf.sprintf "over budget (more than %d DFA states)" state_budget

exception Budget_exceeded

(* Subsets hash on every element: [Hashtbl.hash] reads only a list's
   first cells, which the subsets of one construction often share. *)
module Subsets = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h q -> (h * 31) + q) 0
end)

let subset_construction (a : Nfa.t) =
  (* NFA state sets are canonicalised as sorted int lists; each new
     subset gets the next id and a worklist entry, so rows are built
     in id order. The empty subset is the sink, always state 0 of the
     result. Successors are computed once per byte class of the
     NFA's labels, not once per byte. *)
  let out = Nfa.out a in
  let labels =
    Array.map
      (fun tr -> match tr.Nfa.label with Nfa.Cls c -> c | Nfa.Eps -> assert false)
      a.Nfa.transitions
  in
  let class_of, k = Charclass.partition (Array.to_list labels) in
  let cls c = Char.code (Bytes.get class_of (Char.code c)) in
  (* The byte classes each transition's label covers. *)
  let covers =
    Array.map
      (fun l ->
        List.sort_uniq Int.compare (Charclass.fold (fun c acc -> cls c :: acc) l []))
      labels
  in
  let index = Subsets.create 64 in
  let subsets = Vec.create () in
  let worklist = Queue.create () in
  let intern subset =
    match Subsets.find_opt index subset with
    | Some id -> id
    | None ->
        let id = Vec.length subsets in
        if id >= state_budget then raise_notrace Budget_exceeded;
        Subsets.add index subset id;
        Vec.push subsets subset;
        Queue.add id worklist;
        id
  in
  let sink = intern [] in
  let start = intern [ a.Nfa.start ] in
  let rows = Vec.create () in
  while not (Queue.is_empty worklist) do
    let succ = Array.make k [] in
    List.iter
      (fun q ->
        Array.iter
          (fun ti ->
            let dst = a.Nfa.transitions.(ti).Nfa.dst in
            List.iter (fun c -> succ.(c) <- dst :: succ.(c)) covers.(ti))
          out.(q))
      (Vec.get subsets (Queue.pop worklist));
    Vec.push rows (Array.map (fun dsts -> intern (List.sort_uniq Int.compare dsts)) succ)
  done;
  let n = Vec.length subsets in
  let next = Array.make (n * 256) sink in
  Vec.iteri
    (fun id row ->
      for c = 0 to 255 do
        next.((id * 256) + c) <- row.(Char.code (Bytes.get class_of c))
      done)
    rows;
  let finals = Array.make n false in
  Vec.iteri
    (fun id subset -> finals.(id) <- List.exists (fun q -> a.Nfa.finals.(q)) subset)
    subsets;
  create ~n_states:n ~next ~start ~finals ~anchored_start:a.Nfa.anchored_start
    ~anchored_end:a.Nfa.anchored_end ~pattern:a.Nfa.pattern ()

let determinize a =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Dfa.determinize: automaton must be ε-free";
  match subset_construction a with
  | t -> Ok t
  | exception Budget_exceeded -> Error Over_budget

let reachable t =
  let seen = Array.make t.n_states false in
  let queue = Queue.create () in
  seen.(t.start) <- true;
  Queue.add t.start queue;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    for c = 0 to 255 do
      let d = t.next.((q * 256) + c) in
      if not seen.(d) then begin
        seen.(d) <- true;
        Queue.add d queue
      end
    done
  done;
  seen

let n_reachable t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 (reachable t)

let byte_classes t =
  (* Two bytes are equivalent iff their δ-columns coincide. Hash the
     columns to assign class ids. *)
  let table = Hashtbl.create 64 in
  let class_of = Array.make 256 0 in
  for c = 0 to 255 do
    let column = Array.init t.n_states (fun q -> t.next.((q * 256) + c)) in
    match Hashtbl.find_opt table column with
    | Some id -> class_of.(c) <- id
    | None ->
        let id = Hashtbl.length table in
        Hashtbl.add table column id;
        class_of.(c) <- id
  done;
  (class_of, Hashtbl.length table)

(* Hopcroft's partition-refinement minimisation, restricted to the
   reachable sub-automaton. *)
let minimize t =
  let seen = reachable t in
  (* Compact the reachable states first. *)
  let renum = Array.make t.n_states (-1) in
  let count = ref 0 in
  for q = 0 to t.n_states - 1 do
    if seen.(q) then begin
      renum.(q) <- !count;
      incr count
    end
  done;
  let n = !count in
  let next = Array.make (n * 256) 0 in
  let finals = Array.make n false in
  for q = 0 to t.n_states - 1 do
    if seen.(q) then begin
      let q' = renum.(q) in
      finals.(q') <- t.finals.(q);
      for c = 0 to 255 do
        next.((q' * 256) + c) <- renum.(t.next.((q * 256) + c))
      done
    end
  done;
  let start = renum.(t.start) in
  (* Partition refinement: block id per state; split blocks by
     (successor block per byte class) signatures until stable.
     Simpler than textbook Hopcroft's worklist but O(n^2 * classes)
     worst case, which is fine at this library's automaton sizes. *)
  let class_of, k = byte_classes t in
  let repr = Array.make k 0 in
  for c = 255 downto 0 do
    repr.(class_of.(c)) <- c
  done;
  let block = Array.make n 0 in
  for q = 0 to n - 1 do
    block.(q) <- (if finals.(q) then 1 else 0)
  done;
  let n_blocks = ref (if Array.exists Fun.id finals && Array.exists not finals then 2 else 1) in
  (if !n_blocks = 1 && Array.exists Fun.id finals then
     (* all states final: single block id 1 -> normalise to 0 *)
     Array.fill block 0 n 0);
  let changed = ref true in
  while !changed do
    changed := false;
    let signature = Hashtbl.create 64 in
    let new_block = Array.make n 0 in
    let next_id = ref 0 in
    for q = 0 to n - 1 do
      let sig_q =
        ( block.(q),
          Array.init k (fun i -> block.(next.((q * 256) + repr.(i)))) )
      in
      let id =
        match Hashtbl.find_opt signature sig_q with
        | Some id -> id
        | None ->
            let id = !next_id in
            incr next_id;
            Hashtbl.add signature sig_q id;
            id
      in
      new_block.(q) <- id
    done;
    if !next_id <> !n_blocks then begin
      changed := true;
      n_blocks := !next_id
    end;
    Array.blit new_block 0 block 0 n
  done;
  let m = !n_blocks in
  let mnext = Array.make (m * 256) 0 in
  let mfinals = Array.make m false in
  for q = 0 to n - 1 do
    let b = block.(q) in
    mfinals.(b) <- finals.(q);
    for c = 0 to 255 do
      mnext.((b * 256) + c) <- block.(next.((q * 256) + c))
    done
  done;
  create ~n_states:m ~next:mnext ~start:block.(start) ~finals:mfinals
    ~anchored_start:t.anchored_start ~anchored_end:t.anchored_end
    ~pattern:t.pattern ()

let accepts t input =
  let q = ref t.start in
  String.iter (fun c -> q := step t !q c) input;
  t.finals.(!q)

let match_ends t input =
  (* Unanchored matching with a DFA requires one active state per
     possible match start; maintain the set of live states like the
     NFA engines do (a product construction would avoid this but blow
     up the state count). *)
  let len = String.length input in
  let acc = ref [] in
  let cur = Array.make t.n_states false in
  let nxt = Array.make t.n_states false in
  for i = 0 to len - 1 do
    if (not t.anchored_start) || i = 0 then cur.(t.start) <- true;
    let c = input.[i] in
    Array.fill nxt 0 t.n_states false;
    let matched = ref false in
    for q = 0 to t.n_states - 1 do
      if cur.(q) then begin
        let d = step t q c in
        if not nxt.(d) then begin
          nxt.(d) <- true;
          if t.finals.(d) then matched := true
        end
      end
    done;
    Array.blit nxt 0 cur 0 t.n_states;
    if !matched && ((not t.anchored_end) || i = len - 1) then acc := (i + 1) :: !acc
  done;
  List.rev !acc

let to_nfa t =
  (* Group arcs by (src, dst) into classes; drop arcs into a
     non-accepting all-absorbing sink. *)
  let is_sink q =
    (not t.finals.(q))
    && (let all_self = ref true in
        for c = 0 to 255 do
          if t.next.((q * 256) + c) <> q then all_self := false
        done;
        !all_self)
  in
  let transitions = ref [] in
  for q = 0 to t.n_states - 1 do
    let by_dst = Hashtbl.create 16 in
    for c = 0 to 255 do
      let d = t.next.((q * 256) + c) in
      if not (is_sink d) then
        Hashtbl.replace by_dst d
          (Charclass.add
             (Option.value ~default:Charclass.empty (Hashtbl.find_opt by_dst d))
             (Char.chr c))
    done;
    Hashtbl.iter
      (fun d cls ->
        transitions := { Nfa.src = q; label = Nfa.Cls cls; dst = d } :: !transitions)
      by_dst
  done;
  let finals = ref [] in
  Array.iteri (fun q f -> if f then finals := q :: !finals) t.finals;
  Nfa.create ~n_states:t.n_states ~transitions:!transitions ~start:t.start
    ~finals:!finals ~anchored_start:t.anchored_start
    ~anchored_end:t.anchored_end ~pattern:t.pattern ()
