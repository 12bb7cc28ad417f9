module Nfa = Mfsa_automata.Nfa
module Charclass = Mfsa_charset.Charclass
module Vec = Mfsa_util.Vec

type t = {
  n_states : int;
  start : int;
  finals : bool array;
  anchored_start : bool;
  anchored_end : bool;
  k : int;  (* byte-class count *)
  class_of : bytes;
  (* Symbol-first layout over the class alphabet: [table.(cls)] holds
     the (src, dst) pairs of every transition enabled by the bytes of
     class [cls], packed as two parallel int arrays for cache-friendly
     scanning. Bytes of one class enable exactly the same transitions
     (that is what the partition means), so one row per class stores
     each transition once instead of once per byte. *)
  src_table : int array array;
  dst_table : int array array;
}

let compile (a : Nfa.t) =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Infant.compile: automaton must be ε-free";
  let classes =
    Array.to_list a.Nfa.transitions
    |> List.filter_map (fun tr ->
           match tr.Nfa.label with
           | Nfa.Eps -> assert false
           | Nfa.Cls cls -> Some cls)
  in
  let class_of, k = Charclass.partition classes in
  let srcs = Array.init k (fun _ -> Vec.create ()) in
  let dsts = Array.init k (fun _ -> Vec.create ()) in
  (* Dedupe per (transition, class): a transition's charclass may
     contain many bytes of one class. *)
  let stamp = Array.make k (-1) in
  Array.iteri
    (fun ti tr ->
      match tr.Nfa.label with
      | Nfa.Eps -> assert false
      | Nfa.Cls cls ->
          Charclass.iter
            (fun c ->
              let id = Char.code (Bytes.get class_of (Char.code c)) in
              if stamp.(id) <> ti then begin
                stamp.(id) <- ti;
                Vec.push srcs.(id) tr.Nfa.src;
                Vec.push dsts.(id) tr.Nfa.dst
              end)
            cls)
    a.Nfa.transitions;
  {
    n_states = a.Nfa.n_states;
    start = a.Nfa.start;
    finals = Array.copy a.Nfa.finals;
    anchored_start = a.Nfa.anchored_start;
    anchored_end = a.Nfa.anchored_end;
    k;
    class_of;
    src_table = Array.map Vec.to_array srcs;
    dst_table = Array.map Vec.to_array dsts;
  }

let n_states t = t.n_states

let n_classes t = t.k

(* Core loop shared by [run] and [count]: [on_match] sees each match
   end position once, in increasing order. *)
let execute t input ~on_match =
  let n = t.n_states in
  let cur = Array.make n false in
  let next = Array.make n false in
  let len = String.length input in
  let i = ref 0 in
  let live = ref true in
  while !live && !i < len do
    let c = Char.code (String.unsafe_get input !i) in
    let cls = Char.code (Bytes.unsafe_get t.class_of c) in
    let srcs = t.src_table.(cls) and dsts = t.dst_table.(cls) in
    let inject_start = (not t.anchored_start) || !i = 0 in
    let matched = ref false in
    let any = ref false in
    for k = 0 to Array.length srcs - 1 do
      let s = srcs.(k) in
      if cur.(s) || (inject_start && s = t.start) then begin
        let d = dsts.(k) in
        if not next.(d) then begin
          next.(d) <- true;
          any := true;
          if t.finals.(d) then matched := true
        end
      end
    done;
    if !matched && ((not t.anchored_end) || !i = len - 1) then on_match (!i + 1);
    (* Swap and clear: [cur] becomes the scratch for the next round.
       A start-anchored scan whose active set empties can never match
       again — stop early (this is what makes anchored confirmation
       runs cheap in the decomposition engine). *)
    Array.blit next 0 cur 0 n;
    Array.fill next 0 n false;
    if t.anchored_start && not !any then live := false;
    incr i
  done

let run t input =
  let acc = ref [] in
  execute t input ~on_match:(fun e -> acc := e :: !acc);
  List.rev !acc

let count t input =
  let c = ref 0 in
  execute t input ~on_match:(fun _ -> incr c);
  !c
