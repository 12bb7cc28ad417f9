module Nfa = Mfsa_automata.Nfa
module Charclass = Mfsa_charset.Charclass

type t = {
  n_states : int;
  k : int;  (* byte-class count *)
  class_of : bytes;
  (* Row-major class-indexed table: [next.(q * k + cls)] = δ(q, c)
     for any byte c of class cls — the dense 256-way table folded
     over {!Dfa.byte_classes}' equivalence. *)
  next : int array;
  start : int;
  finals : bool array;
  anchored_end : bool;
}

(* Augment an ε-free NFA for unanchored scanning: a fresh start state
   carries an all-bytes self-loop plus copies of the original start's
   outgoing arcs, and is never accepting — so a subset is accepting
   iff a genuine (≥ 1 byte) path reached an original final state. *)
let augment (a : Nfa.t) =
  if a.Nfa.anchored_start then a
  else begin
    let fresh = a.Nfa.n_states in
    let copies =
      Array.to_list a.Nfa.transitions
      |> List.filter_map (fun tr ->
             if tr.Nfa.src = a.Nfa.start then Some { tr with Nfa.src = fresh }
             else None)
    in
    let self = { Nfa.src = fresh; label = Nfa.Cls Charclass.full; dst = fresh } in
    Nfa.create ~n_states:(a.Nfa.n_states + 1)
      ~transitions:(self :: copies @ Array.to_list a.Nfa.transitions)
      ~start:fresh ~finals:(Nfa.final_states a)
      ~anchored_start:a.Nfa.anchored_start ~anchored_end:a.Nfa.anchored_end
      ~pattern:a.Nfa.pattern ()
  end

(* The class-folded scanning table of a determinised (augmented) rule. *)
let of_dfa (dfa : Dfa.t) =
  let n = dfa.Dfa.n_states in
  let cls, k = Dfa.byte_classes dfa in
  let class_of = Bytes.init 256 (fun c -> Char.chr cls.(c)) in
  (* One representative byte per class fills the folded table. *)
  let repr = Array.make k 0 in
  for c = 255 downto 0 do
    repr.(Char.code (Bytes.get class_of c)) <- c
  done;
  let next = Array.make (n * k) 0 in
  for q = 0 to n - 1 do
    for cls = 0 to k - 1 do
      next.((q * k) + cls) <- dfa.Dfa.next.((q * 256) + repr.(cls))
    done
  done;
  {
    n_states = n;
    k;
    class_of;
    next;
    start = dfa.Dfa.start;
    finals = Array.copy dfa.Dfa.finals;
    anchored_end = dfa.Dfa.anchored_end;
  }

let compile ?(minimize = true) a =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Dfa_engine.compile: automaton must be ε-free";
  Result.map
    (fun dfa -> of_dfa (if minimize then Dfa.minimize dfa else dfa))
    (Dfa.determinize (augment a))

let execute t input ~on_match =
  let len = String.length input in
  let k = t.k in
  let class_of = t.class_of in
  let next = t.next in
  let q = ref t.start in
  for i = 0 to len - 1 do
    let cls =
      Char.code (Bytes.unsafe_get class_of (Char.code (String.unsafe_get input i)))
    in
    q := next.((!q * k) + cls);
    if t.finals.(!q) && ((not t.anchored_end) || i = len - 1) then on_match (i + 1)
  done

let run t input =
  let acc = ref [] in
  execute t input ~on_match:(fun e -> acc := e :: !acc);
  List.rev !acc

let count t input =
  let c = ref 0 in
  execute t input ~on_match:(fun _ -> incr c);
  !c

let n_states t = t.n_states

let n_classes t = t.k

let table_cells t = Array.length t.next
