module Nfa = Mfsa_automata.Nfa
module Charclass = Mfsa_charset.Charclass

let check_eps_free a =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Bisim: automaton must be ε-free"

(* Partition refinement: the block array stabilises at the coarsest
   partition in which equivalent states are final-consistent and have
   equal signatures {(label, block of successor)}. *)
let blocks_of (a : Nfa.t) =
  let n = a.Nfa.n_states in
  let out = Nfa.out a in
  let block = Array.init n (fun q -> if a.Nfa.finals.(q) then 1 else 0) in
  (* The loop stops when a refinement round leaves the block count
     unchanged, so the initial count must be the number of blocks
     actually occupied. *)
  let n_blocks =
    ref
      (if Array.exists Fun.id a.Nfa.finals && Array.exists not a.Nfa.finals
       then 2
       else 1)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let table = Hashtbl.create 64 in
    let next_block = Array.make n 0 in
    let next_id = ref 0 in
    for q = 0 to n - 1 do
      let signature =
        Array.to_list out.(q)
        |> List.map (fun ti ->
               let tr = a.Nfa.transitions.(ti) in
               match tr.Nfa.label with
               | Nfa.Eps -> assert false
               | Nfa.Cls c -> (c, block.(tr.Nfa.dst)))
        |> List.sort_uniq compare
      in
      let key = (block.(q), signature) in
      let id =
        match Hashtbl.find_opt table key with
        | Some id -> id
        | None ->
            let id = !next_id in
            incr next_id;
            Hashtbl.add table key id;
            id
      in
      next_block.(q) <- id
    done;
    if !next_id <> !n_blocks then begin
      changed := true;
      n_blocks := !next_id
    end;
    Array.blit next_block 0 block 0 n
  done;
  (block, !n_blocks)

let n_blocks a =
  check_eps_free a;
  snd (blocks_of a)

let reduce a =
  check_eps_free a;
  let block, m = blocks_of a in
  let seen = Hashtbl.create 64 in
  let transitions = ref [] in
  Array.iter
    (fun tr ->
      match tr.Nfa.label with
      | Nfa.Eps -> assert false
      | Nfa.Cls c ->
          let key = (block.(tr.Nfa.src), c, block.(tr.Nfa.dst)) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            transitions :=
              { Nfa.src = block.(tr.Nfa.src); label = tr.Nfa.label;
                dst = block.(tr.Nfa.dst) }
              :: !transitions
          end)
    a.Nfa.transitions;
  let finals = ref [] in
  Array.iteri (fun q f -> if f then finals := block.(q) :: !finals) a.Nfa.finals;
  Nfa.create ~n_states:m ~transitions:!transitions ~start:block.(a.Nfa.start)
    ~finals:(List.sort_uniq Int.compare !finals)
    ~anchored_start:a.Nfa.anchored_start ~anchored_end:a.Nfa.anchored_end
    ~pattern:a.Nfa.pattern ()
