module Nfa = Mfsa_automata.Nfa

let log_src = Logs.Src.create "mfsa.merge" ~doc:"MFSA merging (Algorithm 1)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = Builder.stats = {
  seeds : int;
  chains : int;
  merged_transitions : int;
  merged_states : int;
}

let freeze_exn b =
  match Builder.freeze b with
  | Some (z, _) -> z
  | None -> assert false (* every caller adds at least one FSA *)

let merge ?stats fsas =
  let n_fsas = Array.length fsas in
  if n_fsas = 0 then invalid_arg "Merge.merge: empty FSA set";
  Array.iter
    (fun a ->
      if not (Nfa.is_eps_free a) then
        invalid_arg "Merge.merge: automata must be ε-free")
    fsas;
  let b = Builder.create () in
  (* The first automaton is copied as-is (Algorithm 1 line 3); adding
     to an empty builder does exactly that, since no seed can be
     found. *)
  Array.iter (fun a -> ignore (Builder.add b a)) fsas;
  Log.debug (fun m ->
      m "merged %d FSAs: %d states, %d transitions (%d seeds, %d shared transitions)"
        n_fsas (Builder.n_states b) (Builder.n_transitions b)
        (Builder.stats b).seeds (Builder.stats b).merged_transitions);
  (match stats with Some cell -> cell := Builder.stats b | None -> ());
  freeze_exn b

let merge_into ?stats z a j =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Merge.merge_into: automata must be ε-free";
  if j <> z.Mfsa.n_fsas then
    invalid_arg
      (Printf.sprintf
         "Merge.merge_into: identifier %d must be the next free one (%d)" j
         z.Mfsa.n_fsas);
  let b = Builder.of_mfsa z in
  let slot = Builder.add b a in
  assert (slot = j);
  (match stats with Some cell -> cell := Builder.stats b | None -> ());
  freeze_exn b

let add_stats a b =
  {
    seeds = a.seeds + b.seeds;
    chains = a.chains + b.chains;
    merged_transitions = a.merged_transitions + b.merged_transitions;
    merged_states = a.merged_states + b.merged_states;
  }

let merge_groups ?stats ~m fsas =
  let n = Array.length fsas in
  if n = 0 then invalid_arg "Merge.merge_groups: empty FSA set";
  if m < 0 then invalid_arg "Merge.merge_groups: negative merging factor";
  let m = if m = 0 || m > n then n else m in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    let len = min m (n - !i) in
    groups := Array.sub fsas !i len :: !groups;
    i := !i + len
  done;
  List.rev_map
    (fun group ->
      match stats with
      | None -> merge group
      | Some acc ->
          let s = ref { seeds = 0; chains = 0; merged_transitions = 0; merged_states = 0 } in
          let z = merge ~stats:s group in
          acc := add_stats !acc !s;
          z)
    !groups
