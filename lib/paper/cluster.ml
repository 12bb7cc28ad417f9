module Nfa = Mfsa_automata.Nfa
module Merge = Mfsa_model.Merge

let group ~m patterns =
  let n = Array.length patterns in
  if n = 0 then invalid_arg "Cluster.group: empty ruleset";
  if m < 0 then invalid_arg "Cluster.group: negative merging factor";
  let m = if m = 0 || m > n then n else m in
  if m >= n then [ List.init n Fun.id ]
  else begin
    let assigned = Array.make n false in
    let groups = ref [] in
    let next_seed = ref 0 in
    while !next_seed < n do
      if assigned.(!next_seed) then incr next_seed
      else begin
        let seed = !next_seed in
        assigned.(seed) <- true;
        (* Fill the group with the unassigned rules most similar to
           the seed. A full agglomerative linkage would be O(n^3);
           seed-similarity is the standard cheap proxy and enough for
           the ablation. *)
        let candidates =
          List.init n Fun.id
          |> List.filter (fun i -> not assigned.(i))
          |> List.map (fun i -> (Indel.similarity patterns.(seed) patterns.(i), i))
          |> List.sort (fun (sa, ia) (sb, ib) ->
                 if sa <> sb then Float.compare sb sa else Int.compare ia ib)
        in
        let members =
          seed :: (List.filteri (fun k _ -> k < m - 1) candidates |> List.map snd)
        in
        List.iter (fun i -> assigned.(i) <- true) members;
        groups := List.sort Int.compare members :: !groups
      end
    done;
    List.rev !groups
  end

let reorder items groups =
  let order = List.concat groups in
  let permuted = Array.of_list (List.map (fun i -> items.(i)) order) in
  let new_groups =
    let counter = ref 0 in
    List.map
      (fun g ->
        List.map
          (fun _ ->
            let v = !counter in
            incr counter;
            v)
          g)
      groups
  in
  (permuted, new_groups)

let merge_clustered ~m fsas =
  let patterns = Array.map (fun a -> a.Nfa.pattern) fsas in
  let groups = group ~m patterns in
  List.map
    (fun g -> Merge.merge (Array.of_list (List.map (fun i -> fsas.(i)) g)))
    groups
