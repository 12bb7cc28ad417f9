module Prng = Mfsa_util.Prng

let lcs a b =
  let la = String.length a and lb = String.length b in
  if la = 0 || lb = 0 then 0
  else begin
    (* Two-row dynamic program: prev.(j) = LCS of a[0..i-1] and
       b[0..j-1]. O(|a|*|b|) time, O(|b|) space. *)
    let prev = Array.make (lb + 1) 0 in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      for j = 1 to lb do
        if a.[i - 1] = b.[j - 1] then cur.(j) <- prev.(j - 1) + 1
        else cur.(j) <- max prev.(j) cur.(j - 1)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let distance a b = String.length a + String.length b - (2 * lcs a b)

let normalized a b =
  let total = String.length a + String.length b in
  if total = 0 then 0. else float_of_int (distance a b) /. float_of_int total

let similarity a b = 1. -. normalized a b

let average_pairwise_similarity ?sample ?(seed = 42) strings =
  let n = Array.length strings in
  if n < 2 then 0.
  else
    let total_pairs = n * (n - 1) / 2 in
    match sample with
    | Some k when k < total_pairs ->
        let g = Prng.create seed in
        let acc = ref 0. in
        for _ = 1 to k do
          let i = Prng.int g n in
          let j =
            let j = Prng.int g (n - 1) in
            if j >= i then j + 1 else j
          in
          acc := !acc +. similarity strings.(i) strings.(j)
        done;
        !acc /. float_of_int k
    | _ ->
        let acc = ref 0. in
        for i = 0 to n - 2 do
          for j = i + 1 to n - 1 do
            acc := !acc +. similarity strings.(i) strings.(j)
          done
        done;
        !acc /. float_of_int total_pairs
