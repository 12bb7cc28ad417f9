(* Words are OCaml native ints used as 62-bit limbs: every value stays
   immediate (no boxing), and masking the two top bits away keeps all
   word-level operations well-defined. *)

let bits_per_word = 62

type t = { n : int; words : int array }

let word_count n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (max 1 (word_count n)) 0 }

let capacity t = t.n

let words t = t.words

let copy t = { n = t.n; words = Array.copy t.words }

let resize t n =
  if n < 0 then invalid_arg "Bitset.resize: negative capacity";
  let r = create n in
  let k = min (Array.length r.words) (Array.length t.words) in
  Array.blit t.words 0 r.words 0 k;
  (* When shrinking, drop the elements >= n by masking the word that
     straddles the new boundary (words never carry bits >= capacity,
     so nothing else can leak). *)
  let full = n / bits_per_word and rem = n mod bits_per_word in
  if full < Array.length r.words then
    r.words.(full) <-
      (if rem = 0 then 0 else r.words.(full) land ((1 lsl rem) - 1));
  r

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range [0,%d)" i t.n)

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  if i < 0 || i >= t.n then false
  else
    let w = i / bits_per_word and b = i mod bits_per_word in
    t.words.(w) land (1 lsl b) <> 0

let singleton n i =
  let t = create n in
  add t i;
  t

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

(* The predicates below are plain loops: a local recursive function
   (or the closure [Array.for_all] builds) captures its operands and
   allocates on every call, and these run inside engine step loops. *)
let is_empty t =
  let words = t.words in
  let i = ref 0 in
  while !i < Array.length words && words.(!i) = 0 do incr i done;
  !i = Array.length words

let equal a b = a.n = b.n && a.words = b.words

let compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c else Stdlib.compare a.words b.words

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let same_universe a b op =
  if a.n <> b.n then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch (%d vs %d)" op a.n b.n)

let map2 op a b =
  let r = { n = a.n; words = Array.copy a.words } in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <- op r.words.(i) b.words.(i)
  done;
  r

let union a b = same_universe a b "union"; map2 ( lor ) a b
let inter a b = same_universe a b "inter"; map2 ( land ) a b
let diff a b = same_universe a b "diff"; map2 (fun x y -> x land lnot y) a b

let union_into ~dst src =
  same_universe dst src "union_into";
  let changed = ref false in
  for i = 0 to Array.length dst.words - 1 do
    let w = dst.words.(i) lor src.words.(i) in
    if w <> dst.words.(i) then begin
      dst.words.(i) <- w;
      changed := true
    end
  done;
  !changed

let inter_into ~dst src =
  same_universe dst src "inter_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let disjoint a b =
  same_universe a b "disjoint";
  let i = ref 0 in
  while !i < Array.length a.words && a.words.(!i) land b.words.(!i) = 0 do
    incr i
  done;
  !i = Array.length a.words

let subset a b =
  same_universe a b "subset";
  let i = ref 0 in
  while
    !i < Array.length a.words && a.words.(!i) land lnot b.words.(!i) = 0
  do
    incr i
  done;
  !i = Array.length a.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  for i = 0 to t.n - 1 do
    let w = i / bits_per_word and b = i mod bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl b)
  done

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let hash t = Hashtbl.hash t.words

let pp fmt t =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ",";
      Format.fprintf fmt "%d" i)
    t;
  Format.fprintf fmt "}"
