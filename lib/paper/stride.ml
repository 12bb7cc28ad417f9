type t = {
  n_states : int;
  n_classes : int;
  class_of : int array;
  next2 : int array;
  mid_final : bool array;
  next1 : int array;
  start : int;
  finals : bool array;
  anchored_start : bool;
  anchored_end : bool;
  pattern : string;
}

let build (d : Dfa.t) =
  let class_of, k = Dfa.byte_classes d in
  (* One representative byte per class. *)
  let repr = Array.make k 0 in
  for c = 255 downto 0 do
    repr.(class_of.(c)) <- c
  done;
  let n = d.Dfa.n_states in
  let next1 = Array.make (n * k) 0 in
  let next2 = Array.make (n * k * k) 0 in
  let mid_final = Array.make (n * k * k) false in
  for q = 0 to n - 1 do
    for c1 = 0 to k - 1 do
      let mid = d.Dfa.next.((q * 256) + repr.(c1)) in
      next1.((q * k) + c1) <- mid;
      for c2 = 0 to k - 1 do
        let idx = (((q * k) + c1) * k) + c2 in
        next2.(idx) <- d.Dfa.next.((mid * 256) + repr.(c2));
        mid_final.(idx) <- d.Dfa.finals.(mid)
      done
    done
  done;
  {
    n_states = n;
    n_classes = k;
    class_of;
    next2;
    mid_final;
    next1;
    start = d.Dfa.start;
    finals = Array.copy d.Dfa.finals;
    anchored_start = d.Dfa.anchored_start;
    anchored_end = d.Dfa.anchored_end;
    pattern = d.Dfa.pattern;
  }

let n_table_entries t = Array.length t.next2

let step1 t q c = t.next1.((q * t.n_classes) + t.class_of.(Char.code c))

let pair_index t q c1 c2 =
  (((q * t.n_classes) + t.class_of.(Char.code c1)) * t.n_classes)
  + t.class_of.(Char.code c2)

let accepts t input =
  let len = String.length input in
  let q = ref t.start in
  let i = ref 0 in
  while !i + 1 < len do
    q := t.next2.(pair_index t !q input.[!i] input.[!i + 1]);
    i := !i + 2
  done;
  if !i < len then q := step1 t !q input.[!i];
  t.finals.(!q)

let match_ends t input =
  (* Set-based unanchored matcher, two bytes per step. Matches ending
     at the pair's first byte come from [mid_final]; fresh threads
     starting at the pair's second byte are injected through the
     1-stride table. *)
  let len = String.length input in
  let n = t.n_states in
  let cur = Array.make n false in
  let nxt = Array.make n false in
  let acc = ref [] in
  let emit pos = acc := pos :: !acc in
  let i = ref 0 in
  while !i < len do
    if (not t.anchored_start) || !i = 0 then cur.(t.start) <- true;
    if !i + 1 < len then begin
      let c1 = input.[!i] and c2 = input.[!i + 1] in
      Array.fill nxt 0 n false;
      let matched_mid = ref false and matched_end = ref false in
      for q = 0 to n - 1 do
        if cur.(q) then begin
          let idx = pair_index t q c1 c2 in
          if t.mid_final.(idx) then matched_mid := true;
          let d = t.next2.(idx) in
          if not nxt.(d) then begin
            nxt.(d) <- true;
            if t.finals.(d) then matched_end := true
          end
        end
      done;
      (* Thread starting at the second byte of the pair. *)
      if not t.anchored_start then begin
        let d = step1 t t.start c2 in
        if not nxt.(d) then begin
          nxt.(d) <- true;
          if t.finals.(d) then matched_end := true
        end
        else if t.finals.(d) then matched_end := true
      end;
      if !matched_mid && ((not t.anchored_end) || !i + 1 = len) then emit (!i + 1);
      if !matched_end && ((not t.anchored_end) || !i + 2 = len) then emit (!i + 2);
      Array.blit nxt 0 cur 0 n;
      i := !i + 2
    end
    else begin
      (* Trailing single byte. *)
      let c = input.[!i] in
      let matched = ref false in
      for q = 0 to n - 1 do
        if cur.(q) then begin
          let d = step1 t q c in
          if t.finals.(d) then matched := true
        end
      done;
      if !matched then emit (!i + 1);
      Array.fill cur 0 n false;
      i := !i + 1
    end
  done;
  List.sort_uniq Int.compare !acc
