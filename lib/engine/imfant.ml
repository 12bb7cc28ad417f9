module Mfsa = Mfsa_model.Mfsa
module Charclass = Mfsa_charset.Charclass
module Bitset = Mfsa_util.Bitset
module Vec = Mfsa_util.Vec
module Cc_tbl = Hashtbl.Make (Charclass)

(* One initial-set table in the kernel's injection form. Injection
   ignores the input: on a byte of class c it makes every destination
   of an enabled transition q1 -> q2 live with init(q1) ∩ bel(t), so
   per class that is a constant. Class c's destinations are
   [dst.(off.(c)) .. dst.(off.(c+1) - 1)], ascending; destination [i]'s
   words are [words.(i*nw) .. words.(i*nw+nw-1)], the ORed sets; and
   [fin.(c*nw) ..] is the union of their intersections with final(q2),
   the FSAs that injection alone matches on the byte. *)
type inits = { off : int array; dst : int array; words : int array; fin : int array }

type t = {
  z : Mfsa.t;
  k : int;  (* byte-class count; tables below are class-indexed *)
  class_of : bytes;
      (* 256-entry byte -> class map ({!Mfsa.classes}). *)
  trans_by_cls : int array array;
      (* [trans_by_cls.(cls)] = transition indices enabled by every
         byte of class cls. *)
  prefilter : Prefilter.t option;
      (* Literal prefilter, when every unanchored rule has a usable
         mandatory prefix set. *)
  src_off : int array;
  src_tr : int array;
      (* [trans_by_cls] regrouped by source state (CSR): the
         transitions out of q enabled by class c are
         [src_tr.(src_off.(c*(n+1)+q)) .. src_tr.(src_off.(c*(n+1)+q+1) - 1)]. *)
  (* Word-major activation tables: every FSA set is [nw] consecutive
     words of one flat int array, so the step kernel indexes words
     directly instead of chasing one record per set. *)
  nw : int;  (* words per FSA set *)
  bel_w : int array;  (* transitions × nw: bel(t) *)
  bel_lo : int array;
  bel_hi : int array;
      (* per transition, the first and last non-zero word of bel(t):
         J' is zero outside them, so the kernel only walks that span *)
  final_w : int array;  (* states × nw: FSAs final in q *)
  i_all : inits;  (* position 0: every FSA may start *)
  i_unanch : inits;  (* positions > 0: start-anchored FSAs removed *)
  i_anch : inits;
      (* only the start-anchored FSAs: position 0 when the prefilter
         says position 0 is not a literal candidate *)
  i_none : inits;  (* injection off *)
  mutable skipped_bytes : int;
      (* Input bytes the prefilter let [execute] jump over, cumulative
         across runs; surfaced as mfsa_engine_prefilter_skipped_bytes. *)
}

type match_event = Engine_sig.match_event = { fsa : int; end_pos : int }

type stats = { positions : int; avg_active : float; max_active : int }

let bpw = Bitset.bits_per_word

(* One set per row, copied word by word into a rows × nw array. *)
let flatten nw sets =
  let a = Array.make (Array.length sets * nw) 0 in
  Array.iteri
    (fun r s ->
      let ws = Bitset.words s in
      for w = 0 to nw - 1 do
        a.((r * nw) + w) <- ws.(w)
      done)
    sets;
  a

(* The words of a per-FSA flag vector. *)
let mask_of flags =
  let m = Bitset.create (Array.length flags) in
  Array.iteri (fun j on -> if on then Bitset.add m j) flags;
  Bitset.words m

(* The per-class injection of the initial sets [all] as [(off, dst,
   words)], laid out as in {!inits} but with no match words, in
   O(Σ enabled × nw): one states × nw accumulator collects a class's
   injected words per destination; they are emitted in ascending
   destination order and the accumulator cleared. *)
let injection (z : Mfsa.t) nw ~trans_by_cls ~bel_w ~bel_lo ~bel_hi all =
  let n = z.Mfsa.n_states and k = Array.length trans_by_cls in
  let row = z.Mfsa.row and col = z.Mfsa.col in
  let acc = Array.make (n * nw) 0 and seen = Array.make n (-1) in
  let dsts = Array.make n 0 in
  let off = Array.make (k + 1) 0 and dst = Vec.create () and words = Vec.create () in
  for c = 0 to k - 1 do
    let m = ref 0 in
    Array.iter
      (fun tr ->
        let q2 = col.(tr) in
        let s = row.(tr) * nw and d = q2 * nw in
        for w = bel_lo.(tr) to bel_hi.(tr) do
          let j = all.(s + w) land bel_w.((tr * nw) + w) in
          if j <> 0 then begin
            if seen.(q2) <> c then begin
              seen.(q2) <- c;
              dsts.(!m) <- q2;
              incr m
            end;
            acc.(d + w) <- acc.(d + w) lor j
          end
        done)
      trans_by_cls.(c);
    let reached = Array.sub dsts 0 !m in
    Array.sort Int.compare reached;
    Array.iter
      (fun q2 ->
        Vec.push dst q2;
        for w = 0 to nw - 1 do
          Vec.push words acc.((q2 * nw) + w);
          acc.((q2 * nw) + w) <- 0
        done)
      reached;
    off.(c + 1) <- Vec.length dst
  done;
  (off, Vec.to_array dst, Vec.to_array words)

(* The injection [(off0, dst0, words0)] restricted to the FSAs in
   [keep]: destinations left empty are dropped, and the match words
   are filled in. *)
let masked nw ~final_w (off0, dst0, words0) keep =
  let k = Array.length off0 - 1 in
  let off = Array.make (k + 1) 0 and fin = Array.make (k * nw) 0 in
  let dst = Array.make (Array.length dst0) 0 in
  let words = Array.make (Array.length words0) 0 in
  let m = ref 0 in
  for c = 0 to k - 1 do
    for i = off0.(c) to off0.(c + 1) - 1 do
      let q2 = dst0.(i) and any = ref 0 in
      for w = 0 to nw - 1 do
        let j = words0.((i * nw) + w) land keep.(w) in
        any := !any lor j;
        words.((!m * nw) + w) <- j;
        fin.((c * nw) + w) <- fin.((c * nw) + w) lor (j land final_w.((q2 * nw) + w))
      done;
      if !any <> 0 then begin
        dst.(!m) <- q2;
        incr m
      end
    done;
    off.(c + 1) <- !m
  done;
  { off; dst = Array.sub dst 0 !m; words = Array.sub words 0 (!m * nw); fin }

(* [trans_by_cls] regrouped by source state: one counting sort per
   class, with one fill cursor per state. *)
let by_source (z : Mfsa.t) trans_by_cls =
  let n = z.Mfsa.n_states and row = z.Mfsa.row in
  let total = Array.fold_left (fun a e -> a + Array.length e) 0 trans_by_cls in
  let src_off = Array.make (Array.length trans_by_cls * (n + 1)) 0 in
  let src_tr = Array.make total 0 and fill = Array.make n 0 in
  let base = ref 0 in
  Array.iteri
    (fun c enabled ->
      let o = c * (n + 1) in
      Array.iter (fun tr -> let q = o + row.(tr) + 1 in src_off.(q) <- src_off.(q) + 1) enabled;
      src_off.(o) <- !base;
      for q = o + 1 to o + n do
        src_off.(q) <- src_off.(q) + src_off.(q - 1)
      done;
      Array.blit src_off o fill 0 n;
      Array.iter
        (fun tr ->
          let q = row.(tr) in
          src_tr.(fill.(q)) <- tr;
          fill.(q) <- fill.(q) + 1)
        enabled;
      base := !base + Array.length enabled)
    trans_by_cls;
  (src_off, src_tr)

(* Everything the step kernel reads, in O((transitions + states) × nw
   + Σ enabled × nw + classes × states) word copies and masks — cheap
   enough for both the compile and the table-adoption paths, so
   artifacts need not store it. *)
let assemble (z : Mfsa.t) ~k ~class_of ~trans_by_cls ~prefilter =
  let nw = Array.length (Bitset.words (Bitset.create z.Mfsa.n_fsas)) in
  let all = flatten nw z.Mfsa.init_sets in
  let anch = mask_of z.Mfsa.anchored_start in
  let nt = Mfsa.n_transitions z and bel_w = flatten nw z.Mfsa.bel in
  let final_w = flatten nw z.Mfsa.final_sets in
  (* The first non-zero word of bel(tr) walking from [w] by [dir]; an
     empty bel gives lo = nw > hi = -1. *)
  let rec span tr w dir =
    if w < 0 || w >= nw || bel_w.((tr * nw) + w) <> 0 then w
    else span tr (w + dir) dir
  in
  let bel_lo = Array.init nt (fun tr -> span tr 0 1)
  and bel_hi = Array.init nt (fun tr -> span tr (nw - 1) (-1)) in
  let inject =
    masked nw ~final_w (injection z nw ~trans_by_cls ~bel_w ~bel_lo ~bel_hi all)
  in
  let src_off, src_tr = by_source z trans_by_cls in
  {
    z;
    k;
    class_of;
    trans_by_cls;
    prefilter;
    src_off;
    src_tr;
    nw;
    bel_w;
    bel_lo;
    bel_hi;
    final_w;
    i_all = inject (Array.make nw (-1));
    i_unanch = inject (Array.map lnot anch);
    i_anch = inject anch;
    i_none =
      { off = Array.make (k + 1) 0; dst = [||]; words = [||]; fin = Array.make (k * nw) 0 };
    skipped_bytes = 0;
  }

let tables (z : Mfsa.t) =
  let cls = Mfsa.classes z in
  let k = cls.Mfsa.n_classes in
  let class_of = cls.Mfsa.class_of_byte in
  (* A transition's enabling class is a union of byte classes. Many
     transitions share one character class, so each distinct class's
     list is computed once, deduped by one stamp per byte class. *)
  let by_cls = Array.init k (fun _ -> Vec.create ()) in
  let memo = Cc_tbl.create 64 and stamp = Array.make k (-1) in
  let classes cc =
    match Cc_tbl.find_opt memo cc with
    | Some l -> l
    | None ->
        let id = Cc_tbl.length memo in
        let l =
          Charclass.fold
            (fun c l ->
              let cl = Char.code (Bytes.get class_of (Char.code c)) in
              if stamp.(cl) = id then l
              else begin
                stamp.(cl) <- id;
                cl :: l
              end)
            cc []
        in
        Cc_tbl.add memo cc l;
        l
  in
  Array.iteri
    (fun t cc -> List.iter (fun cl -> Vec.push by_cls.(cl) t) (classes cc))
    z.Mfsa.idx;
  {
    Tables.z;
    n_classes = k;
    class_of;
    trans_by_cls = Array.map Vec.to_array by_cls;
    prefilter = Prefilter.analyze z;
  }

let of_tables (tb : Tables.t) =
  let z = tb.Tables.z in
  assemble z ~k:tb.Tables.n_classes
    ~class_of:tb.Tables.class_of ~trans_by_cls:tb.Tables.trans_by_cls
    ~prefilter:tb.Tables.prefilter

let compile z = of_tables (tables z)

let mfsa t = t.z

let n_classes t = t.k

let class_of t = t.class_of

let prefilter t = t.prefilter

let skipped_bytes t = t.skipped_bytes

let reset_skipped t = t.skipped_bytes <- 0

(* ------------------------------------------------------- The kernel *)

(* A scan's configuration: J(q) is [cur.(q*nw) .. cur.(q*nw+nw-1)],
   valid iff [cur_stamp.(q) = gen] (epoch stamps: advancing [gen]
   deactivates every state in O(1) instead of clearing the vector).
   The stamped states are listed, in no particular order, in
   [cur_live.(0 .. cur_n - 1)]. [nxt], [nxt_stamp] and [nxt_live]
   collect the configuration after the current byte, and [macc] the
   FSAs that matched on it. A state is stamped only with a non-empty
   set, so "stamped" means "live". *)
type scan = {
  mutable cur : int array;
  mutable nxt : int array;
  mutable cur_stamp : int array;
  mutable nxt_stamp : int array;
  mutable cur_live : int array;
  mutable nxt_live : int array;
  mutable cur_n : int;
  mutable nxt_n : int;
  mutable gen : int;
  macc : int array;
}

let scan_create t =
  let n = t.z.Mfsa.n_states in
  {
    cur = Array.make (n * t.nw) 0;
    nxt = Array.make (n * t.nw) 0;
    cur_stamp = Array.make n (-1);
    nxt_stamp = Array.make n (-1);
    cur_live = Array.make n 0;
    nxt_live = Array.make n 0;
    cur_n = 0;
    nxt_n = 0;
    gen = 0;
    macc = Array.make t.nw 0;
  }

(* One input byte of class [cls]. The new configuration is
   J(q2) = ⋃ J' over the enabled transitions t = q1 -> q2, with

     J' = (J(q1) ∪ init(q1)) ∩ bel(t)      Equations 4 and 6

   and since ∩ distributes over ∪ the two halves are computed apart:

   - injection, init(q1) ∩ bel(t), depends only on the class, so the
     table [ini] holds it precomputed per destination: it is copied
     into the next vector, and the FSAs it matches into [macc];
   - then every live state q1 walks only its own transitions enabled
     by the class (the [src_off]/[src_tr] rows), ORs J(q1) ∩ bel(t)
     into J(q2) and J' ∩ final(q2) into the match words (Equation 5).

   Work is proportional to the live states' enabled transitions plus
   the injected destinations, not to every enabled transition.
   Allocates nothing. Returns whether any next state is live; the
   caller drains [macc] and swaps. *)
let step t sc cls ini =
  let nw = t.nw and col = t.z.Mfsa.col in
  let bel = t.bel_w and lo = t.bel_lo and hi = t.bel_hi and fin = t.final_w in
  let cur = sc.cur and nxt = sc.nxt and macc = sc.macc in
  let nxt_stamp = sc.nxt_stamp and nxt_live = sc.nxt_live in
  let g1 = sc.gen + 1 in
  let n = ref 0 in
  let dst = ini.dst and words = ini.words in
  for i = Array.unsafe_get ini.off cls to Array.unsafe_get ini.off (cls + 1) - 1 do
    let q2 = Array.unsafe_get dst i in
    let s = i * nw and d = q2 * nw in
    for w = 0 to nw - 1 do
      Array.unsafe_set nxt (d + w) (Array.unsafe_get words (s + w))
    done;
    Array.unsafe_set nxt_stamp q2 g1;
    Array.unsafe_set nxt_live !n q2;
    incr n
  done;
  let f = cls * nw in
  for w = 0 to nw - 1 do
    Array.unsafe_set macc w (Array.unsafe_get macc w lor Array.unsafe_get ini.fin (f + w))
  done;
  let src_off = t.src_off and src_tr = t.src_tr in
  let row0 = cls * (t.z.Mfsa.n_states + 1) in
  for l = 0 to sc.cur_n - 1 do
    let q1 = Array.unsafe_get sc.cur_live l in
    let s = q1 * nw in
    for e = Array.unsafe_get src_off (row0 + q1) to Array.unsafe_get src_off (row0 + q1 + 1) - 1 do
      let tr = Array.unsafe_get src_tr e in
      let q2 = Array.unsafe_get col tr in
      let b = tr * nw and d = q2 * nw in
      let fresh = Array.unsafe_get nxt_stamp q2 <> g1 in
      (* An unstamped J(q2) holds stale words. *)
      if fresh then
        for w = d to d + nw - 1 do
          Array.unsafe_set nxt w 0
        done;
      let any = ref 0 in
      for w = Array.unsafe_get lo tr to Array.unsafe_get hi tr do
        let j = Array.unsafe_get cur (s + w) land Array.unsafe_get bel (b + w) in
        any := !any lor j;
        Array.unsafe_set nxt (d + w) (Array.unsafe_get nxt (d + w) lor j);
        Array.unsafe_set macc w
          (Array.unsafe_get macc w lor (j land Array.unsafe_get fin (d + w)))
      done;
      if fresh && !any <> 0 then begin
        Array.unsafe_set nxt_stamp q2 g1;
        Array.unsafe_set nxt_live !n q2;
        incr n
      end
    done
  done;
  sc.nxt_n <- !n;
  !n > 0

(* Report the FSAs matched on this byte, ascending, and clear them. *)
let drain sc pos on_match =
  let macc = sc.macc in
  for w = 0 to Array.length macc - 1 do
    let x = macc.(w) in
    if x <> 0 then begin
      macc.(w) <- 0;
      for b = 0 to bpw - 1 do
        if x land (1 lsl b) <> 0 then on_match ((w * bpw) + b) pos
      done
    end
  done

(* The configuration after the byte becomes the current one. *)
let swap sc =
  let c = sc.cur and cs = sc.cur_stamp and cl = sc.cur_live in
  sc.cur <- sc.nxt;
  sc.cur_stamp <- sc.nxt_stamp;
  sc.cur_live <- sc.nxt_live;
  sc.cur_n <- sc.nxt_n;
  sc.nxt <- c;
  sc.nxt_stamp <- cs;
  sc.nxt_live <- cl;
  sc.nxt_n <- 0;
  sc.gen <- sc.gen + 1

let class_at t input i =
  Char.code (Bytes.unsafe_get t.class_of (Char.code (String.unsafe_get input i)))

(* ------------------------------------------------ Configurations *)

(* A flat configuration lists the active states ascending, each
   followed by its [nw] activation words: the form the lazy DFA
   ({!Hybrid}) interns, and the one sessions convert through. *)

(* Make flat configuration [cfg] the scan's current one. Advancing
   [gen] by two stales every stamp on either side of the scan. *)
let load t sc cfg =
  let nw = t.nw in
  sc.gen <- sc.gen + 2;
  let p = ref 0 and n = ref 0 in
  while !p < Array.length cfg do
    let q = cfg.(!p) in
    sc.cur_stamp.(q) <- sc.gen;
    sc.cur_live.(!n) <- q;
    incr n;
    Array.blit cfg (!p + 1) sc.cur (q * nw) nw;
    p := !p + 1 + nw
  done;
  sc.cur_n <- !n

(* Write the [n] states of [live], with their sets from [words], to
   [out] in flat form, ascending; returns the length written. The list
   is short, so it is insertion-sorted in place (the kernel does not
   depend on its order). *)
let compact t words live n out =
  let nw = t.nw in
  for i = 1 to n - 1 do
    let q = live.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && live.(!j) > q do
      live.(!j + 1) <- live.(!j);
      decr j
    done;
    live.(!j + 1) <- q
  done;
  for i = 0 to n - 1 do
    let q = live.(i) and o = i * (1 + nw) in
    out.(o) <- q;
    Array.blit words (q * nw) out (o + 1) nw
  done;
  n * (1 + nw)

let flat_buffer t = Array.make (t.z.Mfsa.n_states * (1 + t.nw)) 0

type stepper = {
  sc : scan;
  next : int array;
  mutable next_len : int;
  matched : int array;
  mutable n_matched : int;
}

let stepper t =
  {
    sc = scan_create t;
    next = flat_buffer t;
    next_len = 0;
    matched = Array.make t.z.Mfsa.n_fsas 0;
    n_matched = 0;
  }

(* One kernel step from an explicit configuration, the successor
   compacted into [next] and the matched FSAs listed ascending in
   [matched]. Allocates nothing. *)
let config_step t sp cfg cls ~at_start =
  let sc = sp.sc in
  load t sc cfg;
  ignore (step t sc cls (if at_start then t.i_all else t.i_unanch));
  sp.next_len <- compact t sc.nxt sc.nxt_live sc.nxt_n sp.next;
  let macc = sc.macc and m = ref 0 in
  for w = 0 to t.nw - 1 do
    let x = macc.(w) in
    if x <> 0 then begin
      macc.(w) <- 0;
      for b = 0 to bpw - 1 do
        if x land (1 lsl b) <> 0 then begin
          sp.matched.(!m) <- (w * bpw) + b;
          incr m
        end
      done
    end
  done;
  sp.n_matched <- !m

(* End-anchored FSAs only match at the end of the whole input. *)
let end_anchored t input on_match =
  let len = String.length input and aend = t.z.Mfsa.anchored_end in
  fun j e -> if e = len || not aend.(j) then on_match j e

(* The batch driver: scan input.[start..stop-1] from an empty
   configuration, injecting initial states. Position 0 (global) keeps
   the anchored-start injection.

   With a prefilter, initial states are only injected at
   candidate positions — offsets where some rule's required literal
   prefix starts. A thread injected elsewhere can never reach a final
   state consistently (its match would have to begin with the
   literal), so restricting injection is match-preserving; and once
   the active set is empty with injection restricted, every byte
   before the next candidate is a guaranteed no-op, so the loop jumps
   straight there. Returns the final scan and the bytes skipped. *)
let local_pass t input ~start ~stop ~on_match =
  let sc = scan_create t in
  let on_match = end_anchored t input on_match in
  let use_pf = t.prefilter <> None in
  let cands =
    match t.prefilter with
    | Some p -> Prefilter.candidates_in p input ~start ~stop
    | None -> [||]
  in
  let nc = Array.length cands in
  let ci = ref 0 and i = ref start and skipped = ref 0 in
  while !i < stop do
    (* [ci] = first candidate at or after the current position. *)
    if use_pf then while !ci < nc && cands.(!ci) < !i do incr ci done;
    let at_cand = (not use_pf) || (!ci < nc && cands.(!ci) = !i) in
    let ini =
      if !i = 0 then if at_cand then t.i_all else t.i_anch
      else if at_cand then t.i_unanch
      else t.i_none
    in
    let live = step t sc (class_at t input !i) ini in
    drain sc (!i + 1) on_match;
    swap sc;
    if use_pf && not live then begin
      (* Empty active set: nothing can happen before the next literal
         candidate — jump there. *)
      let j = if at_cand then !ci + 1 else !ci in
      let target = if j < nc then max cands.(j) (!i + 1) else stop in
      skipped := !skipped + (target - !i - 1);
      i := target
    end
    else incr i
  done;
  (sc, !skipped)

let execute t input ~on_match =
  let _, skipped =
    local_pass t input ~start:0 ~stop:(String.length input) ~on_match
  in
  t.skipped_bytes <- t.skipped_bytes + skipped

let run t input =
  let acc = ref [] in
  execute t input ~on_match:(fun fsa e -> acc := { fsa; end_pos = e } :: !acc);
  List.rev !acc

let count t input =
  let c = ref 0 in
  execute t input ~on_match:(fun _ _ -> incr c);
  !c

let count_per_fsa t input =
  let counts = Array.make t.z.Mfsa.n_fsas 0 in
  execute t input ~on_match:(fun fsa _ -> counts.(fsa) <- counts.(fsa) + 1);
  counts

(* Table II characterises the automaton itself, so this pass injects
   at every position and never skips — skipping dead stretches would
   zero the very quantity measured. After every byte it counts the
   distinct FSAs active in the configuration. *)
let run_with_stats t input =
  let len = String.length input in
  let sc = scan_create t in
  let acc = ref [] in
  let on_match =
    end_anchored t input (fun fsa e -> acc := { fsa; end_pos = e } :: !acc)
  in
  let active = Bitset.create t.z.Mfsa.n_fsas in
  let u = Bitset.words active in
  let sum = ref 0 and peak = ref 0 in
  for i = 0 to len - 1 do
    ignore
      (step t sc (class_at t input i) (if i = 0 then t.i_all else t.i_unanch));
    drain sc (i + 1) on_match;
    swap sc;
    Array.fill u 0 t.nw 0;
    for l = 0 to sc.cur_n - 1 do
      let q = sc.cur_live.(l) in
      for w = 0 to t.nw - 1 do
        u.(w) <- u.(w) lor sc.cur.((q * t.nw) + w)
      done
    done;
    let a = Bitset.cardinal active in
    sum := !sum + a;
    peak := max !peak a
  done;
  ( List.rev !acc,
    {
      positions = len;
      avg_active = (if len = 0 then 0. else float_of_int !sum /. float_of_int len);
      max_active = !peak;
    } )

(* ------------------------------------------- Chunked entry points *)

(* The SFA decomposition (lib/engine/sfa) rests on the step function
   distributing over thread-set union: the sequential configuration at
   a chunk boundary is the union of (a) threads injected inside the
   chunk — computed here, in parallel, with no knowledge of earlier
   chunks — and (b) the carried-in boundary configuration stepped with
   no injection at all (carry_step below). A carry is that
   configuration in flat form: a fresh immutable array, safe to hand
   across domains. *)

type carry = int array

let config_of_scan t sc =
  let out = flat_buffer t in
  Array.sub out 0 (compact t sc.cur sc.cur_live sc.cur_n out)

(* Prefilter skips are returned, not accumulated into [t]: chunk passes
   run concurrently over one shared engine. *)
let run_chunk t input ~start ~stop ~on_match =
  let sc, skipped = local_pass t input ~start ~stop ~on_match in
  (config_of_scan t sc, skipped)

(* The left-to-right join fix-up: the kernel with injection off. The
   carried set only shrinks, so the loop exits the moment it dies
   (typically a few bytes past the boundary). *)
let carry_step t carry input ~start ~stop ~on_match =
  let sc = scan_create t in
  load t sc carry;
  let on_match = end_anchored t input on_match in
  let live = ref (Array.length carry > 0) and i = ref start in
  while !i < stop && !live do
    live := step t sc (class_at t input !i) t.i_none;
    drain sc (!i + 1) on_match;
    swap sc;
    incr i
  done;
  (config_of_scan t sc, !i - start)

(* Statewise OR of two flat configurations, merged in state order.
   Never mutates either argument; the result may be one of them. *)
let carry_union t c1 c2 =
  let n1 = Array.length c1 and n2 = Array.length c2 and nw = t.nw in
  if n1 = 0 then c2
  else if n2 = 0 then c1
  else begin
    let out = Array.make (n1 + n2) 0 in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < n1 || !j < n2 do
      let q1 = if !i < n1 then c1.(!i) else max_int
      and q2 = if !j < n2 then c2.(!j) else max_int in
      let q = min q1 q2 in
      out.(!n) <- q;
      for w = 1 to nw do
        out.(!n + w) <-
          (if q1 = q then c1.(!i + w) else 0)
          lor if q2 = q then c2.(!j + w) else 0
      done;
      if q1 = q then i := !i + 1 + nw;
      if q2 = q then j := !j + 1 + nw;
      n := !n + 1 + nw
    done;
    Array.sub out 0 !n
  end

(* ------------------------------------------------------- Streaming *)

(* Sessions use the class-indexed tables but keep processing every
   byte: a literal can straddle a chunk boundary, so skip decisions
   would need lookahead the stream does not have yet. The batch
   entry points above are where the prefilter pays. *)

type session = {
  eng : t;
  sc : scan;
  mutable pos : int;
  mutable pending_end : int list;
      (* end-anchored FSAs matched exactly at [pos], descending;
         flushed by [finish], discarded whenever the stream continues *)
}

let session eng = { eng; sc = scan_create eng; pos = 0; pending_end = [] }

let session_of_config eng cfg ~pos ~pending_end =
  let sc = scan_create eng in
  load eng sc cfg;
  { eng; sc; pos; pending_end }

let config_of_session s = config_of_scan s.eng s.sc

let pending_end s = s.pending_end

let reset s =
  Array.fill s.sc.cur_stamp 0 (Array.length s.sc.cur_stamp) (-1);
  Array.fill s.sc.nxt_stamp 0 (Array.length s.sc.nxt_stamp) (-1);
  s.sc.gen <- 0;
  s.sc.cur_n <- 0;
  s.sc.nxt_n <- 0;
  s.pos <- 0;
  s.pending_end <- []

let position s = s.pos

let feed s chunk =
  let t = s.eng in
  let acc = ref [] in
  let on_match j e =
    if t.z.Mfsa.anchored_end.(j) then s.pending_end <- j :: s.pending_end
    else acc := { fsa = j; end_pos = e } :: !acc
  in
  for i = 0 to String.length chunk - 1 do
    (* Any continuation invalidates matches that were waiting for
       end-of-stream. *)
    (match s.pending_end with [] -> () | _ -> s.pending_end <- []);
    let ini = if s.pos = 0 then t.i_all else t.i_unanch in
    ignore (step t s.sc (class_at t chunk i) ini);
    drain s.sc (s.pos + 1) on_match;
    swap s.sc;
    s.pos <- s.pos + 1
  done;
  List.rev !acc

let finish s =
  List.rev_map (fun j -> { fsa = j; end_pos = s.pos }) s.pending_end
