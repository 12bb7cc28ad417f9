module Mfsa = Mfsa_model.Mfsa
module Charclass = Mfsa_charset.Charclass
module Bitset = Mfsa_util.Bitset
module Vec = Mfsa_util.Vec

(* Per-state initial FSA sets in the kernel's flat layout: state q's
   set is [iw.(q*nw) .. iw.(q*nw+nw-1)], and [has.(q)] says it is
   non-empty. [iw] is never read where [has] is false, so the
   injection-off table carries no words. *)
type inits = { iw : int array; has : bool array }

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

(* The flat initial-set table [all ∩ keep], in O(states × nw). *)
let inits_of nw all keep =
  let n = Array.length all / nw in
  let iw = Array.make (n * nw) 0 and has = Array.make n false in
  for q = 0 to n - 1 do
    for w = 0 to nw - 1 do
      let x = all.((q * nw) + w) land keep.(w) in
      iw.((q * nw) + w) <- x;
      if x <> 0 then has.(q) <- true
    done
  done;
  { iw; has }

(* Everything the step kernel reads, in O((transitions + states) × nw)
   word copies and masks — cheap enough for both the compile and the
   table-adoption paths, so artifacts need not store it. *)
let assemble (z : Mfsa.t) ~k ~class_of ~trans_by_cls ~prefilter =
  let nw = Array.length (Bitset.words (Bitset.create z.Mfsa.n_fsas)) in
  let all = flatten nw z.Mfsa.init_sets in
  let anch = mask_of z.Mfsa.anchored_start in
  let nt = Mfsa.n_transitions z and bel_w = flatten nw z.Mfsa.bel in
  (* The first non-zero word of bel(tr) walking from [w] by [dir]; an
     empty bel gives lo = nw > hi = -1. *)
  let rec span tr w dir =
    if w < 0 || w >= nw || bel_w.((tr * nw) + w) <> 0 then w
    else span tr (w + dir) dir
  in
  {
    z;
    k;
    class_of;
    trans_by_cls;
    prefilter;
    nw;
    bel_w;
    bel_lo = Array.init nt (fun tr -> span tr 0 1);
    bel_hi = Array.init nt (fun tr -> span tr (nw - 1) (-1));
    final_w = flatten nw z.Mfsa.final_sets;
    i_all = inits_of nw all (Array.make nw (-1));
    i_unanch = inits_of nw all (Array.map lnot anch);
    i_anch = inits_of nw all anch;
    i_none = { iw = [||]; has = Array.make z.Mfsa.n_states false };
    skipped_bytes = 0;
  }

let compile (z : Mfsa.t) =
  let cls = Mfsa.classes z in
  let k = cls.Mfsa.n_classes in
  let class_of = cls.Mfsa.class_of_byte in
  (* A transition's enabling class is a union of byte classes, so one
     stamp per (transition, class) pair dedupes the per-byte walk. *)
  let by_cls = Array.init k (fun _ -> Vec.create ()) in
  let stamp = Array.make k (-1) in
  Array.iteri
    (fun t cc ->
      Charclass.iter
        (fun c ->
          let cl = Char.code (Bytes.get class_of (Char.code c)) in
          if stamp.(cl) <> t then begin
            stamp.(cl) <- t;
            Vec.push by_cls.(cl) t
          end)
        cc)
    z.Mfsa.idx;
  assemble z ~k ~class_of
    ~trans_by_cls:(Array.map Vec.to_array by_cls)
    ~prefilter:(Prefilter.analyze z)

let of_tables (tb : Tables.t) =
  let z = tb.Tables.z in
  assemble z ~k:tb.Tables.n_classes
    ~class_of:tb.Tables.class_of ~trans_by_cls:tb.Tables.trans_by_cls
    ~prefilter:tb.Tables.prefilter

let export_tables t =
  {
    Tables.z = t.z;
    n_classes = t.k;
    class_of = t.class_of;
    trans_by_cls = t.trans_by_cls;
    prefilter = t.prefilter;
  }

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
   [nxt] collects the configuration after the current byte, and
   [macc] the FSAs that matched on it. A state is stamped only with a
   non-empty set, so "stamped" means "live". *)
type scan = {
  mutable cur : int array;
  mutable nxt : int array;
  mutable cur_stamp : int array;
  mutable nxt_stamp : int array;
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
    gen = 0;
    macc = Array.make t.nw 0;
  }

(* One input byte of class [cls] — the only loop over [trans_by_cls].
   Every enabled transition q1 -> q2 whose source is active or
   injecting computes, word by word,

     J' = (J(q1) ∪ init(q1)) ∩ bel(t)      Equations 4 and 6

   ORs it into J(q2) for the next byte and J' ∩ final(q2) into the
   match words (Equation 5). Allocates nothing. Returns whether any
   next state is live; the caller drains [macc] and swaps. *)
let step t sc cls ini =
  let nw = t.nw and row = t.z.Mfsa.row and col = t.z.Mfsa.col in
  let bel = t.bel_w and lo = t.bel_lo and hi = t.bel_hi and fin = t.final_w in
  let iw = ini.iw and has = ini.has in
  let cur = sc.cur and nxt = sc.nxt and macc = sc.macc in
  let cur_stamp = sc.cur_stamp and nxt_stamp = sc.nxt_stamp in
  let gen = sc.gen in
  let enabled = t.trans_by_cls.(cls) in
  let live = ref false in
  for e = 0 to Array.length enabled - 1 do
    let tr = Array.unsafe_get enabled e in
    let q1 = Array.unsafe_get row tr in
    let active = Array.unsafe_get cur_stamp q1 = gen
    and inject = Array.unsafe_get has q1 in
    if active || inject then begin
      let q2 = Array.unsafe_get col tr in
      let s = q1 * nw and b = tr * nw and d = q2 * nw in
      (* An unstamped J(q2) holds stale words. *)
      if Array.unsafe_get nxt_stamp q2 <> gen + 1 then
        for w = d to d + nw - 1 do
          Array.unsafe_set nxt w 0
        done;
      let any = ref 0 in
      for w = Array.unsafe_get lo tr to Array.unsafe_get hi tr do
        let j =
          ((if active then Array.unsafe_get cur (s + w) else 0)
          lor if inject then Array.unsafe_get iw (s + w) else 0)
          land Array.unsafe_get bel (b + w)
        in
        any := !any lor j;
        Array.unsafe_set nxt (d + w) (Array.unsafe_get nxt (d + w) lor j);
        Array.unsafe_set macc w
          (Array.unsafe_get macc w lor (j land Array.unsafe_get fin (d + w)))
      done;
      if !any <> 0 then begin
        Array.unsafe_set nxt_stamp q2 (gen + 1);
        live := true
      end
    end
  done;
  !live

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
  let c = sc.cur and cs = sc.cur_stamp in
  sc.cur <- sc.nxt;
  sc.cur_stamp <- sc.nxt_stamp;
  sc.nxt <- c;
  sc.nxt_stamp <- cs;
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
  let p = ref 0 in
  while !p < Array.length cfg do
    let q = cfg.(!p) in
    sc.cur_stamp.(q) <- sc.gen;
    for w = 0 to nw - 1 do
      sc.cur.((q * nw) + w) <- cfg.(!p + 1 + w)
    done;
    p := !p + 1 + nw
  done

(* Write the states stamped [g] in [stamp], with their sets from
   [words], to [out] in flat form; returns the length written. *)
let compact t words (stamp : int array) g out =
  let nw = t.nw in
  let n = ref 0 in
  for q = 0 to t.z.Mfsa.n_states - 1 do
    if Array.unsafe_get stamp q = g then begin
      out.(!n) <- q;
      for w = 0 to nw - 1 do
        out.(!n + 1 + w) <- words.((q * nw) + w)
      done;
      n := !n + 1 + nw
    end
  done;
  !n

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
  sp.next_len <- compact t sc.nxt sc.nxt_stamp (sc.gen + 1) sp.next;
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
    for q = 0 to t.z.Mfsa.n_states - 1 do
      if sc.cur_stamp.(q) = sc.gen then
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
  Array.sub out 0 (compact t sc.cur sc.cur_stamp sc.gen out)

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
