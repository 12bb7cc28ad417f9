module Mfsa = Mfsa_model.Mfsa
module Bitset = Mfsa_util.Bitset

type match_event = Engine_sig.match_event = { fsa : int; end_pos : int }

type stats = {
  steps : int;
  hits : int;
  misses : int;
  configs_interned : int;
  resident_configs : int;
  flushes : int;
  evictions : int;
  capacity : int;
  grows : int;
  shrinks : int;
  demotions : int;
  cache_bytes : int;
  skipped_bytes : int;
}

(* A configuration is iMFAnt's entire runtime state at one input
   position: the active states (ascending) with their activation sets
   J(q). States with empty J are not active (Equation 6 popped every
   FSA), so they never appear. *)
type config = { c_states : int array; c_sets : Bitset.t array }

let empty_cfg = { c_states = [||]; c_sets = [||] }

module Key = struct
  type t = config

  let equal a b =
    let n = Array.length a.c_states in
    n = Array.length b.c_states
    &&
    let rec go i =
      i >= n
      || a.c_states.(i) = b.c_states.(i)
         && Bitset.equal a.c_sets.(i) b.c_sets.(i)
         && go (i + 1)
    in
    go 0

  let hash c =
    let h = ref (Array.length c.c_states) in
    Array.iteri
      (fun i q ->
        h := ((!h * 31) + q) land max_int;
        h := ((!h * 31) + Bitset.hash c.c_sets.(i)) land max_int)
      c.c_states;
    !h
end

module Tbl = Hashtbl.Make (Key)

(* One memo row per interned configuration, indexed by byte class: the
   successor id and the FSAs matching on the edge, per class. -1 = not
   computed yet. Successor ids can go stale — clock eviction reuses
   slots in place — so every memoised id is paired with the mint stamp
   the target slot carried when the entry was written ([next_stamp]);
   an entry is live iff the stored stamp still equals the slot's
   current stamp. *)
type row = {
  cfg : config;
  next : int array;
  next_stamp : int array;
  edge_matches : int array array;
}

let mk_row k cfg =
  {
    cfg;
    next = Array.make k (-1);
    next_stamp = Array.make k (-1);
    edge_matches = Array.make k [||];
  }

(* Row 0 is the position-0 start configuration (inits include the
   start-anchored FSAs); row 1 is the dead configuration (empty,
   reached mid-stream). Both are empty as (state, set) maps but step
   differently, so they get distinct permanent ids; only the dead one
   is registered in the intern table. [seed] rebuilds both after a
   flush; the clock hand never visits slots below 2, so these two ids
   are the only ones stable across both flushes and evictions. *)
let start_id = 0

let dead_id = 1

(* Sentinel a scan's [cur] takes while the engine is demoted and the
   configuration is live: the memo cache is bypassed, so there is no
   row id — the explicit configuration carried beside it is the whole
   handle. *)
let bypass_live = -2

(* Adaptive sizing bands: every [resize_window] steps the engine looks
   at the window's eviction pressure and hit rate. Sustained eviction
   pressure — at least one eviction per [grow_pressure] steps, i.e.
   the working set keeps displacing itself — doubles the live
   capacity up to [max_grow_factor] times the configured base
   regardless of the hit rate (a cache flooding at 0.9 still wastes
   most of its time re-interning; only the hit rate *after* growth
   tells whether growing helped, and [demote] catches the case where
   it never does). A hot cache (high rate, no evictions) halves the
   capacity back toward the base, but only when at most half of it is
   occupied, so shrinking is pure bookkeeping and never evicts a
   resident working set. *)
let resize_window = 4096

let grow_pressure = 64

let shrink_above_rate = 0.95

let max_grow_factor = 8

type t = {
  im : Imfant.t;
  z : Mfsa.t;
  k : int;  (* byte-class count; rows and CSR are class-indexed *)
  class_of : bytes;
  prefilter : Prefilter.t option;
  base_cache : int;  (* configured capacity; [cap] floats around it *)
  any_end_anchor : bool;
  init_all : Bitset.t array;
  init_unanch : Bitset.t array;
  init_states_all : int array;
      (* States initial for some FSA — fallback sources even when
         inactive (Equation 4: an FSA is pushed when leaving its
         initial state, at any input position). *)
  init_states_unanch : int array;
  csr_off : int array;
  csr_tr : int array;
  tbl : int Tbl.t;
  mutable rows : row array;
  mutable stamps : int array;
      (* Per-slot mint stamp; -1 marks a freed slot. The mint counter
         is monotone across flushes, so stamp equality identifies one
         specific minted row, ever. *)
  mutable refs : Bytes.t;  (* clock reference bits, '\001' = referenced *)
  mutable n_rows : int;
  mutable free : int list;  (* slots freed by a shrink, reused first *)
  mutable n_free : int;
  mutable hand : int;  (* clock hand, sweeps slots [2, n_rows) *)
  mutable cap : int;  (* live capacity in rows, adaptive *)
  mutable mint : int;
  mutable bypass : bool;
      (* Demoted: the memo cache is out of the loop and every step is
         an NFA fallback from the explicit configuration — plain
         iMFAnt semantics with session state preserved. *)
  mutable last_edge : int array;
      (* Matches of the edge the latest [step] traversed. *)
  mutable last_cfg : config;
      (* Successor configuration of the latest demoted [step]. *)
  (* Fallback scratch, allocated once per engine. *)
  acc_sets : Bitset.t array;
  acc_stamp : int array;
  active_stamp : int array;
  touched : int array;
  src_scratch : Bitset.t;
  tr_scratch : Bitset.t;
  match_acc : Bitset.t;
  mutable epoch : int;
      (* Bumped by every flush. Row ids > dead_id minted before the
         current epoch index a dropped rows array; sessions compare
         epochs (then per-slot stamps) to know when to re-intern their
         configuration. *)
  mutable gen : int;
  (* Counters. *)
  mutable steps : int;
  mutable hits : int;
  mutable misses : int;
  mutable interned : int;
  mutable flushes : int;
  mutable evictions_c : int;
  mutable grows_c : int;
  mutable shrinks_c : int;
  mutable demotions_c : int;
  mutable skipped : int;
  (* Resize-window marks: counter values at the window's start. *)
  mutable win_steps0 : int;
  mutable win_hits0 : int;
  mutable win_ev0 : int;
}

let add_row t cfg ~register =
  if t.n_rows = Array.length t.rows then begin
    let n = Array.length t.rows in
    let bigger = Array.make (2 * n) t.rows.(0) in
    Array.blit t.rows 0 bigger 0 t.n_rows;
    t.rows <- bigger;
    let stamps = Array.make (2 * n) (-1) in
    Array.blit t.stamps 0 stamps 0 t.n_rows;
    t.stamps <- stamps;
    let refs = Bytes.make (2 * n) '\000' in
    Bytes.blit t.refs 0 refs 0 t.n_rows;
    t.refs <- refs
  end;
  let id = t.n_rows in
  t.rows.(id) <- mk_row t.k cfg;
  t.mint <- t.mint + 1;
  t.stamps.(id) <- t.mint;
  Bytes.set t.refs id '\001';
  t.n_rows <- id + 1;
  if register then Tbl.replace t.tbl cfg id;
  id

let seed t =
  t.n_rows <- 0;
  ignore (add_row t empty_cfg ~register:false);
  (* start *)
  ignore (add_row t empty_cfg ~register:true)
(* dead *)

let of_imfant ?cache_size im =
  (* The wrapped engine recorded the tuning in force when it was
     compiled (or the one stored in the tables it was adopted from);
     reading it there — not the current global — keeps artifact-loaded
     engines faithful to their snapshot. *)
  let tuning = Imfant.tuning im in
  let cache_size =
    match cache_size with Some c -> c | None -> tuning.Tuning.cache_size
  in
  if cache_size < 1 then invalid_arg "Hybrid.of_imfant: cache_size < 1";
  let z = Imfant.mfsa im in
  let init_all, init_unanch = Imfant.init_tables im in
  let csr_off, csr_tr = Imfant.csr im in
  let k = Imfant.n_classes im in
  let nonempty inits =
    let acc = ref [] in
    for q = Array.length inits - 1 downto 0 do
      if not (Bitset.is_empty inits.(q)) then acc := q :: !acc
    done;
    Array.of_list !acc
  in
  let n = z.Mfsa.n_states and nf = z.Mfsa.n_fsas in
  let t =
    {
      im;
      z;
      k;
      class_of = Imfant.class_of im;
      prefilter = Imfant.prefilter im;
      base_cache = cache_size;
      any_end_anchor = Array.exists Fun.id z.Mfsa.anchored_end;
      init_all;
      init_unanch;
      init_states_all = nonempty init_all;
      init_states_unanch = nonempty init_unanch;
      csr_off;
      csr_tr;
      tbl = Tbl.create 256;
      rows = Array.make 16 (mk_row k empty_cfg);
      stamps = Array.make 16 (-1);
      refs = Bytes.make 16 '\000';
      n_rows = 0;
      free = [];
      n_free = 0;
      hand = 2;
      cap = cache_size;
      mint = 0;
      bypass = false;
      last_edge = [||];
      last_cfg = empty_cfg;
      acc_sets = Array.init n (fun _ -> Bitset.create nf);
      acc_stamp = Array.make n (-1);
      active_stamp = Array.make n (-1);
      touched = Array.make n 0;
      src_scratch = Bitset.create nf;
      tr_scratch = Bitset.create nf;
      match_acc = Bitset.create nf;
      epoch = 0;
      gen = 0;
      steps = 0;
      hits = 0;
      misses = 0;
      interned = 0;
      flushes = 0;
      evictions_c = 0;
      grows_c = 0;
      shrinks_c = 0;
      demotions_c = 0;
      skipped = 0;
      win_steps0 = 0;
      win_hits0 = 0;
      win_ev0 = 0;
    }
  in
  seed t;
  t

let compile ?cache_size z = of_imfant ?cache_size (Imfant.compile z)

(* The configuration cache is populated on demand, so adoption
   inherits it lazily for free. *)
let of_tables ?cache_size tb = of_imfant ?cache_size (Imfant.of_tables tb)

let mfsa t = t.z

let imfant t = t.im

let flush t =
  Tbl.reset t.tbl;
  t.rows <- Array.make 16 (mk_row t.k empty_cfg);
  t.stamps <- Array.make 16 (-1);
  t.refs <- Bytes.make 16 '\000';
  t.free <- [];
  t.n_free <- 0;
  t.hand <- 2;
  t.cap <- t.base_cache;
  seed t;
  t.epoch <- t.epoch + 1;
  t.flushes <- t.flushes + 1

(* ------------------------------------------------- Clock eviction *)

(* Second chance over slots [2, n_rows): a swept row loses its
   reference bit, a row found without one is the victim. Freed slots
   (negative stamp) are invisible to the hand. After two full cycles
   of clearing, the next live row is picked unconditionally — the
   sweep is bounded even when every row is hot. *)
let clock_pick t =
  let rec sweep budget =
    if t.hand < 2 || t.hand >= t.n_rows then t.hand <- 2;
    let v = t.hand in
    t.hand <- t.hand + 1;
    if t.stamps.(v) < 0 then sweep budget
    else if budget <= 0 || Bytes.get t.refs v = '\000' then v
    else begin
      Bytes.set t.refs v '\000';
      sweep (budget - 1)
    end
  in
  sweep (2 * (t.n_rows - 2))

(* Forget the row living in slot [v]: unregister its configuration.
   The slot is then either reused in place ([install]) or parked on
   the free list. *)
let evict t v =
  Tbl.remove t.tbl t.rows.(v).cfg;
  t.evictions_c <- t.evictions_c + 1

let install t v cfg =
  t.rows.(v) <- mk_row t.k cfg;
  t.mint <- t.mint + 1;
  t.stamps.(v) <- t.mint;
  Bytes.set t.refs v '\001';
  Tbl.replace t.tbl cfg v;
  v

let free_slot t v =
  evict t v;
  t.rows.(v) <- mk_row t.k empty_cfg;
  t.stamps.(v) <- -1;
  Bytes.set t.refs v '\000';
  t.free <- v :: t.free;
  t.n_free <- t.n_free + 1

let live_rows t = t.n_rows - 2 - t.n_free

let rec shrink_to_cap t =
  if live_rows t > t.cap then begin
    free_slot t (clock_pick t);
    shrink_to_cap t
  end

(* Close a resize window if one has elapsed. Only called on the miss
   path — a workload that never misses never needs more capacity, and
   any real shrink opportunity still shows up through the occasional
   miss. Growth keys on eviction pressure alone: a working set
   marginally over capacity floods the clock at a deceptively high
   hit rate (every pass re-interns the same overflow), so waiting for
   the rate to drop would leave the cache stuck churning. Shrinking
   additionally requires the live rows to fit in half the capacity —
   then halving frees nothing and a resident working set is never
   evicted by its own cache. *)
let maybe_resize t =
  let w = t.steps - t.win_steps0 in
  if w >= resize_window then begin
    let rate = float_of_int (t.hits - t.win_hits0) /. float_of_int w in
    let evs = t.evictions_c - t.win_ev0 in
    let max_cap = max_grow_factor * t.base_cache in
    if evs * grow_pressure >= w && t.cap < max_cap then begin
      t.cap <- min max_cap (2 * t.cap);
      t.grows_c <- t.grows_c + 1
    end
    else if
      rate > shrink_above_rate && evs = 0 && t.cap > t.base_cache
      && live_rows t <= t.cap / 2
    then begin
      t.cap <- max t.base_cache (t.cap / 2);
      t.shrinks_c <- t.shrinks_c + 1;
      shrink_to_cap t
    end;
    t.win_steps0 <- t.steps;
    t.win_hits0 <- t.hits;
    t.win_ev0 <- t.evictions_c
  end

(* Find-or-create the row for [cfg]. A full cache evicts exactly one
   victim and reuses its slot in place — every other row, and every
   session, survives. The returned id is always valid in the rows
   array the call leaves behind. *)
let intern_id t cfg =
  match Tbl.find_opt t.tbl cfg with
  | Some id ->
      Bytes.set t.refs id '\001';
      id
  | None -> (
      t.interned <- t.interned + 1;
      maybe_resize t;
      (* The capacity bounds *live* rows, not allocated slots: reusing
         a freed slot still adds a resident row, so it goes through the
         same gate as growing the arrays — otherwise free-list refills
         after a shrink would let the occupancy silently climb past
         [cap] again. *)
      if live_rows t < t.cap then
        match t.free with
        | v :: rest ->
            t.free <- rest;
            t.n_free <- t.n_free - 1;
            install t v cfg
        | [] -> add_row t cfg ~register:true
      else begin
        let v = clock_pick t in
        evict t v;
        install t v cfg
      end)

(* The NFA step from one explicit configuration: Equations 4–6 over
   the active states' (and initial states') outgoing arcs for class
   [c], via the CSR — never the full class-enabled transition list. *)
let fallback t cfg c ~at_start =
  let z = t.z in
  let k = t.k in
  let inits = if at_start then t.init_all else t.init_unanch in
  let init_states =
    if at_start then t.init_states_all else t.init_states_unanch
  in
  let csr_off = t.csr_off and csr_tr = t.csr_tr in
  t.gen <- t.gen + 1;
  let g = t.gen in
  let ntouch = ref 0 in
  let fire q src =
    let base = (q * k) + c in
    for i = csr_off.(base) to csr_off.(base + 1) - 1 do
      let tr = csr_tr.(i) in
      (* J' = src ∩ bel(t); the move is valid iff J' ≠ ∅. *)
      Bitset.clear t.tr_scratch;
      ignore (Bitset.union_into ~dst:t.tr_scratch src);
      Bitset.inter_into ~dst:t.tr_scratch z.Mfsa.bel.(tr);
      if not (Bitset.is_empty t.tr_scratch) then begin
        let d = z.Mfsa.col.(tr) in
        if t.acc_stamp.(d) <> g then begin
          t.acc_stamp.(d) <- g;
          Bitset.clear t.acc_sets.(d);
          t.touched.(!ntouch) <- d;
          incr ntouch
        end;
        ignore (Bitset.union_into ~dst:t.acc_sets.(d) t.tr_scratch)
      end
    done
  in
  Array.iteri
    (fun i q ->
      t.active_stamp.(q) <- g;
      Bitset.clear t.src_scratch;
      ignore (Bitset.union_into ~dst:t.src_scratch cfg.c_sets.(i));
      ignore (Bitset.union_into ~dst:t.src_scratch inits.(q));
      fire q t.src_scratch)
    cfg.c_states;
  Array.iter
    (fun q -> if t.active_stamp.(q) <> g then fire q inits.(q))
    init_states;
  let states = Array.sub t.touched 0 !ntouch in
  Array.sort Int.compare states;
  Bitset.clear t.match_acc;
  let sets =
    Array.map
      (fun d ->
        let s = Bitset.copy t.acc_sets.(d) in
        (* Equation 5: matches for the FSAs final in d ∩ J'. *)
        Bitset.clear t.tr_scratch;
        ignore (Bitset.union_into ~dst:t.tr_scratch s);
        Bitset.inter_into ~dst:t.tr_scratch z.Mfsa.final_sets.(d);
        ignore (Bitset.union_into ~dst:t.match_acc t.tr_scratch);
        s)
      states
  in
  let matches =
    if Bitset.is_empty t.match_acc then [||]
    else Array.of_list (Bitset.to_list t.match_acc)
  in
  ({ c_states = states; c_sets = sets }, matches)

(* Consume one class from the scan state [cur] and return the
   successor, leaving the edge's match set in [t.last_edge].

   Cached: [cur] is a row id — memo lookup, or NFA fallback + intern
   + memoize. Staleness discipline: the memo hit requires the stored
   stamp to still match the successor slot's stamp (eviction reuses
   slots in place), and the memo write is skipped when clock eviction
   picked the very row we stepped from as the victim.

   Demoted: every step is the NFA fallback from the explicit
   configuration [cfg] (only read when [cur = bypass_live]; the start
   and dead ids stand for the empty configuration), counted as a miss
   — there is no cache to hit. The successor is [dead_id] or
   [bypass_live], with its configuration left in [t.last_cfg]. *)
let step t cur cfg c =
  t.steps <- t.steps + 1;
  if t.bypass then begin
    t.misses <- t.misses + 1;
    let src = if cur = bypass_live then cfg else empty_cfg in
    let cfg', ms = fallback t src c ~at_start:(cur = start_id) in
    t.last_edge <- ms;
    t.last_cfg <- cfg';
    if Array.length cfg'.c_states = 0 then dead_id else bypass_live
  end
  else begin
    let r = t.rows.(cur) in
    let nxt = r.next.(c) in
    if nxt >= 0 && r.next_stamp.(c) = t.stamps.(nxt) then begin
      t.hits <- t.hits + 1;
      Bytes.set t.refs nxt '\001';
      t.last_edge <- r.edge_matches.(c);
      nxt
    end
    else begin
      t.misses <- t.misses + 1;
      let cfg', ms = fallback t r.cfg c ~at_start:(cur = start_id) in
      let id = intern_id t cfg' in
      if t.rows.(cur) == r then begin
        r.next.(c) <- id;
        r.next_stamp.(c) <- t.stamps.(id);
        r.edge_matches.(c) <- ms
      end;
      t.last_edge <- ms;
      id
    end
  end

(* The configuration a scan state names. *)
let cfg_of t cur cfg = if cur = bypass_live then cfg else t.rows.(cur).cfg

(* ------------------------------------------------------- Demotion *)

(* Demotion is the planner's escape hatch for sustained churn: stop
   paying for a cache that cannot hold the working set and step the
   NFA directly, iMFAnt-style. Streaming sessions carry their
   configuration explicitly, so they cross both transitions without
   losing position or pending matches. *)
let demote t =
  if not t.bypass then begin
    t.bypass <- true;
    t.demotions_c <- t.demotions_c + 1;
    (* Return the memo's memory; also bumps the epoch, which is what
       tells outstanding sessions their row ids died. *)
    flush t
  end

let promote t = t.bypass <- false

let demoted t = t.bypass

(* ------------------------------------------------------ Execution *)

(* The one batch scan, over input.[start..stop-1]: [run]/[count]/
   [count_per_fsa] scan the whole input, and the SFA decomposition
   (lib/engine/sfa) scans one chunk at a time. A scan starts from the
   position-0 configuration when it owns global position 0 and from
   the dead configuration otherwise — exactly the thread set the
   sequential run would build from injections inside the window.
   Prefilter candidates come from {!Prefilter.candidates_in}, so a
   literal straddling the chunk end still injects at its in-chunk
   start. Returns the carry-out configuration after the last byte as
   explicit arrays (the interned row's hash-consed bitsets, immutable
   once built — safe to read from the joining domain). *)
let run_chunk t input ~start ~stop ~on_match =
  let z = t.z in
  let len = String.length input in
  let class_of = t.class_of in
  let cls i =
    Char.code
      (Bytes.unsafe_get class_of (Char.code (String.unsafe_get input i)))
  in
  let emit ms pos =
    let n = Array.length ms in
    if n > 0 then
      if not t.any_end_anchor then
        for j = 0 to n - 1 do
          on_match ms.(j) pos
        done
      else
        for j = 0 to n - 1 do
          let f = ms.(j) in
          if (not z.Mfsa.anchored_end.(f)) || pos = len then on_match f pos
        done
  in
  let cands =
    match t.prefilter with
    | None -> [||]
    | Some p -> Prefilter.candidates_in p input ~start ~stop
  in
  let use_pf = t.prefilter <> None in
  let nc = Array.length cands in
  let ci = ref 0 in
  let cur = ref (if start = 0 then start_id else dead_id) in
  let cfg = ref empty_cfg in
  let i = ref start in
  while !i < stop do
    (* The dead configuration only leaves through injection, and with
       a prefilter injection can only succeed at literal-candidate
       offsets: everything up to the next candidate is a no-op. *)
    if use_pf && !cur = dead_id then begin
      while !ci < nc && cands.(!ci) < !i do incr ci done;
      let target = if !ci < nc then cands.(!ci) else stop in
      if target > !i then begin
        t.skipped <- t.skipped + (target - !i);
        i := target
      end
    end;
    if !i < stop then begin
      cur := step t !cur !cfg (cls !i);
      if !cur = bypass_live then cfg := t.last_cfg;
      emit t.last_edge (!i + 1);
      incr i
    end
  done;
  let c = cfg_of t !cur !cfg in
  ((c.c_states, c.c_sets) : Imfant.carry)

let execute t input ~on_match =
  ignore (run_chunk t input ~start:0 ~stop:(String.length input) ~on_match)

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

(* ---------------------------------------------------------- Stats *)

let n_classes t = t.k

let capacity t = t.cap

(* O(1) reads of the hot counters, for online monitors ([stats] walks
   every resident row to price the cache). *)
let steps_total t = t.steps

let hits_total t = t.hits

let stats t =
  let word_bytes = 8 in
  let bitset_bytes =
    word_bytes * (((t.z.Mfsa.n_fsas + 61) / 62) + 3)
  in
  let bytes = ref 0 in
  for i = 0 to t.n_rows - 1 do
    if t.stamps.(i) >= 0 then begin
      let r = t.rows.(i) in
      (* next + stamps + edge_matches pointer arrays, row and config
         headers. *)
      bytes := !bytes + (word_bytes * ((3 * t.k) + 8));
      Array.iter
        (fun ms -> bytes := !bytes + (word_bytes * Array.length ms))
        r.edge_matches;
      bytes := !bytes + (word_bytes * Array.length r.cfg.c_states);
      bytes := !bytes + (bitset_bytes * Array.length r.cfg.c_sets)
    end
  done;
  {
    steps = t.steps;
    hits = t.hits;
    misses = t.misses;
    configs_interned = t.interned;
    resident_configs = t.n_rows - t.n_free;
    flushes = t.flushes;
    evictions = t.evictions_c;
    capacity = t.cap;
    grows = t.grows_c;
    shrinks = t.shrinks_c;
    demotions = t.demotions_c;
    cache_bytes = !bytes;
    skipped_bytes = t.skipped;
  }

let reset_stats t =
  t.steps <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.interned <- 0;
  t.flushes <- 0;
  t.evictions_c <- 0;
  t.grows_c <- 0;
  t.shrinks_c <- 0;
  t.demotions_c <- 0;
  t.skipped <- 0;
  t.win_steps0 <- 0;
  t.win_hits0 <- 0;
  t.win_ev0 <- 0

(* ------------------------------------------------------- Streaming *)

type session = {
  eng : t;
  mutable cur : int;
  mutable cur_cfg : config;
      (* The configuration [cur] names. Row ids do not survive a flush
         or an eviction of their slot, so the session keeps the
         (immutable) configuration itself as the durable handle and
         re-interns it when the engine has moved on; while the engine
         is demoted this is the whole handle and [cur] holds
         [bypass_live]. *)
  mutable epoch : int;
      (* Engine epoch [cur] was minted in. *)
  mutable stamp : int;
      (* Mint stamp of [cur]'s slot when the session last left the
         engine; a differing stamp means the slot was reused (or
         freed) and [cur_cfg] must be re-interned. *)
  mutable ac_state : int;
      (* Literal-scanner state carried across chunks, so candidate
         detection survives literals straddling chunk boundaries. *)
  mutable pos : int;
  mutable pending_end : int list;
      (* end-anchored FSAs matched exactly at [pos]; flushed by
         [finish], discarded whenever the stream continues *)
}

let session eng =
  {
    eng;
    cur = start_id;
    cur_cfg = empty_cfg;
    epoch = eng.epoch;
    stamp = eng.stamps.(start_id);
    ac_state =
      (match eng.prefilter with
      | Some p -> Prefilter.start_state p
      | None -> 0);
    pos = 0;
    pending_end = [];
  }

let reset s =
  s.cur <- start_id;
  s.cur_cfg <- empty_cfg;
  s.epoch <- s.eng.epoch;
  s.stamp <- s.eng.stamps.(start_id);
  s.ac_state <-
    (match s.eng.prefilter with Some p -> Prefilter.start_state p | None -> 0);
  s.pos <- 0;
  s.pending_end <- []

let position s = s.pos

(* Concurrent sessions share one cache: between this session's feeds,
   any other session (or a [run] on the same engine) may have flushed
   the table, evicted the row this session points at, or demoted the
   engine. Re-validate before touching [t.rows]: the epoch test comes
   first (after a flush [s.cur] may be out of bounds for the fresh
   stamps array), then the per-slot stamp detects in-place eviction.
   The re-intern may itself evict; the id it returns is always valid
   in the rows array it leaves behind. *)
let revalidate s =
  let t = s.eng in
  if t.bypass then begin
    if s.cur > dead_id then s.cur <- bypass_live;
    s.epoch <- t.epoch
  end
  else begin
    if s.cur = bypass_live then begin
      (* Promoted back: configurations of live sessions are nonempty
         (an empty one would have parked on [dead_id]), so this
         re-intern lands on a real row. *)
      s.cur <- intern_id t s.cur_cfg;
      s.epoch <- t.epoch
    end
    else if s.epoch <> t.epoch then begin
      if s.cur > dead_id then s.cur <- intern_id t s.cur_cfg;
      s.epoch <- t.epoch
    end
    else if s.cur > dead_id && t.stamps.(s.cur) <> s.stamp then
      s.cur <- intern_id t s.cur_cfg;
    s.stamp <- t.stamps.(s.cur)
  end

(* The one session loop, cached or demoted alike: [step] dispatches on
   the engine mode, and the session carries its configuration beside
   the id so it can cross a demotion or promotion between feeds. *)
let feed s chunk =
  let t = s.eng in
  revalidate s;
  let z = t.z in
  let len = String.length chunk in
  let class_of = t.class_of in
  let cls i =
    Char.code
      (Bytes.unsafe_get class_of (Char.code (String.unsafe_get chunk i)))
  in
  let acc = ref [] in
  (* Streaming prefilter: scan the chunk (updating the carried scanner
     state), then skip dead stretches up to the next in-chunk candidate
     — but never into the final [max_len - 1] bytes, where a literal
     straddling into the next chunk could still start; the engine keeps
     injection-at-every-byte semantics, so processing those tail bytes
     natively is all the straddle case needs. *)
  let use_pf = t.prefilter <> None in
  let cands, limit =
    match t.prefilter with
    | None -> ([||], 0)
    | Some p ->
        let c, st = Prefilter.scan_chunk p ~state:s.ac_state chunk in
        s.ac_state <- st;
        (c, len - (Prefilter.max_len p - 1))
  in
  let nc = Array.length cands in
  let ci = ref 0 in
  let base = s.pos in
  let cur = ref s.cur and cfg = ref s.cur_cfg in
  let i = ref 0 in
  while !i < len do
    if use_pf && !cur = dead_id then begin
      while !ci < nc && cands.(!ci) < !i do incr ci done;
      let stop = if !ci < nc then min cands.(!ci) limit else limit in
      if stop > !i then begin
        t.skipped <- t.skipped + (stop - !i);
        s.pending_end <- [];
        i := stop
      end
    end;
    if !i < len then begin
      (* Any continuation invalidates matches that were waiting for
         end-of-stream. *)
      s.pending_end <- [];
      cur := step t !cur !cfg (cls !i);
      if !cur = bypass_live then cfg := t.last_cfg;
      let ms = t.last_edge in
      for j = 0 to Array.length ms - 1 do
        let f = ms.(j) in
        if z.Mfsa.anchored_end.(f) then s.pending_end <- f :: s.pending_end
        else acc := { fsa = f; end_pos = base + !i + 1 } :: !acc
      done;
      incr i
    end
  done;
  s.pos <- base + len;
  s.cur <- !cur;
  s.cur_cfg <- cfg_of t !cur !cfg;
  (* A miss inside this chunk may have evicted; the id we hold was
     minted (or revalidated) afterwards, so resync the epoch and the
     slot stamp rather than re-intern. *)
  s.epoch <- t.epoch;
  if !cur >= 0 then s.stamp <- t.stamps.(!cur);
  List.rev !acc

let finish s =
  List.sort Int.compare s.pending_end
  |> List.map (fun j -> { fsa = j; end_pos = s.pos })
