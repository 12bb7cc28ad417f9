module Mfsa = Mfsa_model.Mfsa

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
  demotions : int;
  cache_bytes : int;
  skipped_bytes : int;
}

(* A configuration is iMFAnt's entire runtime state at one input
   position: the active states (ascending) with their activation sets
   J(q), interned in the kernel's flat form ({!Imfant.config_step}).
   States with empty J are not active (Equation 6 popped every FSA),
   so they never appear.

   Slot 0 is the position-0 start configuration (inits include the
   start-anchored FSAs); slot 1 is the dead configuration (empty,
   reached mid-stream). Both are empty but step differently, so they
   get distinct permanent ids, and neither is in the intern index:
   an empty successor is [dead_id] by definition. [seed] rebuilds
   both after a flush; the clock hand never visits slots below 2, so
   these two ids are the only ones stable across both flushes and
   evictions. *)
let start_id = 0

let dead_id = 1

(* Adaptive sizing band: every [resize_window] steps the engine looks
   at the window's eviction pressure. Sustained pressure — at least
   one eviction per [grow_pressure] steps, i.e. the working set keeps
   displacing itself — doubles the live capacity up to
   [max_grow_factor] times the configured base regardless of the hit
   rate (a cache flooding at 0.9 still wastes most of its time
   re-interning; only the hit rate *after* growth tells whether
   growing helped, and [demote] catches the case where it never
   does). Capacity only grows until a flush returns it to the base. *)
let resize_window = 4096

let grow_pressure = 64

let max_grow_factor = 8

(* Base capacity in rows when the caller names none. *)
let default_cache_size = 4096

(* Tables keyed by ints that need no further hashing: a configuration
   hash, or a memo entry index. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash h = h land max_int
end)

(* The memo rows are flat int arrays: slot [v] holds the configuration
   [keys.(v)] and, per byte class [c], one memo entry at
   [e = v*k + c]. [next.(e)] packs the successor id with a bit saying
   whether any FSA matches on the edge (id * 2 + bit; the match set
   itself is bound to [e] in [edge_sets]), and [next_stamp.(e)] is the
   mint stamp the successor slot carried when the entry was written.
   -1 = not computed yet. Clock eviction reuses slots in place, so an
   entry is live iff its stored stamp still equals the successor
   slot's current stamp; a reused slot allocates nothing. *)
type t = {
  im : Imfant.t;
  z : Mfsa.t;
  k : int;  (* byte-class count; rows are class-indexed *)
  class_of : bytes;
  base_cache : int;  (* configured capacity; [cap] floats around it *)
  any_end_anchor : bool;
  sp : Imfant.stepper;  (* the miss path's kernel scratch *)
  singles : int array array;
      (* [singles.(j)] = [|j|], built on first use: every edge on
         which FSA j alone matches shares it. *)
  mutable keys : int array array;
  mutable hashes : int array;  (* per slot, the hash of its key *)
  mutable next : int array;
  mutable next_stamp : int array;
  edge_sets : int array Int_tbl.t;
  mutable stamps : int array;
      (* Per-slot mint stamp; -1 marks a slot not yet used. The mint
         counter is monotone across flushes, so stamp equality
         identifies one specific minted row, ever. *)
  mutable refs : Bytes.t;  (* clock reference bits, '\001' = referenced *)
  index : int Int_tbl.t;  (* key hash -> slot, over slots >= 2 *)
  mutable n_rows : int;
  mutable hand : int;  (* clock hand, sweeps slots [2, n_rows) *)
  mutable cap : int;  (* live capacity in rows, adaptive *)
  mutable mint : int;
  mutable bypass : bool;
      (* Demoted: the memo cache is out of the loop and the engine is
         a plain iMFAnt scan. *)
  mutable epoch : int;
      (* Bumped by every flush. Row ids > dead_id minted before the
         current epoch index dropped rows; sessions compare epochs
         (then per-slot stamps) to know when to re-intern their
         configuration. *)
  (* Counters. *)
  mutable steps : int;
  mutable hits : int;
  mutable misses : int;
  mutable interned : int;
  mutable flushes : int;
  mutable evictions_c : int;
  mutable grows_c : int;
  mutable demotions_c : int;
  mutable skipped : int;  (* prefilter skips of demoted batch passes *)
  (* Resize-window marks: counter values at the window's start. *)
  mutable win_steps0 : int;
  mutable win_ev0 : int;
}

(* ---------------------------------------------------- Intern index *)

let hash buf len =
  let h = ref len in
  for i = 0 to len - 1 do
    h := (!h lxor Array.unsafe_get buf i) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let same (key : int array) (buf : int array) len =
  Array.length key = len
  &&
  let rec go i = i >= len || (key.(i) = buf.(i) && go (i + 1)) in
  go 0

(* The slot whose key is [buf.(0 .. len-1)], or -1. The index maps a
   hash to one slot and every lookup compares the key itself, so a
   hash collision only costs the colliding configuration a second
   slot, never a wrong answer. *)
let find t buf len h =
  match Int_tbl.find t.index h with
  | v -> if same t.keys.(v) buf len then v else -1
  | exception Not_found -> -1

let insert t v = Int_tbl.replace t.index t.hashes.(v) v

let remove t v =
  let h = t.hashes.(v) in
  match Int_tbl.find t.index h with
  | u -> if u = v then Int_tbl.remove t.index h
  | exception Not_found -> ()

(* ------------------------------------------------------------ Rows *)

let initial_slots = 16

(* Fresh row storage for [n] slots, all unused. *)
let alloc_rows t n =
  t.keys <- Array.make n [||];
  t.hashes <- Array.make n 0;
  t.next <- Array.make (n * t.k) (-1);
  t.next_stamp <- Array.make (n * t.k) (-1);
  t.stamps <- Array.make n (-1);
  t.refs <- Bytes.make n '\000'

(* Double the slot arrays, keeping slots [0, n_rows). *)
let grow_rows t =
  let n = Array.length t.stamps and k = t.k in
  let keep a b m = Array.blit a 0 b 0 (t.n_rows * m) in
  let keys = t.keys and hashes = t.hashes and next = t.next in
  let next_stamp = t.next_stamp and stamps = t.stamps in
  let refs = t.refs in
  alloc_rows t (2 * n);
  keep keys t.keys 1;
  keep hashes t.hashes 1;
  keep next t.next k;
  keep next_stamp t.next_stamp k;
  keep stamps t.stamps 1;
  Bytes.blit refs 0 t.refs 0 t.n_rows

(* Put configuration [key] in slot [v] with a fresh mint stamp and an
   empty memo row; register it unless it is a built-in. *)
let install t v key h =
  t.keys.(v) <- key;
  t.hashes.(v) <- h;
  Array.fill t.next (v * t.k) t.k (-1);
  t.mint <- t.mint + 1;
  t.stamps.(v) <- t.mint;
  Bytes.set t.refs v '\001';
  if v > dead_id then insert t v

let add_slot t =
  if t.n_rows = Array.length t.stamps then grow_rows t;
  let v = t.n_rows in
  t.n_rows <- v + 1;
  v

let seed t =
  alloc_rows t initial_slots;
  Int_tbl.reset t.index;
  Int_tbl.reset t.edge_sets;
  t.n_rows <- 0;
  t.hand <- 2;
  install t (add_slot t) [||] 0 (* start_id *);
  install t (add_slot t) [||] 0 (* dead_id *)

let of_imfant ?(cache_size = default_cache_size) im =
  if cache_size < 1 then invalid_arg "Hybrid.of_imfant: cache_size < 1";
  let z = Imfant.mfsa im in
  let t =
    {
      im;
      z;
      k = Imfant.n_classes im;
      class_of = Imfant.class_of im;
      base_cache = cache_size;
      any_end_anchor = Array.exists Fun.id z.Mfsa.anchored_end;
      sp = Imfant.stepper im;
      singles = Array.make z.Mfsa.n_fsas [||];
      keys = [||];
      hashes = [||];
      next = [||];
      next_stamp = [||];
      edge_sets = Int_tbl.create 64;
      stamps = [||];
      refs = Bytes.empty;
      index = Int_tbl.create 64;
      n_rows = 0;
      hand = 2;
      cap = cache_size;
      mint = 0;
      bypass = false;
      epoch = 0;
      steps = 0;
      hits = 0;
      misses = 0;
      interned = 0;
      flushes = 0;
      evictions_c = 0;
      grows_c = 0;
      demotions_c = 0;
      skipped = 0;
      win_steps0 = 0;
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
  seed t;
  t.cap <- t.base_cache;
  t.epoch <- t.epoch + 1;
  t.flushes <- t.flushes + 1

(* ------------------------------------------------- Clock eviction *)

(* Second chance over slots [2, n_rows): a swept row loses its
   reference bit, a row found without one is the victim. After two
   full cycles of clearing, the next row is picked unconditionally —
   the sweep is bounded even when every row is hot. *)
let clock_pick t =
  let rec sweep budget =
    if t.hand < 2 || t.hand >= t.n_rows then t.hand <- 2;
    let v = t.hand in
    t.hand <- t.hand + 1;
    if budget <= 0 || Bytes.get t.refs v = '\000' then v
    else begin
      Bytes.set t.refs v '\000';
      sweep (budget - 1)
    end
  in
  sweep (2 * (t.n_rows - 2))

(* Close a resize window if one has elapsed. Only called on the miss
   path — a workload that never misses never needs more capacity.
   Growth keys on eviction pressure alone: a working set marginally
   over capacity floods the clock at a deceptively high hit rate
   (every pass re-interns the same overflow), so waiting for the rate
   to drop would leave the cache stuck churning. *)
let maybe_resize t =
  let w = t.steps - t.win_steps0 in
  if w >= resize_window then begin
    let evs = t.evictions_c - t.win_ev0 in
    let max_cap = max_grow_factor * t.base_cache in
    if evs * grow_pressure >= w && t.cap < max_cap then begin
      t.cap <- min max_cap (2 * t.cap);
      t.grows_c <- t.grows_c + 1
    end;
    t.win_steps0 <- t.steps;
    t.win_ev0 <- t.evictions_c
  end

(* Find-or-create the row for the configuration [buf.(0 .. len-1)],
   hashed and compared in place; only a new configuration is copied
   into a key ([copy]), or adopted as one when [buf] already is an
   immutable key of exactly [len] words. A full cache evicts exactly
   one victim and reuses its slot in place — every other row, and
   every session, survives. The returned id is always valid in the
   rows the call leaves behind. *)
let intern t buf len ~copy =
  if len = 0 then dead_id
  else
    let h = hash buf len in
    let v = find t buf len h in
    if v >= 0 then begin
      Bytes.set t.refs v '\001';
      v
    end
    else begin
      t.interned <- t.interned + 1;
      maybe_resize t;
      (* The capacity bounds the dynamic rows, not the built-ins. *)
      let v =
        if t.n_rows - 2 < t.cap then add_slot t
        else begin
          let v = clock_pick t in
          remove t v;
          t.evictions_c <- t.evictions_c + 1;
          v
        end
      in
      install t v (if copy then Array.sub buf 0 len else buf) h;
      v
    end

(* The FSAs matching on the edge the stepper just computed. *)
let edge_set t (sp : Imfant.stepper) =
  match sp.n_matched with
  | 0 -> [||]
  | 1 ->
      let j = sp.matched.(0) in
      if Array.length t.singles.(j) = 0 then t.singles.(j) <- [| j |];
      t.singles.(j)
  | n -> Array.sub sp.matched 0 n

(* The cache miss: one call into iMFAnt's step kernel from the row's
   configuration, then intern the successor and memoise the edge —
   unless clock eviction picked the very row we stepped from as the
   victim (its stamp moved). The edge's matches go to [emit] at end
   offset [pos]; returns the successor row. *)
let miss t cur c ~emit pos =
  t.misses <- t.misses + 1;
  let sp = t.sp in
  Imfant.config_step t.im sp t.keys.(cur) c ~at_start:(cur = start_id);
  let ms = edge_set t sp in
  let stamp = t.stamps.(cur) in
  let id = intern t sp.next sp.next_len ~copy:true in
  if t.stamps.(cur) = stamp then begin
    let e = (cur * t.k) + c in
    t.next.(e) <- (id lsl 1) lor Bool.to_int (Array.length ms > 0);
    t.next_stamp.(e) <- t.stamps.(id);
    if Array.length ms > 0 then Int_tbl.replace t.edge_sets e ms
  end;
  if Array.length ms > 0 then emit ms pos;
  id

(* The one hot loop, shared by batch scans and sessions: consume
   input.[start..stop-1] from row [cur]; return the row reached. The
   inner loop runs plain hits: a memo load and a stamp compare per
   byte, all in locals, no call. A matching hit (its set goes to
   [emit]) or a miss is stepped outside it, with the counters written
   back first ([maybe_resize] reads [t.steps]) and the rows reloaded
   after ([grow_rows] reallocates them). *)
let walk t input ~start ~stop cur ~emit =
  let k = t.k and class_of = t.class_of in
  let cls i =
    Char.code
      (Bytes.unsafe_get class_of (Char.code (String.unsafe_get input i)))
  in
  let cur = ref cur and i = ref start in
  while !i < stop do
    let next = t.next and next_stamp = t.next_stamp in
    let stamps = t.stamps and refs = t.refs in
    let i0 = !i and lim = ref stop in
    while !i < !lim do
      let e = (!cur * k) + cls !i in
      let x = Array.unsafe_get next e in
      (* An even entry is a memoised edge without matches (-1 is odd). *)
      if
        x land 1 = 0
        && Array.unsafe_get next_stamp e = Array.unsafe_get stamps (x asr 1)
      then begin
        Bytes.unsafe_set refs (x asr 1) '\001';
        cur := x asr 1;
        incr i
      end
      else lim := !i
    done;
    t.hits <- t.hits + (!i - i0);
    t.steps <- t.steps + (!i - i0);
    if !i < stop then begin
      t.steps <- t.steps + 1;
      let c = cls !i in
      let e = (!cur * k) + c in
      let x = next.(e) in
      incr i;
      if x >= 0 && next_stamp.(e) = stamps.(x asr 1) then begin
        t.hits <- t.hits + 1;
        Bytes.set refs (x asr 1) '\001';
        cur := x asr 1;
        emit (Int_tbl.find t.edge_sets e) !i
      end
      else cur := miss t !cur c ~emit !i
    end
  done;
  !cur

(* ------------------------------------------------------- Demotion *)

(* Demotion is the planner's escape hatch for sustained churn: stop
   paying for a cache that cannot hold the working set and run plain
   iMFAnt. Streaming sessions convert their configuration to and from
   a kernel scan between feeds, so they cross both transitions without
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

(* Demoted work has no cache to hit: every byte stepped is a miss. *)
let count_demoted t n =
  t.steps <- t.steps + n;
  t.misses <- t.misses + n

(* ------------------------------------------------------ Execution *)

(* The one batch scan, over input.[start..stop-1]: [run]/[count]/
   [count_per_fsa] scan the whole input, and the SFA decomposition
   (lib/engine/sfa) scans one chunk at a time. A scan starts from the
   position-0 configuration when it owns global position 0 and from
   the dead configuration otherwise — exactly the thread set the
   sequential run would build from injections inside the window.
   Every byte is one memo step: a dead byte costs one lookup, the same
   as a literal scan would. Returns the carry-out configuration after
   the last byte: the row's immutable key, so nothing is built. Demoted,
   this is iMFAnt's own (prefiltered) pass. *)
let run_chunk t input ~start ~stop ~on_match =
  if t.bypass then begin
    let carry, skipped = Imfant.run_chunk t.im input ~start ~stop ~on_match in
    count_demoted t (stop - start - skipped);
    t.skipped <- t.skipped + skipped;
    carry
  end
  else begin
    let z = t.z in
    let len = String.length input in
    let emit ms pos =
      if not t.any_end_anchor then
        for j = 0 to Array.length ms - 1 do
          on_match ms.(j) pos
        done
      else
        for j = 0 to Array.length ms - 1 do
          let f = ms.(j) in
          if (not z.Mfsa.anchored_end.(f)) || pos = len then on_match f pos
        done
    in
    let cur = if start = 0 then start_id else dead_id in
    t.keys.(walk t input ~start ~stop cur ~emit)
  end

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
  let bytes = ref 0 in
  for v = 0 to t.n_rows - 1 do
    (* next + next_stamp, key, hash, stamp and index. *)
    bytes := !bytes + (word_bytes * ((2 * t.k) + 5 + Array.length t.keys.(v)))
  done;
  Int_tbl.iter
    (fun _ ms -> bytes := !bytes + (word_bytes * (4 + Array.length ms)))
    t.edge_sets;
  {
    steps = t.steps;
    hits = t.hits;
    misses = t.misses;
    configs_interned = t.interned;
    resident_configs = t.n_rows;
    flushes = t.flushes;
    evictions = t.evictions_c;
    capacity = t.cap;
    grows = t.grows_c;
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
  t.demotions_c <- 0;
  t.skipped <- 0;
  t.win_steps0 <- 0;
  t.win_ev0 <- 0

(* ------------------------------------------------------- Streaming *)

type session = {
  eng : t;
  mutable cur : int;
  mutable key : int array;
      (* The configuration [cur] names. Row ids do not survive a flush
         or an eviction of their slot, so the session keeps the
         (immutable) key itself as the durable handle and re-interns
         it when the engine has moved on. *)
  mutable epoch : int;
      (* Engine epoch [cur] was minted in. *)
  mutable stamp : int;
      (* Mint stamp of [cur]'s slot when the session last left the
         engine; a differing stamp means the slot was reused and
         [key] must be re-interned. *)
  mutable pos : int;
  mutable pending_end : int list;
      (* end-anchored FSAs matched exactly at [pos], descending;
         flushed by [finish], discarded whenever the stream continues *)
  mutable scan : Imfant.session option;
      (* The kernel scan this session steps while the engine is
         demoted; while it is [Some], it holds the configuration,
         position and pending matches, and the fields above are
         stale. *)
}

let session eng =
  {
    eng;
    cur = start_id;
    key = [||];
    epoch = eng.epoch;
    stamp = eng.stamps.(start_id);
    pos = 0;
    pending_end = [];
    scan = None;
  }

let reset s =
  s.cur <- start_id;
  s.key <- [||];
  s.epoch <- s.eng.epoch;
  s.stamp <- s.eng.stamps.(start_id);
  s.pos <- 0;
  s.pending_end <- [];
  s.scan <- None

let position s =
  match s.scan with Some sc -> Imfant.position sc | None -> s.pos

(* Back from a demoted stretch: the scan's configuration becomes the
   session's key again. Only position 0 names the start row. *)
let leave_scan s sc =
  let t = s.eng in
  s.scan <- None;
  s.key <- Imfant.config_of_session sc;
  s.pos <- Imfant.position sc;
  s.pending_end <- Imfant.pending_end sc;
  s.cur <-
    (if s.pos = 0 then start_id
     else intern t s.key (Array.length s.key) ~copy:false);
  s.epoch <- t.epoch;
  s.stamp <- t.stamps.(s.cur)

(* Concurrent sessions share one cache: between this session's feeds,
   any other session (or a [run] on the same engine) may have flushed
   the table, evicted the row this session points at, or demoted the
   engine. Re-validate before touching the rows: the epoch test comes
   first (after a flush [s.cur] may be out of bounds for the fresh
   stamps array), then the per-slot stamp detects in-place eviction.
   The re-intern may itself evict; the id it returns is always valid
   in the rows it leaves behind. *)
let revalidate s =
  let t = s.eng in
  let stale =
    s.epoch <> t.epoch || (s.cur > dead_id && t.stamps.(s.cur) <> s.stamp)
  in
  if stale && s.cur > dead_id then
    s.cur <- intern t s.key (Array.length s.key) ~copy:false;
  s.epoch <- t.epoch;
  s.stamp <- t.stamps.(s.cur)

let feed_cached s chunk =
  let t = s.eng in
  revalidate s;
  let anchored = t.z.Mfsa.anchored_end in
  let len = String.length chunk in
  let base = s.pos in
  let acc = ref [] and pending = ref [] in
  let emit ms i =
    for j = 0 to Array.length ms - 1 do
      let f = ms.(j) in
      if not anchored.(f) then acc := { fsa = f; end_pos = base + i } :: !acc
      else if i = len then pending := f :: !pending
    done
  in
  let cur = walk t chunk ~start:0 ~stop:len s.cur ~emit in
  (* Any continuation invalidates matches that were waiting for
     end-of-stream: only the last byte's end-anchored matches wait. *)
  if len > 0 then s.pending_end <- !pending;
  s.pos <- base + len;
  s.cur <- cur;
  s.key <- t.keys.(cur);
  (* A miss inside this chunk may have evicted; the id we hold was
     minted (or revalidated) afterwards, so resync the epoch and the
     slot stamp rather than re-intern. *)
  s.epoch <- t.epoch;
  s.stamp <- t.stamps.(cur);
  List.rev !acc

(* A session follows its engine's mode, converting between feeds: a
   demoted engine hands the chunk to the session's own kernel scan, a
   cached one walks the memo rows. *)
let feed s chunk =
  let t = s.eng in
  (match s.scan with
  | Some sc when not t.bypass -> leave_scan s sc
  | None when t.bypass ->
      s.scan <-
        Some
          (Imfant.session_of_config t.im s.key ~pos:s.pos
             ~pending_end:s.pending_end)
  | _ -> ());
  match s.scan with
  | Some sc ->
      count_demoted t (String.length chunk);
      Imfant.feed sc chunk
  | None -> feed_cached s chunk

let finish s =
  match s.scan with
  | Some sc -> Imfant.finish sc
  | None -> List.rev_map (fun j -> { fsa = j; end_pos = s.pos }) s.pending_end
