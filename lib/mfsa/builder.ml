module Nfa = Mfsa_automata.Nfa

let log_src =
  Logs.Src.create "mfsa.builder" ~doc:"Evolving MFSA builder (Algorithm 1)"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Charclass = Mfsa_charset.Charclass
module Bitset = Mfsa_util.Bitset
module Vec = Mfsa_util.Vec

type stats = {
  seeds : int;
  chains : int;
  merged_transitions : int;
  merged_states : int;
}

(* The evolving MFSA z of Algorithm 1, with the indexes the search
   needs: [by_label] finds seed candidates in O(1) per label, [out]
   drives the chain-extension loop, and [by_triple] detects that a
   relabelled incoming transition coincides with an existing one.
   Per-slot metadata ([init_of], [finals_of], anchors, patterns) is
   indexed by merged-FSA slot; [init_of] holds -1 for retired slots. *)
type t = {
  mutable cap : int;  (* belonging-bitset capacity, >= n_slots *)
  mutable n_states : int;
  mutable row : int Vec.t;
  mutable col : int Vec.t;
  mutable idx : Charclass.t Vec.t;
  mutable bel : Bitset.t Vec.t;
  by_label : (Charclass.t, int list ref) Hashtbl.t;
  out : (int, int list ref) Hashtbl.t;
  by_triple : (int * Charclass.t * int, int) Hashtbl.t;
  mutable init_of : int Vec.t;
  mutable finals_of : int list Vec.t;
  mutable anch_s : bool Vec.t;
  mutable anch_e : bool Vec.t;
  mutable pats : string Vec.t;
  mutable live : int;
  mutable dead : int;  (* transitions whose belonging set is empty *)
  mutable seeds : int;
  mutable chains : int;
  mutable merged_transitions : int;
  mutable merged_states : int;
}

let create () =
  {
    cap = 1;
    n_states = 0;
    row = Vec.create ();
    col = Vec.create ();
    idx = Vec.create ();
    bel = Vec.create ();
    by_label = Hashtbl.create 256;
    out = Hashtbl.create 256;
    by_triple = Hashtbl.create 256;
    init_of = Vec.create ();
    finals_of = Vec.create ();
    anch_s = Vec.create ();
    anch_e = Vec.create ();
    pats = Vec.create ();
    live = 0;
    dead = 0;
    seeds = 0;
    chains = 0;
    merged_transitions = 0;
    merged_states = 0;
  }

let n_slots b = Vec.length b.init_of
let n_live b = b.live

let is_live b slot =
  slot >= 0 && slot < n_slots b && Vec.get b.init_of slot >= 0

let n_states b = b.n_states
let n_transitions b = Vec.length b.row
let dead_transitions b = b.dead

let garbage_ratio b =
  let nt = n_transitions b in
  if nt = 0 then 0. else float_of_int b.dead /. float_of_int nt

let stats b =
  {
    seeds = b.seeds;
    chains = b.chains;
    merged_transitions = b.merged_transitions;
    merged_states = b.merged_states;
  }

let multi_add table key v =
  match Hashtbl.find_opt table key with
  | Some cell -> cell := v :: !cell
  | None -> Hashtbl.add table key (ref [ v ])

let multi_find table key =
  match Hashtbl.find_opt table key with Some cell -> !cell | None -> []

(* Geometric capacity growth keeps per-add belonging-vector work
   amortised O(1): resizing every bitset is O(T) but happens only when
   the slot count doubles. *)
let ensure_cap b n =
  if n > b.cap then begin
    let cap = ref b.cap in
    while !cap < n do
      cap := !cap * 2
    done;
    b.cap <- !cap;
    Vec.iteri (fun i s -> Vec.set b.bel i (Bitset.resize s !cap)) b.bel
  end

let push_transition b ~src ~cls ~dst ~slot =
  let t = Vec.length b.row in
  Vec.push b.row src;
  Vec.push b.col dst;
  Vec.push b.idx cls;
  let belongs = Bitset.create b.cap in
  Bitset.add belongs slot;
  Vec.push b.bel belongs;
  multi_add b.by_label cls t;
  multi_add b.out src t;
  Hashtbl.add b.by_triple (src, cls, dst) t;
  t

let fresh_state b =
  let q = b.n_states in
  b.n_states <- q + 1;
  q

let class_of_label = function
  | Nfa.Eps -> invalid_arg "Merge: automata must be ε-free"
  | Nfa.Cls c -> c

(* Merge one incoming FSA [a] into the builder under slot [slot].
   Implements the body of Algorithm 1's outer loop: search for common
   sub-paths (lines 5-19), relabel (line 20), generateNew (line 21). *)
let merge_into b (a : Nfa.t) ~slot =
  let a_out = Nfa.out a in
  let nt_a = Array.length a.Nfa.transitions in
  (* The relabeling under construction. [amap]: a-state → z-state;
     [zmap]: z-state → a-state. Keeping both directions single-valued
     is what preserves each FSA's morphology inside the MFSA. *)
  let amap = Hashtbl.create 64 in
  let zmap = Hashtbl.create 64 in
  let matched_a = Array.make (max nt_a 1) false in
  (* Transition pair (tz : p →[C] q, ta : u →[C] v) is admissible iff
     relabeling u↦p and v↦q is consistent with the mapping so far. *)
  let pair_consistent tz ta =
    let p = Vec.get b.row tz and q = Vec.get b.col tz in
    let tr = a.Nfa.transitions.(ta) in
    let u = tr.Nfa.src and v = tr.Nfa.dst in
    let state_ok u p =
      match Hashtbl.find_opt amap u with
      | Some p' -> p' = p
      | None -> not (Hashtbl.mem zmap p)
    in
    (* Self-loop alignment: if u = v the images must coincide too. *)
    state_ok u p && state_ok v q && (u <> v || p = q) && (p <> q || u = v)
  in
  let commit tz ta =
    let p = Vec.get b.row tz and q = Vec.get b.col tz in
    let tr = a.Nfa.transitions.(ta) in
    let bind u p =
      if not (Hashtbl.mem amap u) then begin
        Hashtbl.add amap u p;
        Hashtbl.add zmap p u;
        b.merged_states <- b.merged_states + 1
      end
    in
    bind tr.Nfa.src p;
    bind tr.Nfa.dst q;
    matched_a.(ta) <- true
  in
  (* Chain extension (Algorithm 1 lines 11-16): from a committed pair,
     keep walking matching successor transitions. *)
  let rec extend tz ta =
    let q_z = Vec.get b.col tz in
    let v_a = a.Nfa.transitions.(ta).Nfa.dst in
    let next =
      List.find_map
        (fun ta' ->
          if matched_a.(ta') then None
          else
            let cls_a = class_of_label a.Nfa.transitions.(ta').Nfa.label in
            List.find_map
              (fun tz' ->
                if
                  Charclass.equal (Vec.get b.idx tz') cls_a
                  && pair_consistent tz' ta'
                then Some (tz', ta')
                else None)
              (multi_find b.out q_z))
        (Array.to_list a_out.(v_a))
    in
    match next with
    | Some (tz', ta') ->
        commit tz' ta';
        extend tz' ta'
    | None -> ()
  in
  (* Seed search (Algorithm 1 lines 6-10): first admissible label-equal
     pair for each yet-unmatched incoming transition starts a chain. *)
  for ta = 0 to nt_a - 1 do
    if not matched_a.(ta) then begin
      let cls = class_of_label a.Nfa.transitions.(ta).Nfa.label in
      match
        List.find_opt
          (fun tz -> pair_consistent tz ta)
          (List.rev (multi_find b.by_label cls))
      with
      | Some tz ->
          b.seeds <- b.seeds + 1;
          b.chains <- b.chains + 1;
          commit tz ta;
          extend tz ta
      | None -> ()
    end
  done;
  (* Relabel: merged states keep their z image, the rest get fresh
     labels disjoint from the current MFSA states. *)
  let label_of u =
    match Hashtbl.find_opt amap u with
    | Some p -> p
    | None ->
        let p = fresh_state b in
        Hashtbl.add amap u p;
        Hashtbl.add zmap p u;
        p
  in
  (* generateNew: update belonging of coinciding transitions, append
     the others. Landing on a dead transition resurrects it. *)
  Array.iter
    (fun tr ->
      let cls = class_of_label tr.Nfa.label in
      let src = label_of tr.Nfa.src and dst = label_of tr.Nfa.dst in
      match Hashtbl.find_opt b.by_triple (src, cls, dst) with
      | Some t ->
          let belongs = Vec.get b.bel t in
          if Bitset.is_empty belongs then b.dead <- b.dead - 1;
          Bitset.add belongs slot;
          b.merged_transitions <- b.merged_transitions + 1
      | None -> ignore (push_transition b ~src ~cls ~dst ~slot))
    a.Nfa.transitions;
  Vec.set b.init_of slot (label_of a.Nfa.start);
  Vec.set b.finals_of slot (List.map label_of (Nfa.final_states a))

let add b (a : Nfa.t) =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Mfsa builder: automata must be ε-free";
  let slot = n_slots b in
  ensure_cap b (slot + 1);
  Vec.push b.init_of (-1);
  Vec.push b.finals_of [];
  Vec.push b.anch_s a.Nfa.anchored_start;
  Vec.push b.anch_e a.Nfa.anchored_end;
  Vec.push b.pats a.Nfa.pattern;
  b.live <- b.live + 1;
  merge_into b a ~slot;
  slot

let retire b slot =
  if not (is_live b slot) then
    invalid_arg
      (Printf.sprintf "Mfsa builder: slot %d is not live (of %d)" slot
         (n_slots b));
  Vec.iter
    (fun belongs ->
      if Bitset.mem belongs slot then begin
        Bitset.remove belongs slot;
        if Bitset.is_empty belongs then b.dead <- b.dead + 1
      end)
    b.bel;
  Vec.set b.init_of slot (-1);
  Vec.set b.finals_of slot [];
  b.live <- b.live - 1;
  Log.debug (fun m ->
      m "retired slot %d: %d/%d transitions now dead" slot b.dead
        (n_transitions b))

let pow2_above n =
  let cap = ref 1 in
  while !cap < n do
    cap := !cap * 2
  done;
  !cap

let compact b =
  let slots = n_slots b in
  (* Renumber the live slots compactly, in slot order. *)
  let slot_map = Array.make slots (-1) in
  let next = ref 0 in
  for s = 0 to slots - 1 do
    if Vec.get b.init_of s >= 0 then begin
      slot_map.(s) <- !next;
      incr next
    end
  done;
  let cap = pow2_above (max 1 !next) in
  (* States: keep what live structure touches, in increasing order
     (live transitions plus initial/final states of live slots —
     finals included defensively for degenerate automata). *)
  let used = Array.make (max 1 b.n_states) false in
  Vec.iteri
    (fun t belongs ->
      if not (Bitset.is_empty belongs) then begin
        used.(Vec.get b.row t) <- true;
        used.(Vec.get b.col t) <- true
      end)
    b.bel;
  Vec.iter (fun q -> if q >= 0 then used.(q) <- true) b.init_of;
  Vec.iter (List.iter (fun q -> used.(q) <- true)) b.finals_of;
  let state_map = Array.make (max 1 b.n_states) (-1) in
  let n_states = ref 0 in
  Array.iteri
    (fun q u ->
      if u then begin
        state_map.(q) <- !n_states;
        incr n_states
      end)
    used;
  (* Rebuild the COO vectors and the merge indexes from the survivors. *)
  let row = Vec.create ()
  and col = Vec.create ()
  and idx = Vec.create ()
  and bel = Vec.create () in
  Hashtbl.reset b.by_label;
  Hashtbl.reset b.out;
  Hashtbl.reset b.by_triple;
  Vec.iteri
    (fun t belongs ->
      if not (Bitset.is_empty belongs) then begin
        let src = state_map.(Vec.get b.row t)
        and dst = state_map.(Vec.get b.col t)
        and cls = Vec.get b.idx t in
        let remapped = Bitset.create cap in
        Bitset.iter (fun s -> Bitset.add remapped slot_map.(s)) belongs;
        let t' = Vec.length row in
        Vec.push row src;
        Vec.push col dst;
        Vec.push idx cls;
        Vec.push bel remapped;
        multi_add b.by_label cls t';
        multi_add b.out src t';
        Hashtbl.add b.by_triple (src, cls, dst) t'
      end)
    b.bel;
  let init_of = Vec.create ()
  and finals_of = Vec.create ()
  and anch_s = Vec.create ()
  and anch_e = Vec.create ()
  and pats = Vec.create () in
  for s = 0 to slots - 1 do
    if slot_map.(s) >= 0 then begin
      Vec.push init_of state_map.(Vec.get b.init_of s);
      Vec.push finals_of (List.map (fun q -> state_map.(q)) (Vec.get b.finals_of s));
      Vec.push anch_s (Vec.get b.anch_s s);
      Vec.push anch_e (Vec.get b.anch_e s);
      Vec.push pats (Vec.get b.pats s)
    end
  done;
  Log.debug (fun m ->
      m "compacted: %d→%d slots, %d→%d states, %d→%d transitions" slots !next
        b.n_states !n_states (n_transitions b) (Vec.length row));
  b.cap <- cap;
  b.n_states <- !n_states;
  b.row <- row;
  b.col <- col;
  b.idx <- idx;
  b.bel <- bel;
  b.init_of <- init_of;
  b.finals_of <- finals_of;
  b.anch_s <- anch_s;
  b.anch_e <- anch_e;
  b.pats <- pats;
  b.dead <- 0;
  slot_map

let freeze b =
  if b.live = 0 then None
  else begin
    let slots = n_slots b in
    let slot_map = Array.make slots (-1) in
    let slot_of_id = Array.make b.live 0 in
    let next = ref 0 in
    for s = 0 to slots - 1 do
      if Vec.get b.init_of s >= 0 then begin
        slot_map.(s) <- !next;
        slot_of_id.(!next) <- s;
        incr next
      end
    done;
    let n_fsas = b.live in
    let row = Vec.create ()
    and col = Vec.create ()
    and idx = Vec.create ()
    and bel = Vec.create () in
    Vec.iteri
      (fun t belongs ->
        if not (Bitset.is_empty belongs) then begin
          Vec.push row (Vec.get b.row t);
          Vec.push col (Vec.get b.col t);
          Vec.push idx (Vec.get b.idx t);
          let remapped = Bitset.create n_fsas in
          Bitset.iter (fun s -> Bitset.add remapped slot_map.(s)) belongs;
          Vec.push bel remapped
        end)
      b.bel;
    let n_states = max 1 b.n_states in
    let init_of = Array.map (fun s -> Vec.get b.init_of s) slot_of_id in
    let final_sets = Array.init n_states (fun _ -> Bitset.create n_fsas) in
    Array.iteri
      (fun j s ->
        List.iter (fun q -> Bitset.add final_sets.(q) j) (Vec.get b.finals_of s))
      slot_of_id;
    let z =
      Mfsa.of_arrays ~n_states ~n_fsas ~row:(Vec.to_array row)
        ~col:(Vec.to_array col) ~idx:(Vec.to_array idx) ~bel:(Vec.to_array bel)
        ~init_of ~final_sets
        ~anchored_start:(Array.map (fun s -> Vec.get b.anch_s s) slot_of_id)
        ~anchored_end:(Array.map (fun s -> Vec.get b.anch_e s) slot_of_id)
        ~patterns:(Array.map (fun s -> Vec.get b.pats s) slot_of_id)
    in
    Some (z, slot_of_id)
  end

let of_mfsa (z : Mfsa.t) =
  let b = create () in
  ensure_cap b (max 1 z.Mfsa.n_fsas);
  b.n_states <- z.Mfsa.n_states;
  Array.iteri
    (fun t src ->
      let dst = z.Mfsa.col.(t) and cls = z.Mfsa.idx.(t) in
      Vec.push b.row src;
      Vec.push b.col dst;
      Vec.push b.idx cls;
      Vec.push b.bel (Bitset.resize z.Mfsa.bel.(t) b.cap);
      multi_add b.by_label cls t;
      multi_add b.out src t;
      Hashtbl.add b.by_triple (src, cls, dst) t)
    z.Mfsa.row;
  for j = 0 to z.Mfsa.n_fsas - 1 do
    Vec.push b.init_of z.Mfsa.init_of.(j);
    Vec.push b.finals_of [];
    Vec.push b.anch_s z.Mfsa.anchored_start.(j);
    Vec.push b.anch_e z.Mfsa.anchored_end.(j);
    Vec.push b.pats z.Mfsa.patterns.(j)
  done;
  Array.iteri
    (fun q fs ->
      Bitset.iter (fun j -> Vec.set b.finals_of j (q :: Vec.get b.finals_of j)) fs)
    z.Mfsa.final_sets;
  (* final-state lists in increasing state order, as merge produces *)
  for j = 0 to z.Mfsa.n_fsas - 1 do
    Vec.set b.finals_of j (List.rev (Vec.get b.finals_of j))
  done;
  b.live <- z.Mfsa.n_fsas;
  b
