module Nfa = Mfsa_automata.Nfa
module Charclass = Mfsa_charset.Charclass
module Bitset = Mfsa_util.Bitset

type classes = {
  class_of_byte : bytes;
  n_classes : int;
  class_repr : int array;
}

type t = {
  n_states : int;
  n_fsas : int;
  row : int array;
  col : int array;
  idx : Charclass.t array;
  bel : Bitset.t array;
  init_of : int array;
  init_sets : Bitset.t array;
  final_sets : Bitset.t array;
  anchored_start : bool array;
  anchored_end : bool array;
  patterns : string array;
  classes_memo : classes option Atomic.t;
}

let n_transitions z = Array.length z.row

let create ~n_states ~n_fsas ~transitions ~inits ~finals ?anchored_start
    ?anchored_end ~patterns () =
  if n_states <= 0 then invalid_arg "Mfsa.create: need at least one state";
  if n_fsas <= 0 then invalid_arg "Mfsa.create: need at least one FSA";
  if Array.length patterns <> n_fsas then
    invalid_arg "Mfsa.create: patterns length must equal n_fsas";
  let check_state what q =
    if q < 0 || q >= n_states then
      invalid_arg
        (Printf.sprintf "Mfsa.create: %s state %d out of range [0,%d)" what q
           n_states)
  in
  let check_fsa j =
    if j < 0 || j >= n_fsas then
      invalid_arg
        (Printf.sprintf "Mfsa.create: FSA id %d out of range [0,%d)" j n_fsas)
  in
  let nt = List.length transitions in
  let row = Array.make (max nt 1) 0 in
  let col = Array.make (max nt 1) 0 in
  let idx = Array.make (max nt 1) Charclass.empty in
  let bel = Array.make (max nt 1) (Bitset.create n_fsas) in
  List.iteri
    (fun i (src, cls, dst, belongs) ->
      check_state "source" src;
      check_state "destination" dst;
      if Charclass.is_empty cls then
        invalid_arg "Mfsa.create: empty character class";
      if belongs = [] then invalid_arg "Mfsa.create: empty belonging set";
      List.iter check_fsa belongs;
      row.(i) <- src;
      col.(i) <- dst;
      idx.(i) <- cls;
      bel.(i) <- Bitset.of_list n_fsas belongs)
    transitions;
  let row = Array.sub row 0 nt
  and col = Array.sub col 0 nt
  and idx = Array.sub idx 0 nt
  and bel = Array.sub bel 0 nt in
  let init_of = Array.make n_fsas (-1) in
  List.iter
    (fun (j, q) ->
      check_fsa j;
      check_state "initial" q;
      if init_of.(j) >= 0 then
        invalid_arg
          (Printf.sprintf "Mfsa.create: FSA %d has two initial states" j);
      init_of.(j) <- q)
    inits;
  Array.iteri
    (fun j q ->
      if q < 0 then
        invalid_arg (Printf.sprintf "Mfsa.create: FSA %d has no initial state" j))
    init_of;
  let init_sets = Array.init n_states (fun _ -> Bitset.create n_fsas) in
  Array.iteri (fun j q -> Bitset.add init_sets.(q) j) init_of;
  let final_sets = Array.init n_states (fun _ -> Bitset.create n_fsas) in
  List.iter
    (fun (j, q) ->
      check_fsa j;
      check_state "final" q;
      Bitset.add final_sets.(q) j)
    finals;
  let anchored_start =
    match anchored_start with
    | Some a when Array.length a = n_fsas -> a
    | Some _ -> invalid_arg "Mfsa.create: anchored_start length mismatch"
    | None -> Array.make n_fsas false
  in
  let anchored_end =
    match anchored_end with
    | Some a when Array.length a = n_fsas -> a
    | Some _ -> invalid_arg "Mfsa.create: anchored_end length mismatch"
    | None -> Array.make n_fsas false
  in
  {
    n_states;
    n_fsas;
    row;
    col;
    idx;
    bel;
    init_of;
    init_sets;
    final_sets;
    anchored_start;
    anchored_end;
    patterns;
    classes_memo = Atomic.make None;
  }

let repr_of class_of n_classes =
  let repr = Array.make n_classes (-1) in
  for c = 255 downto 0 do
    repr.(Char.code (Bytes.get class_of c)) <- c
  done;
  repr

let compute_classes z =
  let class_of, n = Charclass.partition (Array.to_list z.idx) in
  { class_of_byte = class_of; n_classes = n; class_repr = repr_of class_of n }

let classes z =
  match Atomic.get z.classes_memo with
  | Some c -> c
  | None ->
      let c = compute_classes z in
      (* Racing computations are idempotent: whichever CAS wins, every
         caller sees an equivalent partition. *)
      if Atomic.compare_and_set z.classes_memo None (Some c) then c
      else (match Atomic.get z.classes_memo with Some c -> c | None -> c)

let of_fsa (a : Nfa.t) =
  if not (Nfa.is_eps_free a) then
    invalid_arg "Mfsa.of_fsa: automaton must be ε-free";
  let transitions =
    Array.to_list a.Nfa.transitions
    |> List.map (fun { Nfa.src; label; dst } ->
           match label with
           | Nfa.Eps -> assert false
           | Nfa.Cls c -> (src, c, dst, [ 0 ]))
  in
  let finals = List.map (fun q -> (0, q)) (Nfa.final_states a) in
  create ~n_states:a.Nfa.n_states ~n_fsas:1 ~transitions
    ~inits:[ (0, a.Nfa.start) ] ~finals
    ~anchored_start:[| a.Nfa.anchored_start |]
    ~anchored_end:[| a.Nfa.anchored_end |]
    ~patterns:[| a.Nfa.pattern |] ()

let project z j =
  if j < 0 || j >= z.n_fsas then invalid_arg "Mfsa.project: FSA id out of range";
  (* Collect the states touched by FSA j's transitions (plus its
     initial state) and renumber them compactly, initial state first. *)
  let renum = Hashtbl.create 64 in
  let count = ref 0 in
  let visit q =
    if not (Hashtbl.mem renum q) then begin
      Hashtbl.add renum q !count;
      incr count
    end
  in
  visit z.init_of.(j);
  let transitions = ref [] in
  for t = 0 to n_transitions z - 1 do
    if Bitset.mem z.bel.(t) j then begin
      visit z.row.(t);
      visit z.col.(t)
    end
  done;
  for t = n_transitions z - 1 downto 0 do
    if Bitset.mem z.bel.(t) j then
      transitions :=
        {
          Nfa.src = Hashtbl.find renum z.row.(t);
          label = Nfa.Cls z.idx.(t);
          dst = Hashtbl.find renum z.col.(t);
        }
        :: !transitions
  done;
  let finals = ref [] in
  Hashtbl.iter
    (fun q q' -> if Bitset.mem z.final_sets.(q) j then finals := q' :: !finals)
    renum;
  Nfa.create ~n_states:(max 1 !count) ~transitions:!transitions
    ~start:(Hashtbl.find renum z.init_of.(j))
    ~finals:!finals ~anchored_start:z.anchored_start.(j)
    ~anchored_end:z.anchored_end.(j) ~pattern:z.patterns.(j) ()

let validate z =
  let nt = n_transitions z in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if
    Array.length z.col <> nt
    || Array.length z.idx <> nt
    || Array.length z.bel <> nt
  then err "COO vectors have inconsistent lengths"
  else if
    Array.length z.init_sets <> z.n_states
    || Array.length z.final_sets <> z.n_states
  then err "state-set vectors have wrong length"
  else if
    Array.length z.init_of <> z.n_fsas
    || Array.length z.anchored_start <> z.n_fsas
    || Array.length z.anchored_end <> z.n_fsas
    || Array.length z.patterns <> z.n_fsas
  then err "per-FSA vectors have wrong length"
  else
    let bad = ref None in
    for t = 0 to nt - 1 do
      if !bad = None then
        if z.row.(t) < 0 || z.row.(t) >= z.n_states then
          bad := Some (Printf.sprintf "transition %d: row out of range" t)
        else if z.col.(t) < 0 || z.col.(t) >= z.n_states then
          bad := Some (Printf.sprintf "transition %d: col out of range" t)
        else if Charclass.is_empty z.idx.(t) then
          bad := Some (Printf.sprintf "transition %d: empty class" t)
        else if Bitset.is_empty z.bel.(t) then
          bad := Some (Printf.sprintf "transition %d: empty belonging" t)
    done;
    (match !bad with
    | None ->
        Array.iteri
          (fun j q ->
            if !bad = None then
              if q < 0 || q >= z.n_states then
                bad := Some (Printf.sprintf "FSA %d: initial state out of range" j)
              else if not (Bitset.mem z.init_sets.(q) j) then
                bad :=
                  Some
                    (Printf.sprintf
                       "FSA %d: init_sets is not the inverse of init_of" j))
          z.init_of
    | Some _ -> ());
    match !bad with None -> Ok () | Some msg -> Error msg

let of_arrays ~n_states ~n_fsas ~row ~col ~idx ~bel ~init_of ~final_sets
    ~anchored_start ~anchored_end ~patterns =
  if n_states <= 0 then invalid_arg "Mfsa.of_arrays: need at least one state";
  if n_fsas <= 0 then invalid_arg "Mfsa.of_arrays: need at least one FSA";
  let init_sets = Array.init n_states (fun _ -> Bitset.create n_fsas) in
  Array.iteri
    (fun j q ->
      if q < 0 || q >= n_states then
        invalid_arg
          (Printf.sprintf "Mfsa.of_arrays: FSA %d initial state out of range" j);
      Bitset.add init_sets.(q) j)
    init_of;
  let z =
    {
      n_states;
      n_fsas;
      row;
      col;
      idx;
      bel;
      init_of;
      init_sets;
      final_sets;
      anchored_start;
      anchored_end;
      patterns;
      classes_memo = Atomic.make None;
    }
  in
  match validate z with
  | Ok () -> z
  | Error msg -> invalid_arg ("Mfsa.of_arrays: " ^ msg)

let retire z j =
  if j < 0 || j >= z.n_fsas then invalid_arg "Mfsa.retire: FSA id out of range";
  if z.n_fsas = 1 then None
  else begin
    let nf = z.n_fsas - 1 in
    let remap_fsa i = if i < j then i else i - 1 in
    (* Belonging sets with j cleared; transitions left empty are dead. *)
    let keep = ref [] in
    for t = n_transitions z - 1 downto 0 do
      let b = Bitset.create nf in
      Bitset.iter (fun i -> if i <> j then Bitset.add b (remap_fsa i)) z.bel.(t);
      if not (Bitset.is_empty b) then keep := (t, b) :: !keep
    done;
    let keep = !keep in
    (* Compaction: renumber the states live structure still touches
       (surviving transitions plus surviving initial/final states). *)
    let used = Array.make z.n_states false in
    List.iter
      (fun (t, _) ->
        used.(z.row.(t)) <- true;
        used.(z.col.(t)) <- true)
      keep;
    Array.iteri (fun i q -> if i <> j then used.(q) <- true) z.init_of;
    Array.iteri
      (fun q fs -> Bitset.iter (fun i -> if i <> j then used.(q) <- true) fs)
      z.final_sets;
    let state_map = Array.make z.n_states (-1) in
    let n_states = ref 0 in
    Array.iteri
      (fun q u ->
        if u then begin
          state_map.(q) <- !n_states;
          incr n_states
        end)
      used;
    let nt = List.length keep in
    let row = Array.make (max nt 1) 0
    and col = Array.make (max nt 1) 0
    and idx = Array.make (max nt 1) Charclass.empty
    and bel = Array.make (max nt 1) (Bitset.create nf) in
    List.iteri
      (fun i (t, b) ->
        row.(i) <- state_map.(z.row.(t));
        col.(i) <- state_map.(z.col.(t));
        idx.(i) <- z.idx.(t);
        bel.(i) <- b)
      keep;
    let row = Array.sub row 0 nt
    and col = Array.sub col 0 nt
    and idx = Array.sub idx 0 nt
    and bel = Array.sub bel 0 nt in
    let init_of = Array.make nf 0 in
    Array.iteri
      (fun i q -> if i <> j then init_of.(remap_fsa i) <- state_map.(q))
      z.init_of;
    let final_sets =
      Array.init (max 1 !n_states) (fun _ -> Bitset.create nf)
    in
    Array.iteri
      (fun q fs ->
        if state_map.(q) >= 0 then
          Bitset.iter
            (fun i -> if i <> j then Bitset.add final_sets.(state_map.(q)) (remap_fsa i))
            fs)
      z.final_sets;
    let drop a =
      Array.init nf (fun i -> a.(if i < j then i else i + 1))
    in
    Some
      (of_arrays ~n_states:(max 1 !n_states) ~n_fsas:nf ~row ~col ~idx ~bel
         ~init_of ~final_sets
         ~anchored_start:(drop z.anchored_start)
         ~anchored_end:(drop z.anchored_end) ~patterns:(drop z.patterns))
  end

let states_compression ~before ~after =
  if before = 0 then 0.
  else float_of_int (before - after) /. float_of_int before *. 100.

let total_states zs = List.fold_left (fun acc z -> acc + z.n_states) 0 zs

let total_transitions zs =
  List.fold_left (fun acc z -> acc + n_transitions z) 0 zs

let cc_stats z =
  Array.fold_left
    (fun (count, total) c ->
      let n = Charclass.cardinal c in
      if n > 1 then (count + 1, total + n) else (count, total))
    (0, 0) z.idx

let pp fmt z =
  Format.fprintf fmt "@[<v>MFSA: %d states, %d transitions, %d FSAs@,"
    z.n_states (n_transitions z) z.n_fsas;
  Array.iteri
    (fun j q ->
      Format.fprintf fmt "FSA %d %S: init %d%s%s@," j z.patterns.(j) q
        (if z.anchored_start.(j) then " ^" else "")
        (if z.anchored_end.(j) then " $" else ""))
    z.init_of;
  for t = 0 to n_transitions z - 1 do
    Format.fprintf fmt "  %d --%a--> %d  bel=%a@," z.row.(t) Charclass.pp
      z.idx.(t) z.col.(t) Bitset.pp z.bel.(t)
  done;
  Format.fprintf fmt "@]"

let pp_coo fmt z =
  let nt = n_transitions z in
  let cell_bel t =
    String.concat "," (List.map string_of_int (Bitset.to_list z.bel.(t)))
  in
  let columns =
    List.init nt (fun t ->
        [
          cell_bel t;
          string_of_int z.row.(t);
          string_of_int z.col.(t);
          Charclass.to_spec z.idx.(t);
        ])
  in
  let width t =
    List.fold_left (fun acc cell -> max acc (String.length cell)) 0
      (List.nth columns t)
  in
  let widths = List.init nt width in
  let line label pick =
    Format.fprintf fmt "%-3s |" label;
    List.iteri
      (fun t w ->
        let cell = pick (List.nth columns t) in
        Format.fprintf fmt " %-*s |" w cell)
      widths;
    Format.pp_print_newline fmt ()
  in
  line "bel" (fun c -> List.nth c 0);
  line "row" (fun c -> List.nth c 1);
  line "col" (fun c -> List.nth c 2);
  line "idx" (fun c -> List.nth c 3)

let to_dot z =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph mfsa {\n  rankdir=LR;\n";
  for q = 0 to z.n_states - 1 do
    let final = not (Bitset.is_empty z.final_sets.(q)) in
    let init = not (Bitset.is_empty z.init_sets.(q)) in
    Buffer.add_string buf
      (Printf.sprintf "  %d [shape=%s%s];\n" q
         (if final then "doublecircle" else "circle")
         (if init then ",style=bold" else ""))
  done;
  for t = 0 to n_transitions z - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %d -> %d [label=\"%s %s\"];\n" z.row.(t) z.col.(t)
         (Charclass.to_spec z.idx.(t))
         (Format.asprintf "%a" Bitset.pp z.bel.(t)))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
