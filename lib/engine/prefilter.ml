module Ast = Mfsa_frontend.Ast
module Parser = Mfsa_frontend.Parser
module Charclass = Mfsa_charset.Charclass
module Mfsa = Mfsa_model.Mfsa
module Vec = Mfsa_util.Vec
module Obs = Mfsa_obs.Obs

let min_prefix_len = 2
let max_set = 32
let max_prefix_len = 12
let max_class = 16

(* A prefix set for an AST node [a] is a string list [l] such that
   every word of L(a) starts with some member of [l]. [Exact l]
   additionally promises L(a) = l exactly (used to keep Concat
   precise); [Pref] is the general sound form. Caps keep the sets
   small: any overflow degrades to a still-sound shorter set, at
   worst [Pref [""]] ("no usable prefix"). *)
type pset = Exact of string list | Pref of string list

let strings = function Exact l | Pref l -> l
let dedup l = List.sort_uniq String.compare l

let cross la lb = List.concat_map (fun a -> List.map (fun b -> a ^ b) lb) la

let class_strings cls =
  if Charclass.cardinal cls <= max_class then
    Some (List.map (String.make 1) (Charclass.to_list cls))
  else None

let rec pset (ast : Ast.t) : pset =
  match ast with
  | Empty -> Exact [ "" ]
  | Char c -> Exact [ String.make 1 c ]
  | Class cls -> (
      match class_strings cls with Some l -> Exact l | None -> Pref [ "" ])
  | Concat (a, b) -> concat_ps (pset a) (fun () -> pset b)
  | Alt (a, b) -> (
      let sa = pset a and sb = pset b in
      let la = strings sa and lb = strings sb in
      if List.length la + List.length lb > max_set then Pref [ "" ]
      else
        match (sa, sb) with
        | Exact _, Exact _ -> Exact (dedup (la @ lb))
        | _ -> Pref (dedup (la @ lb)))
  | Star _ | Opt _ -> Pref [ "" ]
  | Plus a -> Pref (strings (pset a))
  | Repeat (_, 0, _) -> Pref [ "" ]
  | Repeat (a, m, _) ->
      (* The first repetition is mandatory and complete, so chaining
         the body's prefix set through Concat is sound; unrolling is
         capped — deeper copies only lengthen prefixes past the
         truncation limit anyway. *)
      let base = pset a in
      let rec go k =
        if k = 0 then Pref [ "" ] else concat_ps base (fun () -> go (k - 1))
      in
      go (min m 3)

and concat_ps sa sb =
  match sa with
  | Pref pa -> Pref pa
  | Exact la ->
      if List.for_all (fun s -> String.length s >= max_prefix_len) la then
        Pref la
      else
        let s2 = sb () in
        let lb = strings s2 in
        if List.length la * List.length lb > max_set then Pref la
        else
          let prod = dedup (cross la lb) in
          (match s2 with Exact _ -> Exact prod | Pref _ -> Pref prod)

let truncate s =
  if String.length s > max_prefix_len then String.sub s 0 max_prefix_len else s

let prefix_set ast =
  let l = dedup (List.map truncate (strings (pset ast))) in
  if
    l <> []
    && List.length l <= max_set
    && List.for_all (fun s -> String.length s >= min_prefix_len) l
  then Some l
  else None

type t = {
  ac : Aho_corasick.t;
  lens : int array;  (* length of literal [id], to turn ends into starts *)
  maxlen : int;
  n_literals : int;
}

(* Drop any literal that has another literal as a proper prefix: an
   occurrence of the longer one implies an occurrence of the shorter
   at the same start. After sorting, checking against the last kept
   element suffices (strings between a prefix and its extension share
   that prefix). *)
let prefix_minimal l =
  let rec go kept = function
    | [] -> List.rev kept
    | s :: rest -> (
        match kept with
        | k :: _
          when String.length k <= String.length s
               && String.equal k (String.sub s 0 (String.length k)) ->
            go kept rest
        | _ -> go (s :: kept) rest)
  in
  go [] (List.sort String.compare l)

(* Same series as the pipeline's per-stage spans: literal extraction
   is a compile stage, it just runs at engine-compile time. *)
let stage_seconds =
  lazy
    (Obs.histogram ~registry:Obs.default
       ~help:"Compile-pipeline stage latency in seconds, per compile call"
       ~labels:[ ("stage", "literal_prefilter") ]
       "mfsa_compile_stage_seconds")

let build literals =
  let lits = prefix_minimal literals in
  let arr = Array.of_list lits in
  {
    ac = Aho_corasick.build arr;
    lens = Array.map String.length arr;
    maxlen = Array.fold_left (fun m s -> max m (String.length s)) 1 arr;
    n_literals = Array.length arr;
  }

let analyze (z : Mfsa.t) =
  Obs.time (Lazy.force stage_seconds) @@ fun () ->
  let n = Array.length z.Mfsa.patterns in
  let rec collect j acc =
    if j >= n then Some acc
    else if z.Mfsa.anchored_start.(j) then
      (* Anchored-start rules only ever match from position 0, which
         engines always treat as a candidate — no literal needed. *)
      collect (j + 1) acc
    else
      match Parser.parse z.Mfsa.patterns.(j) with
      | Error _ -> None
      | Ok rule -> (
          match prefix_set rule.Ast.ast with
          | Some ps -> collect (j + 1) (ps @ acc)
          | None -> None)
  in
  match collect 0 [] with
  | None -> None
  | Some lits -> Some (build (dedup lits))

let n_literals t = t.n_literals
let ac_states t = Aho_corasick.n_states t.ac

let sorted_dedup v =
  let n = Vec.length v in
  if n = 0 then [||]
  else begin
    let a = Array.init n (Vec.get v) in
    Array.sort compare a;
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

type tables = {
  pf_ac : Aho_corasick.tables;
  pf_lens : int array;
  pf_maxlen : int;
}

let export t =
  { pf_ac = Aho_corasick.export t.ac; pf_lens = Array.copy t.lens;
    pf_maxlen = t.maxlen }

let import ?(copy = true) tb =
  match Aho_corasick.import ~copy tb.pf_ac with
  | Error _ as e -> e
  | Ok ac ->
      if Array.exists (fun l -> l < 1) tb.pf_lens then
        Error "Prefilter tables: literal length < 1"
      else if tb.pf_maxlen < Array.fold_left max 1 tb.pf_lens then
        Error "Prefilter tables: maxlen below a literal's length"
      else
        Ok
          {
            ac;
            lens = (if copy then Array.copy tb.pf_lens else tb.pf_lens);
            maxlen = tb.pf_maxlen;
            n_literals = Array.length tb.pf_lens;
          }

let candidates t input =
  let v = Vec.create () in
  Aho_corasick.scan t.ac input ~on_match:(fun id e ->
      let s = e - t.lens.(id) in
      if s >= 0 then Vec.push v s);
  sorted_dedup v

let candidates_in t input ~start ~stop =
  let len = String.length input in
  let wstop = min len (stop + t.maxlen - 1) in
  let window =
    if start = 0 && wstop = len then input
    else String.sub input start (wstop - start)
  in
  let out = Vec.create () in
  Array.iter
    (fun o -> if start + o < stop then Vec.push out (start + o))
    (candidates t window);
  Vec.to_array out
