module Nfa = Mfsa_automata.Nfa
module Ast = Mfsa_frontend.Ast
module Parser = Mfsa_frontend.Parser
module Charclass = Mfsa_charset.Charclass
module Aho_corasick = Mfsa_engine.Aho_corasick

type match_event = { rule : int; end_pos : int }

(* Literal-prefix analysis. [Exact s] means L(t) = {s}; [Starts p]
   means every string of L(t) starts with [p] (and nothing stronger is
   claimed). *)
type shape = Exact of string | Starts of string

let payload = function Exact s | Starts s -> s

let longest_common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  String.sub a 0 (go 0)

let rec shape = function
  | Ast.Empty -> Exact ""
  | Ast.Char c -> Exact (String.make 1 c)
  | Ast.Class cls -> (
      match Charclass.is_singleton cls with
      | Some c -> Exact (String.make 1 c)
      | None -> Starts "")
  | Ast.Concat (a, b) -> (
      match shape a with
      | Exact sa -> (
          match shape b with
          | Exact sb -> Exact (sa ^ sb)
          | Starts pb -> Starts (sa ^ pb))
      | Starts pa -> Starts pa)
  | Ast.Alt (a, b) -> (
      match (shape a, shape b) with
      | Exact sa, Exact sb when String.equal sa sb -> Exact sa
      | sa, sb -> Starts (longest_common_prefix (payload sa) (payload sb)))
  | Ast.Star _ | Ast.Opt _ -> Starts ""
  | Ast.Plus a -> Starts (payload (shape a))
  | Ast.Repeat (_, 0, _) -> Starts ""
  | Ast.Repeat (a, m, bound) -> (
      match shape a with
      | Exact s ->
          let rep = String.concat "" (List.init m (fun _ -> s)) in
          if bound = Some m then Exact rep else Starts rep
      | Starts p -> Starts p)

let literal_prefix ast = payload (shape ast)

type rule_engine = {
  index : int;
  engine : Infant.t;
  prefix : string;  (* "" on the fallback path *)
}

type t = {
  prefiltered : rule_engine array;
  fallback : rule_engine array;
  filter : Aho_corasick.t option;  (* over prefiltered prefixes *)
}

(* Minimum prefix selectivity: one-byte prefixes fire on ~1/256 of the
   stream and make the pre-filter pure overhead. *)
let min_prefix = 2

let anchored_copy (a : Nfa.t) =
  Nfa.create ~n_states:a.Nfa.n_states
    ~transitions:(Array.to_list a.Nfa.transitions)
    ~start:a.Nfa.start ~finals:(Nfa.final_states a) ~anchored_start:true
    ~anchored_end:a.Nfa.anchored_end ~pattern:a.Nfa.pattern ()

let compile fsas =
  Array.iter
    (fun a ->
      if not (Nfa.is_eps_free a) then
        invalid_arg "Decomposed.compile: automata must be ε-free")
    fsas;
  let prefiltered = ref [] and fallback = ref [] in
  Array.iteri
    (fun index a ->
      let prefix =
        if a.Nfa.anchored_start then ""
        else
          match Parser.parse a.Nfa.pattern with
          | Ok rule -> literal_prefix rule.Ast.ast
          | Error _ -> ""
      in
      if String.length prefix >= min_prefix then
        prefiltered :=
          { index; engine = Infant.compile (anchored_copy a); prefix }
          :: !prefiltered
      else fallback := { index; engine = Infant.compile a; prefix = "" } :: !fallback)
    fsas;
  let prefiltered = Array.of_list (List.rev !prefiltered) in
  let filter =
    if Array.length prefiltered = 0 then None
    else Some (Aho_corasick.build (Array.map (fun r -> r.prefix) prefiltered))
  in
  { prefiltered; fallback = Array.of_list (List.rev !fallback); filter }

let n_prefiltered t = Array.length t.prefiltered

let n_fallback t = Array.length t.fallback

let run t input =
  let events = ref [] in
  let seen = Hashtbl.create 64 in
  let emit rule end_pos =
    if not (Hashtbl.mem seen (rule, end_pos)) then begin
      Hashtbl.add seen (rule, end_pos) ();
      events := { rule; end_pos } :: !events
    end
  in
  (* Fallback rules: conventional full scans. *)
  Array.iter
    (fun r -> List.iter (fun e -> emit r.index e) (Infant.run r.engine input))
    t.fallback;
  (* Pre-filtered rules: one AC pass finds every prefix occurrence;
     each occurrence anchors one confirmation run of the rule's
     automaton over the remaining suffix. *)
  (match t.filter with
  | None -> ()
  | Some filter ->
      let len = String.length input in
      List.iter
        (fun { Aho_corasick.pattern = pi; end_pos } ->
          let r = t.prefiltered.(pi) in
          let start = end_pos - String.length r.prefix in
          let suffix = String.sub input start (len - start) in
          List.iter
            (fun e -> emit r.index (start + e))
            (Infant.run r.engine suffix))
        (Aho_corasick.run filter input));
  List.sort
    (fun a b ->
      if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
      else Int.compare a.rule b.rule)
    !events

let count t input = List.length (run t input)
