(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let table : (string, (module Engine_sig.S)) Hashtbl.t = Hashtbl.create 8

let register (module E : Engine_sig.S) = Hashtbl.replace table E.name (module E : Engine_sig.S)

let () =
  List.iter register
    [
      (module Imfant_engine);
      (module Hybrid_engine);
      (module Auto_engine);
    ]

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort String.compare

let unknown_message name =
  Printf.sprintf
    "unknown engine %S (registered: %s; any name can be wrapped as \
     faulty{seed=..,fail_every=..}:<engine> for fault injection, and \
     imfant/hybrid as sfa{domains=..,threshold=..}:<engine> for \
     intra-input parallelism)"
    name
    (String.concat ", " (names ()))

(* Name resolution: exact table entries win; otherwise the name is
   tried against the wrapper grammars — [faulty{...}:<inner>] recurses
   on the inner name so wrappers nest; [sfa{...}:<inner>] restricts
   its inner to the table-shaped engines its chunk primitives exist
   for. Each resolution of a wrapper spec builds a fresh first-class
   module closed over its config — stateless until compiled, so this
   is cheap. *)
let sfa_inners = [ "imfant"; "hybrid" ]

let rec resolve name =
  match Hashtbl.find_opt table name with
  | Some m -> Ok m
  | None -> (
      match Sfa.split_spec name with
      | Some (Error msg) -> Error (Printf.sprintf "bad sfa spec %S: %s" name msg)
      | Some (Ok (spec, inner)) ->
          if List.mem inner sfa_inners then Ok (Sfa.make ~name spec ~inner)
          else
            Error
              (Printf.sprintf
                 "bad sfa spec %S: inner engine must be one of %s, got %S"
                 name
                 (String.concat ", " sfa_inners)
                 inner)
      | None -> (
          match Faulty.split_spec name with
          | None -> Error (unknown_message name)
          | Some (Error msg) ->
              Error (Printf.sprintf "bad faulty spec %S: %s" name msg)
          | Some (Ok (cfg, inner)) ->
              Result.map (Faulty.make ~name cfg) (resolve inner)))

let find name = Result.to_option (resolve name)

let rec underlying name =
  match Sfa.split_spec name with
  | Some (Ok (_, inner)) -> underlying inner
  | _ -> (
      match Faulty.split_spec name with
      | Some (Ok (_, inner)) -> underlying inner
      | _ -> name)

(* The bare message, not a "Registry.find_exn:"-prefixed one: the
   CLIs print it verbatim after their own program name. *)
let find_exn name =
  match resolve name with Ok e -> e | Error msg -> invalid_arg msg

let doc name =
  Option.map (fun (module E : Engine_sig.S) -> E.doc) (find name)

let help () =
  (names ()
  |> List.map (fun name ->
         Printf.sprintf "%-12s %s\n" name
           (Option.value ~default:"" (doc name)))
  |> String.concat "")
  ^ "faulty{..}:<engine>  deterministic fault-injection wrapper \
     (seed=, fail_every=, poison_every=, delay_every=, delay_ms=, \
     fail=, poison=, delay=)\n"
  ^ "sfa{..}:<engine>     SFA intra-input parallel wrapper over imfant or \
     hybrid (domains=, threshold= split size in bytes)\n"

(* The one construction path: every source resolves to table bundles,
   and every engine is built from one by its [of_tables]. The name is
   resolved first, so a bad one fails before any source is read. *)
let loader name =
  Result.map
    (fun (module E : Engine_sig.S) tb ->
      Engine_sig.pack (module E) (E.of_tables tb))
    (resolve name)

let or_raise = function
  | Ok x -> x
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)

let compile_tables_exn name tb = or_raise (loader name) tb

let compile_automaton_exn name z = compile_tables_exn name (Imfant.tables z)

let compile name source =
  Result.map (fun load -> List.map load (Source.resolve source)) (loader name)

let compile_exn name source = or_raise (compile name source)
