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

let compile_automaton name z =
  match resolve name with
  | Error msg -> Error msg
  | Ok (module E : Engine_sig.S) ->
      Ok (Engine_sig.pack (module E) (E.compile z))

let compile_automaton_exn name z =
  match compile_automaton name z with
  | Ok t -> t
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* The unified compile surface                                         *)
(* ------------------------------------------------------------------ *)

let can_load_tables name =
  match resolve name with
  | Error _ -> false
  | Ok (module E : Engine_sig.S) -> E.of_tables <> None

let table_capable_names () = List.filter can_load_tables (names ())

(* The capability error is a user error (they picked an engine and an
   artifact that don't go together), so it gets the same clean
   one-line treatment as an unknown engine name. *)
let no_table_loader name =
  Printf.sprintf
    "engine %S cannot load a compiled artifact (engines with a table \
     loader: %s); recompile from rules instead"
    name
    (String.concat ", " (table_capable_names ()))

let compile_tables name tb =
  match resolve name with
  | Error msg -> Error msg
  | Ok (module E : Engine_sig.S) -> (
      match E.of_tables with
      | None -> Error (no_table_loader name)
      | Some load -> Ok (Engine_sig.pack (module E) (load tb)))

let compile_tables_exn name tb =
  match compile_tables name tb with
  | Ok t -> t
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)

let compile name source =
  match resolve name with
  | Error msg -> Error msg
  | Ok (module E : Engine_sig.S) -> (
      (* Check the artifact capability before paying for the load: a
         syntactically artifact-shaped source with an incapable engine
         is refused without touching the file. *)
      match source with
      | (Source.Artifact_file _ | Source.Artifact_bytes _)
        when E.of_tables = None ->
          Error (no_table_loader name)
      | _ -> (
          match Source.resolve source with
          | Source.Compiled_automata zs ->
              Ok (List.map (fun z -> Engine_sig.pack (module E) (E.compile z)) zs)
          | Source.Compiled_tables ts -> (
              match E.of_tables with
              | None -> Error (no_table_loader name)
              | Some load ->
                  Ok
                    (List.map
                       (fun tb -> Engine_sig.pack (module E) (load tb))
                       ts))))

let compile_exn name source =
  match compile name source with
  | Ok t -> t
  | Error msg -> invalid_arg ("Registry.compile_exn: " ^ msg)
