module Mfsa = Mfsa_model.Mfsa

type t =
  | Rules of string array
  | Rules_file of string
  | Automata of Mfsa.t list
  | Artifact_file of string
  | Artifact_bytes of string
  | Tables of Tables.t list

exception Error of string

let () =
  Printexc.register_printer (function
    | Error msg -> Some (Printf.sprintf "Source.Error: %s" msg)
    | _ -> None)

let artifact_magic = "MFSAART\x00"

let is_artifact_string s =
  String.length s >= String.length artifact_magic
  && String.sub s 0 (String.length artifact_magic) = artifact_magic

let is_artifact_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = String.length artifact_magic in
          match really_input_string ic n with
          | s -> s = artifact_magic
          | exception End_of_file -> false)

(* One pattern per line, '#' comments allowed — the shared ruleset
   file format of every CLI. "-" reads stdin. *)
let read_rules_file path =
  let contents =
    if path = "-" then In_channel.input_all stdin
    else
      match open_in_bin path with
      | exception Sys_error msg -> raise (Error msg)
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              (* input_all, not in_channel_length: rule files are
                 often pipes (process substitution, fifos). *)
              try In_channel.input_all ic
              with Sys_error msg -> raise (Error msg))
  in
  contents
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None else Some l)
  |> Array.of_list

let describe = function
  | Rules r -> Printf.sprintf "%d in-process rule(s)" (Array.length r)
  | Rules_file p -> Printf.sprintf "rules file %s" p
  | Automata zs -> Printf.sprintf "%d in-process automaton(s)" (List.length zs)
  | Artifact_file p -> Printf.sprintf "artifact %s" p
  | Artifact_bytes _ -> "in-memory artifact"
  | Tables tbs ->
      Printf.sprintf "%d in-process table bundle(s)" (List.length tbs)

(* The two compilation back ends live above this library (the rule
   pipeline in mfsa.core, the artifact reader in mfsa.artifact), so
   they install themselves here at module-initialisation time. An
   unregistered hook means the executable was linked without the
   provider — a build wiring error, reported as such. *)

let rule_compiler : (string array -> Mfsa.t list) option ref = ref None

let artifact_loader :
    ([ `File of string | `Bytes of string ] -> Tables.t list) option ref =
  ref None

let set_rule_compiler f = rule_compiler := Some f
let set_artifact_loader f = artifact_loader := Some f

let compile_rules rules =
  match !rule_compiler with
  | Some f -> f rules
  | None ->
      raise
        (Error
           "no rule compiler registered (executable not linked against \
            Mfsa_core.Pipeline)")

let load_artifact src =
  match !artifact_loader with
  | Some f -> f src
  | None ->
      raise
        (Error
           "no artifact loader registered (executable not linked against \
            Mfsa_artifact.Artifact)")

let resolve = function
  | Rules rules -> List.map Imfant.tables (compile_rules rules)
  | Rules_file path ->
      List.map Imfant.tables (compile_rules (read_rules_file path))
  | Automata zs -> List.map Imfant.tables zs
  | Artifact_file path -> load_artifact (`File path)
  | Artifact_bytes bytes -> load_artifact (`Bytes bytes)
  | Tables tbs -> tbs
