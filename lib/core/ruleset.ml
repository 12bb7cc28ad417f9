module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Ccsplit = Mfsa_model.Ccsplit
module Imfant = Mfsa_engine.Imfant
module Pool = Mfsa_engine.Pool
module Anml = Mfsa_anml.Anml

type match_event = { rule : int; end_pos : int }

type t = {
  patterns : string array;  (* original order *)
  groups : int list list;  (* per MFSA: global rule index per local id *)
  mfsas : Mfsa.t list;
  engines : Imfant.t array Lazy.t;
  before : Report.totals option;  (* separate-FSA totals, when known *)
}

let make ~patterns ~groups ~mfsas ~before =
  {
    patterns;
    groups;
    mfsas;
    engines = lazy (Array.of_list (List.map Imfant.compile mfsas));
    before;
  }

let sequential_groups ~m n =
  let m = if m = 0 || m > n then n else m in
  List.init ((n + m - 1) / m) (fun g ->
      List.init (min m (n - (g * m))) (fun k -> (g * m) + k))

let compile ?(m = 0) ?(cluster = false) ?(ccsplit = false) patterns =
  match Pipeline.build_fsas patterns with
  | Error e -> Error e
  | Ok fsas ->
      let before = Report.fsa_totals fsas in
      let fsas = if ccsplit then Ccsplit.split fsas else fsas in
      let groups =
        if cluster then Cluster.group ~m patterns
        else sequential_groups ~m (Array.length patterns)
      in
      let mfsas =
        List.map
          (fun g -> Merge.merge (Array.of_list (List.map (fun i -> fsas.(i)) g)))
          groups
      in
      Ok (make ~patterns ~groups ~mfsas ~before:(Some before))

let compile_exn ?m ?cluster ?ccsplit patterns =
  match compile ?m ?cluster ?ccsplit patterns with
  | Ok t -> t
  | Error e -> raise (Pipeline.Compile_error e)

let n_rules t = Array.length t.patterns

let patterns t = Array.copy t.patterns

let n_mfsas t = List.length t.mfsas

let collect t per_engine =
  (* Map each engine's local FSA ids back to global rule indices. *)
  let engines = Lazy.force t.engines in
  List.concat
    (List.mapi
       (fun gi group ->
         let local_to_global = Array.of_list group in
         per_engine engines.(gi)
         |> List.map (fun e ->
                { rule = local_to_global.(e.Imfant.fsa); end_pos = e.Imfant.end_pos }))
       t.groups)

let run ?(threads = 1) t input =
  let events =
    if threads <= 1 || n_mfsas t = 1 then
      collect t (fun engine -> Imfant.run engine input)
    else begin
      let engines = Lazy.force t.engines in
      let result =
        Pool.run ~threads ~jobs:(Array.map (fun e () -> Imfant.run e input) engines)
      in
      List.concat
        (List.mapi
           (fun gi group ->
             let local_to_global = Array.of_list group in
             result.Pool.values.(gi)
             |> List.map (fun e ->
                    {
                      rule = local_to_global.(e.Imfant.fsa);
                      end_pos = e.Imfant.end_pos;
                    }))
           t.groups)
    end
  in
  List.stable_sort
    (fun a b ->
      if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
      else Int.compare a.rule b.rule)
    events

let count_per_rule ?threads t input =
  let counts = Array.make (n_rules t) 0 in
  List.iter
    (fun { rule; _ } -> counts.(rule) <- counts.(rule) + 1)
    (run ?threads t input);
  counts

let count ?threads t input = List.length (run ?threads t input)

let to_anml t = Anml.write ~name:"mfsa-ruleset" t.mfsas

let of_anml doc =
  match Anml.read doc with
  | Error msg -> Error msg
  | Ok [] -> Error "Ruleset.of_anml: document contains no MFSA"
  | Ok mfsas ->
      (* Rule indices follow document order: group by group, local id
         by local id. Rulesets compiled without clustering keep their
         original order through the round trip. *)
      let counter = ref 0 in
      let groups =
        List.map
          (fun z ->
            List.init z.Mfsa.n_fsas (fun _ ->
                let v = !counter in
                incr counter;
                v))
          mfsas
      in
      let patterns =
        Array.concat (List.map (fun z -> z.Mfsa.patterns) mfsas)
      in
      Ok (make ~patterns ~groups ~mfsas ~before:None)

type session = { owner : t; sessions : Imfant.session array }

let session t =
  { owner = t; sessions = Array.map Imfant.session (Lazy.force t.engines) }

let remap t per_session =
  List.concat
    (List.mapi
       (fun gi group ->
         let local_to_global = Array.of_list group in
         per_session gi
         |> List.map (fun e ->
                {
                  rule = local_to_global.(e.Imfant.fsa);
                  end_pos = e.Imfant.end_pos;
                }))
       t.groups)
  |> List.stable_sort (fun a b ->
         if a.end_pos <> b.end_pos then Int.compare a.end_pos b.end_pos
         else Int.compare a.rule b.rule)

let feed s chunk =
  (* Feed every session first, then remap: feeding inside the remap
     callback would re-run per group. *)
  let results = Array.map (fun session -> Imfant.feed session chunk) s.sessions in
  remap s.owner (fun gi -> results.(gi))

let finish s =
  let results = Array.map Imfant.finish s.sessions in
  remap s.owner (fun gi -> results.(gi))

let reset s = Array.iter Imfant.reset s.sessions

let compression t =
  let after =
    List.fold_left
      (fun acc z ->
        {
          Report.states = acc.Report.states + z.Mfsa.n_states;
          transitions = acc.Report.transitions + Mfsa.n_transitions z;
        })
      { Report.states = 0; transitions = 0 }
      t.mfsas
  in
  let before =
    match t.before with
    | Some b -> Some b
    | None -> (
        (* ANML-loaded matcher: recompile the stored patterns. *)
        match Pipeline.build_fsas t.patterns with
        | Ok fsas -> Some (Report.fsa_totals fsas)
        | Error _ -> None)
  in
  match before with
  | Some before -> Report.compression ~before ~after
  | None -> (0., 0.)
