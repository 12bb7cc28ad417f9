type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  start : float;
  stop : float;
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded = ref []

(* The open spans of this domain, innermost first: (id, req). *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span ?req name f =
  if not (enabled ()) then f ()
  else
    let outer = Domain.DLS.get stack in
    let parent, inherited = match outer with (p, r) :: _ -> (p, r) | [] -> (0, 0) in
    let req = Option.value req ~default:inherited in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set stack ((id, req) :: outer);
    let start = Measure.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Measure.now () in
        Domain.DLS.set stack outer;
        Mutex.protect lock (fun () ->
            recorded := { id; parent; name; req; start; stop } :: !recorded))

let spans () =
  List.sort (fun a b -> Float.compare a.start b.start)
    (Mutex.protect lock (fun () -> !recorded))

let self_times spans name =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = Option.value (Hashtbl.find_opt covered s.parent) ~default:0. in
        Hashtbl.replace covered s.parent (c +. (s.stop -. s.start)))
    spans;
  spans
  |> List.filter (fun s -> s.name = name)
  |> List.map (fun s ->
         s.stop -. s.start -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.)
  |> Array.of_list

let to_json spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.int s.id);
             ("parent", Json.int s.parent);
             ("name", Json.Str s.name);
             ("req", Json.int s.req);
             ("start", Json.Num s.start);
             ("end", Json.Num s.stop);
           ])
       spans)
