type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f when Float.is_integer f && Float.abs f < 1e15 ->
        Printf.bprintf b "%.0f" f
    | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
    | Num _ -> Buffer.add_string b "null"
    | Str s -> escape b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; go x) l;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b ", ";
            escape b k;
            Buffer.add_string b ": ";
            go x)
          l;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON: %s at offset %d" what !pos) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; skip ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= n then fail "bad escape";
          (match s.[!pos + 1] with
          | 'n' -> Buffer.add_char b '\n'; pos := !pos + 2
          | 't' -> Buffer.add_char b '\t'; pos := !pos + 2
          | 'u' when !pos + 5 < n ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 2) 4) in
              if code > 0xff then fail "non-Latin-1 escape";
              Buffer.add_char b (Char.chr code);
              pos := !pos + 6
          | c -> Buffer.add_char b c; pos := !pos + 2);
          go ()
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = str () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do incr pos done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj l -> Option.value (List.assoc_opt k l) ~default:Null | _ -> Null
let to_float = function Num f -> f | _ -> failwith "JSON: number expected"
let to_list = function Arr l -> l | _ -> failwith "JSON: array expected"
let to_str = function Str s -> s | _ -> failwith "JSON: string expected"
