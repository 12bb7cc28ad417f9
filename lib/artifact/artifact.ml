(* Versioned binary MFSA artifacts: the speed-oriented counterpart of
   the extended-ANML interchange format. An artifact stores the merged
   automaton *and* every expensive engine-side derivation — the
   class-indexed transition tables, the activation table, the
   byte-class partition and the literal-prefilter automaton — in a
   flat, offset-based layout, so loading is O(size) sequential reads
   plus validation, never a re-run of the compile pipeline.

   Layout (all integers little-endian, fixed width):

     0   "MFSAART\x00"            8-byte magic (Source.artifact_magic)
     8   u32 version              format version (see [version])
     12  u32 n_mfsas
     16  u32 n_sections
     20  directory                n_sections x 24 bytes:
           u32 tag                4CC ("META", "AUTO", ...)
           u32 mfsa_index         0xFFFF_FFFF for global sections
           u64 offset             payload start, from file start
           u32 length             payload bytes
           u32 crc32              CRC-32 of the payload
     ...  payloads                directory order, no re-derivation
                                  needed to find anything

   Sections: one global META (8 fixed bytes, kept for old readers),
   then per automaton AUTO (COO vectors, anchors, patterns), CLS
   (byte-class partition), TBC (per-class transition lists) and PFX
   (prefilter automaton, present only when one was compiled).
   Earlier writers also emitted an optional CSR ((state, class) index)
   section and, up to version 2, an INI (unanchored activation table)
   section; the reader checksums both like any other and ignores them.
   Every section is
   independently checksummed; the reader validates magic, version,
   directory bounds and every checksum before structural parsing, and
   the structural parse bounds-checks every read, so a truncated or
   bit-flipped file surfaces as a typed [Error], never a crash. *)

module Mfsa = Mfsa_model.Mfsa
module Charclass = Mfsa_charset.Charclass
module Bitset = Mfsa_util.Bitset
module Tables = Mfsa_engine.Tables
module Source = Mfsa_engine.Source
module Imfant = Mfsa_engine.Imfant
module Prefilter = Mfsa_engine.Prefilter
module Aho_corasick = Mfsa_engine.Aho_corasick

(* Version 2 appended a u32 [cache_size] to META; version 3 stopped
   writing INI. Versions 1 and 2 still load. *)
let version = 3

let min_version = 1

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated of string
  | Checksum of string
  | Malformed of string
  | Io of string

let error_to_string = function
  | Bad_magic -> "not an MFSA artifact (bad magic)"
  | Bad_version v ->
      Printf.sprintf
        "unsupported artifact version %d (this build reads versions %d-%d)" v
        min_version version
  | Truncated what -> Printf.sprintf "truncated artifact (%s)" what
  | Checksum what -> Printf.sprintf "checksum mismatch in %s" what
  | Malformed what -> Printf.sprintf "malformed artifact: %s" what
  | Io msg -> msg

exception Error of error

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Artifact.Error: %s" (error_to_string e))
    | _ -> None)

let fail e = raise (Error e)

(* ------------------------------------------------------------ CRC32 *)

(* The standard reflected CRC-32 (polynomial 0xEDB88320), slicing-by-8
   — dependency-free, and fast enough that checksumming every section
   stays a small fraction of load time even on multi-megabyte
   artifacts. Table k extends table k-1 by one zero byte, so eight
   lookups advance the CRC over eight input bytes at once. *)
let crc_tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     let t = Array.make 8 t0 in
     for k = 1 to 7 do
       t.(k) <-
         Array.map (fun prev -> t0.(prev land 0xff) lxor (prev lsr 8)) t.(k - 1)
     done;
     t)

let crc32 s ~pos ~len =
  let t = Lazy.force crc_tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  (* Words are composed from unsafe byte reads: [String.get_int32_le]
     would box an [Int32] per call, and this loop runs over every byte
     of the artifact. *)
  let byte k = Char.code (String.unsafe_get s k) in
  while !i + 8 <= stop do
    let k = !i in
    let w1 =
      !c
      lxor (byte k
           lor (byte (k + 1) lsl 8)
           lor (byte (k + 2) lsl 16)
           lor (byte (k + 3) lsl 24))
    and w2 =
      byte (k + 4)
      lor (byte (k + 5) lsl 8)
      lor (byte (k + 6) lsl 16)
      lor (byte (k + 7) lsl 24)
    in
    c :=
      t7.(w1 land 0xff)
      lxor t6.((w1 lsr 8) land 0xff)
      lxor t5.((w1 lsr 16) land 0xff)
      lxor t4.(w1 lsr 24)
      lxor t3.(w2 land 0xff)
      lxor t2.((w2 lsr 8) land 0xff)
      lxor t1.((w2 lsr 16) land 0xff)
      lxor t0.(w2 lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := t0.((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
         lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* ----------------------------------------------------------- Writer *)

let add_u8 b v = Buffer.add_uint8 b v
let add_u16 b v = Buffer.add_uint16_le b v
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_int_array b a =
  add_u32 b (Array.length a);
  Array.iter (fun v -> add_u32 b v) a

(* Bitsets are packed LSB-first, 8 members per byte. *)
let add_bitset b set n =
  let nbytes = (n + 7) / 8 in
  let packed = Bytes.make nbytes '\x00' in
  Bitset.iter
    (fun j ->
      let byte = j / 8 in
      Bytes.set packed byte
        (Char.chr (Char.code (Bytes.get packed byte) lor (1 lsl (j mod 8)))))
    set;
  Buffer.add_bytes b packed

let add_bools b flags =
  let n = Array.length flags in
  let set = Bitset.create (max n 1) in
  Array.iteri (fun j f -> if f then Bitset.add set j) flags;
  add_bitset b set n

let add_string32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* META once held the compile-time knobs: class compression, the
   prefilter, the hybrid stride and (version 2) the hybrid cache's base
   capacity. Nothing reads them any more; the writer emits the values
   every reader accepts and the knobs' old defaults. *)
let meta_payload =
  let b = Buffer.create 8 in
  add_u8 b 1;
  add_u8 b 1;
  add_u8 b 1;
  add_u8 b 0;
  add_u32 b 4096;
  Buffer.contents b

let auto_payload (z : Mfsa.t) =
  let nt = Mfsa.n_transitions z in
  let b = Buffer.create (64 * nt) in
  add_u32 b z.Mfsa.n_states;
  add_u32 b z.Mfsa.n_fsas;
  add_u32 b nt;
  Array.iter (fun v -> add_u32 b v) z.Mfsa.row;
  Array.iter (fun v -> add_u32 b v) z.Mfsa.col;
  Array.iter
    (fun cc ->
      let ranges = Charclass.to_ranges cc in
      add_u16 b (List.length ranges);
      List.iter
        (fun (lo, hi) ->
          add_u8 b (Char.code lo);
          add_u8 b (Char.code hi))
        ranges)
    z.Mfsa.idx;
  Array.iter (fun set -> add_bitset b set z.Mfsa.n_fsas) z.Mfsa.bel;
  Array.iter (fun q -> add_u32 b q) z.Mfsa.init_of;
  Array.iter (fun set -> add_bitset b set z.Mfsa.n_fsas) z.Mfsa.final_sets;
  add_bools b z.Mfsa.anchored_start;
  add_bools b z.Mfsa.anchored_end;
  Array.iter (fun p -> add_string32 b p) z.Mfsa.patterns;
  Buffer.contents b

let cls_payload (cls : Mfsa.classes) =
  let b = Buffer.create (300 + (4 * cls.Mfsa.n_classes)) in
  add_u32 b cls.Mfsa.n_classes;
  Buffer.add_bytes b cls.Mfsa.class_of_byte;
  Array.iter (fun v -> add_u32 b v) cls.Mfsa.class_repr;
  Buffer.contents b

let tbc_payload trans_by_cls =
  let b = Buffer.create 1024 in
  add_u32 b (Array.length trans_by_cls);
  Array.iter (fun row -> add_int_array b row) trans_by_cls;
  Buffer.contents b

let pfx_payload pf =
  let tb = Prefilter.export pf in
  let ac = tb.Prefilter.pf_ac in
  let b =
    Buffer.create (4 * Array.length ac.Aho_corasick.ac_next)
  in
  add_u32 b ac.Aho_corasick.ac_states;
  (* The dense next table is by far the largest vector in an artifact;
     entries are state ids, so 16 bits suffice below 65536 AC states.
     The reader derives the width from [ac_states] — no format flag. *)
  if ac.Aho_corasick.ac_states <= 0xFFFF then
    Array.iter (fun v -> add_u16 b v) ac.Aho_corasick.ac_next
  else Array.iter (fun v -> add_u32 b v) ac.Aho_corasick.ac_next;
  add_int_array b ac.Aho_corasick.ac_out_off;
  add_int_array b ac.Aho_corasick.ac_out_ids;
  add_int_array b tb.Prefilter.pf_lens;
  add_u32 b tb.Prefilter.pf_maxlen;
  Buffer.contents b

let tag_meta = "META"
let tag_auto = "AUTO"
let tag_cls = "CLS\x00"
let tag_tbc = "TBC\x00"
let tag_pfx = "PFX\x00"

let global_index = 0xFFFFFFFF

let to_string (tables : Tables.t list) =
  if tables = [] then invalid_arg "Artifact.to_string: empty table list";
  let sections = ref [] in
  let push tag mfsa_index payload =
    sections := (tag, mfsa_index, payload) :: !sections
  in
  push tag_meta global_index meta_payload;
  List.iteri
    (fun i (tb : Tables.t) ->
      let z = tb.Tables.z in
      push tag_auto i (auto_payload z);
      (* The byte-class partition also seeds [Mfsa.classes]'s memo on
         load. Tables loaded from an old artifact written with class
         compression off carry the identity map. *)
      push tag_cls i
        (cls_payload
           { Mfsa.class_of_byte = tb.Tables.class_of;
             n_classes = tb.Tables.n_classes;
             class_repr =
               (if tb.Tables.n_classes = 256 then Array.init 256 Fun.id
                else (Mfsa.classes z).Mfsa.class_repr) });
      push tag_tbc i (tbc_payload tb.Tables.trans_by_cls);
      match tb.Tables.prefilter with
      | Some pf -> push tag_pfx i (pfx_payload pf)
      | None -> ())
    tables;
  let sections = List.rev !sections in
  let n_sections = List.length sections in
  let header_len = 20 + (24 * n_sections) in
  let dir = Buffer.create header_len in
  Buffer.add_string dir Source.artifact_magic;
  add_u32 dir version;
  add_u32 dir (List.length tables);
  add_u32 dir n_sections;
  let offset = ref header_len in
  List.iter
    (fun (tag, mfsa_index, payload) ->
      Buffer.add_string dir tag;
      add_u32 dir mfsa_index;
      add_u64 dir !offset;
      add_u32 dir (String.length payload);
      add_u32 dir (crc32 payload ~pos:0 ~len:(String.length payload));
      offset := !offset + String.length payload)
    sections;
  let out = Buffer.create !offset in
  Buffer.add_buffer out dir;
  List.iter (fun (_, _, payload) -> Buffer.add_string out payload) sections;
  Buffer.contents out

(* ----------------------------------------------------------- Reader *)

(* A bounds-checked cursor over one section's payload. Every primitive
   names the section in its [Truncated] error so corruption reports
   point somewhere useful. *)
type cursor = { s : string; limit : int; sec : string; mutable pos : int }

let cursor ~sec s pos len = { s; limit = pos + len; sec; pos }

let need cur n =
  if cur.pos + n > cur.limit then fail (Truncated cur.sec)

let u8 cur =
  need cur 1;
  let v = Char.code (String.unsafe_get cur.s cur.pos) in
  cur.pos <- cur.pos + 1;
  v

let u16 cur =
  need cur 2;
  let v = String.get_uint16_le cur.s cur.pos in
  cur.pos <- cur.pos + 2;
  v

let u32 cur =
  need cur 4;
  let v = Int32.to_int (String.get_int32_le cur.s cur.pos) land 0xFFFFFFFF in
  cur.pos <- cur.pos + 4;
  v

let u64 cur =
  need cur 8;
  let v = Int64.to_int (String.get_int64_le cur.s cur.pos) in
  cur.pos <- cur.pos + 8;
  if v < 0 then fail (Malformed (cur.sec ^ ": offset overflows"));
  v

let raw cur n =
  need cur n;
  let v = String.sub cur.s cur.pos n in
  cur.pos <- cur.pos + n;
  v

(* Array length fields are attacker-controlled until the checksum has
   passed — and the checksum only proves integrity, not honesty — so
   cap every count by what the remaining bytes could possibly hold. *)
let counted cur ~width n what =
  if n < 0 || n * width > cur.limit - cur.pos then
    fail (Malformed (Printf.sprintf "%s: %s count %d exceeds section" cur.sec
                       what n));
  n

(* Bulk u32 reads bypass the per-element cursor bookkeeping: one
   bounds check, then a tight offset loop — the AUTO/TBC vectors
   are where most of a large artifact's bytes live. *)
let u32_array cur n =
  need cur (4 * n);
  let a = Array.make (max n 1) 0 in
  let base = cur.pos in
  let s = cur.s in
  (* Unsafe byte composition, not [get_int32_le]: the latter boxes an
     [Int32] per element, which dominates bulk decoding of the large
     AUTO vectors. Bounds were established by [need] above. *)
  for i = 0 to n - 1 do
    let k = base + (4 * i) in
    Array.unsafe_set a i
      (Char.code (String.unsafe_get s k)
      lor (Char.code (String.unsafe_get s (k + 1)) lsl 8)
      lor (Char.code (String.unsafe_get s (k + 2)) lsl 16)
      lor (Char.code (String.unsafe_get s (k + 3)) lsl 24))
  done;
  cur.pos <- base + (4 * n);
  if n = 0 then [||] else a

let u16_array cur n =
  need cur (2 * n);
  let a = Array.make (max n 1) 0 in
  let base = cur.pos in
  let s = cur.s in
  for i = 0 to n - 1 do
    let k = base + (2 * i) in
    Array.unsafe_set a i
      (Char.code (String.unsafe_get s k)
      lor (Char.code (String.unsafe_get s (k + 1)) lsl 8))
  done;
  cur.pos <- base + (2 * n);
  if n = 0 then [||] else a

let int_array cur what =
  let n = counted cur ~width:4 (u32 cur) what in
  u32_array cur n

let bitset cur n_bits =
  let nbytes = (n_bits + 7) / 8 in
  need cur nbytes;
  let set = Bitset.create n_bits in
  (* Byte-wise with a zero-skip: belonging and activation sets are
     sparse, so most bytes contribute nothing. *)
  for b = 0 to nbytes - 1 do
    let byte = Char.code (String.unsafe_get cur.s (cur.pos + b)) in
    if byte <> 0 then
      for k = 0 to 7 do
        let j = (b * 8) + k in
        (* Padding bits past [n_bits] in the last byte are ignored,
           exactly as the bit-indexed reader did. *)
        if byte land (1 lsl k) <> 0 && j < n_bits then Bitset.add set j
      done
  done;
  cur.pos <- cur.pos + nbytes;
  set

let bools cur n =
  let set = bitset cur (max n 1) in
  Array.init n (fun j -> Bitset.mem set j)

(* The old knobs are untrusted bytes: range-checked, then ignored. A
   version-1 META stops before the cache size. *)
let parse_meta cur =
  let classes = u8 cur in
  let prefilter = u8 cur in
  let stride = u8 cur in
  let _reserved = u8 cur in
  if classes > 1 || prefilter > 1 || stride < 1 || stride > 2 then
    fail (Malformed "META: tuning flags out of range");
  if cur.limit - cur.pos >= 4 && u32 cur < 1 then
    fail (Malformed "META: cache_size out of range")

let parse_auto cur =
  let n_states = u32 cur in
  let n_fsas = u32 cur in
  let nt = counted cur ~width:8 (u32 cur) "transition" in
  let row = u32_array cur nt in
  let col = u32_array cur nt in
  let idx =
    Array.init nt (fun _ ->
        let n_ranges = u16 cur in
        let ranges =
          List.init n_ranges (fun _ ->
              let lo = u8 cur in
              let hi = u8 cur in
              if lo > hi then fail (Malformed "AUTO: inverted class range");
              (Char.chr lo, Char.chr hi))
        in
        Charclass.of_ranges ranges)
  in
  if n_fsas <= 0 || n_fsas > 0x100000 then
    fail (Malformed "AUTO: FSA count out of range");
  let bel = Array.init nt (fun _ -> bitset cur n_fsas) in
  let init_of = Array.init n_fsas (fun _ -> u32 cur) in
  if n_states <= 0 || n_states > (cur.limit - cur.pos) * 8 + 8 then
    fail (Malformed "AUTO: state count out of range");
  let final_sets = Array.init n_states (fun _ -> bitset cur n_fsas) in
  let anchored_start = bools cur n_fsas in
  let anchored_end = bools cur n_fsas in
  let patterns =
    Array.init n_fsas (fun _ ->
        let len = counted cur ~width:1 (u32 cur) "pattern byte" in
        raw cur len)
  in
  (* of_arrays re-validates the structural invariants (ranges, the
     init/final/belonging shapes); its message becomes the typed
     error. *)
  match
    Mfsa.of_arrays ~n_states ~n_fsas ~row ~col ~idx ~bel ~init_of ~final_sets
      ~anchored_start ~anchored_end ~patterns
  with
  | z -> z
  | exception Invalid_argument msg -> fail (Malformed msg)

let parse_cls cur (z : Mfsa.t) =
  let k = u32 cur in
  if k < 1 || k > 256 then fail (Malformed "CLS: class count out of range");
  let class_of = Bytes.of_string (raw cur 256) in
  Bytes.iter
    (fun c ->
      if Char.code c >= k then fail (Malformed "CLS: class id out of range"))
    class_of;
  let class_repr = Array.init k (fun _ -> u32 cur) in
  Array.iter
    (fun r -> if r > 255 then fail (Malformed "CLS: representative not a byte"))
    class_repr;
  let cls = { Mfsa.class_of_byte = class_of; n_classes = k; class_repr } in
  (* Seed the automaton's memo so later [Mfsa.classes] callers (e.g. a
     generation refresh recompiling an engine) skip the partition
     computation too. The identity partition is what old artifacts
     written with class compression off store; the memo must keep
     meaning "the real partition". *)
  if k <> 256 then Atomic.set z.Mfsa.classes_memo (Some cls);
  cls

let parse_tbc cur (z : Mfsa.t) k =
  let stored_k = u32 cur in
  if stored_k <> k then
    fail (Malformed "TBC: class count disagrees with CLS");
  let nt = Mfsa.n_transitions z in
  Array.init k (fun _ ->
      let row = int_array cur "transition" in
      Array.iter
        (fun t ->
          if t >= nt then
            fail (Malformed "TBC: transition index out of range"))
        row;
      row)

let parse_pfx cur =
  let ac_states = counted cur ~width:512 (u32 cur) "AC state" in
  let ac_next =
    if ac_states <= 0xFFFF then u16_array cur (ac_states * 256)
    else u32_array cur (ac_states * 256)
  in
  let ac_out_off = int_array cur "AC output offset" in
  let ac_out_ids = int_array cur "AC output id" in
  let pf_lens = int_array cur "literal length" in
  let pf_maxlen = u32 cur in
  match
    (* ~copy:false: these arrays were parsed lines above and belong to
       nobody else — adopting them spares the loader a second pass
       over the artifact's largest vector. *)
    Prefilter.import ~copy:false
      {
        Prefilter.pf_ac =
          { Aho_corasick.ac_states; ac_next; ac_out_off; ac_out_ids };
        pf_lens;
        pf_maxlen;
      }
  with
  | Ok pf -> pf
  | Error msg -> fail (Malformed msg)

(* Directory parsing, shared by the full reader and [describe]. *)
type section = { tag : string; mfsa_index : int; offset : int; length : int;
                 crc : int }

let parse_directory s =
  let len = String.length s in
  let magic_len = String.length Source.artifact_magic in
  if len < magic_len then fail Bad_magic;
  if not (Source.is_artifact_string s) then fail Bad_magic;
  if len < 20 then fail (Truncated "header");
  let hdr = cursor ~sec:"header" s magic_len (len - magic_len) in
  let v = u32 hdr in
  if v < min_version || v > version then fail (Bad_version v);
  let n_mfsas = u32 hdr in
  let n_sections = u32 hdr in
  if n_mfsas < 1 then fail (Malformed "header: no automata");
  if n_sections < 1 || 20 + (24 * n_sections) > len then
    fail (Truncated "section directory");
  let sections =
    List.init n_sections (fun _ ->
        let tag = raw hdr 4 in
        let mfsa_index = u32 hdr in
        let offset = u64 hdr in
        let length = u32 hdr in
        let crc = u32 hdr in
        if offset < 0 || length < 0 || offset + length > len then
          fail (Truncated ("section " ^ String.trim tag));
        { tag; mfsa_index; offset; length; crc })
  in
  (v, n_mfsas, sections)

let section_name sec =
  let tag =
    String.concat ""
      (List.filter_map
         (fun c -> if c = '\x00' then None else Some (String.make 1 c))
         (List.init 4 (String.get sec.tag)))
  in
  if sec.mfsa_index = global_index then tag
  else Printf.sprintf "%s[%d]" tag sec.mfsa_index


let of_string s =
  let _v, n_mfsas, sections = parse_directory s in
  List.iter
    (fun sec ->
      if crc32 s ~pos:sec.offset ~len:sec.length <> sec.crc then
        fail (Checksum ("section " ^ section_name sec)))
    sections;
  let find_global tag =
    List.find_opt (fun sec -> sec.tag = tag && sec.mfsa_index = global_index)
      sections
  in
  let find tag i =
    List.find_opt (fun sec -> sec.tag = tag && sec.mfsa_index = i) sections
  in
  let payload sec = cursor ~sec:(section_name sec) s sec.offset sec.length in
  let require tag i =
    match find tag i with
    | Some sec -> payload sec
    | None ->
        fail
          (Malformed
             (Printf.sprintf "missing section %s[%d]" (String.trim tag) i))
  in
  (match find_global tag_meta with
  | Some sec -> parse_meta (payload sec)
  | None -> fail (Malformed "missing META section"));
  List.init n_mfsas (fun i ->
      let z = parse_auto (require tag_auto i) in
      let cls = parse_cls (require tag_cls i) z in
      let trans_by_cls = parse_tbc (require tag_tbc i) z cls.Mfsa.n_classes in
      let prefilter =
        Option.map (fun sec -> parse_pfx (payload sec)) (find tag_pfx i)
      in
      {
        Tables.z;
        n_classes = cls.Mfsa.n_classes;
        class_of = cls.Mfsa.class_of_byte;
        trans_by_cls;
        prefilter;
      })

(* --------------------------------------------------------- File I/O *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> fail (Io msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try really_input_string ic (in_channel_length ic)
          with Sys_error msg -> fail (Io msg))

let load path = of_string (read_file path)

let save path tables =
  let data = to_string tables in
  match open_out_bin path with
  | exception Sys_error msg -> fail (Io msg)
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          try output_string oc data with Sys_error msg -> fail (Io msg))

(* ------------------------------------------------------ Compilation *)

(* The artifact is by definition what [Imfant.tables] derives. *)
let export mfsas =
  if mfsas = [] then invalid_arg "Artifact.export: no automata";
  List.map Imfant.tables mfsas

(* ------------------------------------------------------- Inspection *)

type section_info = {
  si_name : string;  (** e.g. ["AUTO[0]"], ["META"]. *)
  si_bytes : int;
}

type info = {
  in_version : int;
  in_bytes : int;
  in_mfsas : int;
  in_rules : int array;
  in_states : int array;
  in_classes : int array;
  in_prefiltered : bool array;
  in_sections : section_info list;
}

let describe_string s =
  let read_version, n_mfsas, sections = parse_directory s in
  (* Header metadata only: the per-automaton counts live in the first
     few fields of AUTO/CLS, so inspection reads a handful of bytes
     per section — after checking their checksums, since the counts
     come from inside the payloads. *)
  let payload sec = cursor ~sec:(section_name sec) s sec.offset sec.length in
  let checked sec =
    if crc32 s ~pos:sec.offset ~len:sec.length <> sec.crc then
      fail (Checksum ("section " ^ section_name sec));
    payload sec
  in
  let find tag i =
    List.find_opt (fun sec -> sec.tag = tag && sec.mfsa_index = i) sections
  in
  (match find tag_meta global_index with
  | Some sec -> parse_meta (checked sec)
  | None -> fail (Malformed "missing META section"));
  let rules = Array.make n_mfsas 0 in
  let states = Array.make n_mfsas 0 in
  let classes = Array.make n_mfsas 0 in
  let prefiltered = Array.make n_mfsas false in
  for i = 0 to n_mfsas - 1 do
    (match find tag_auto i with
    | None -> fail (Malformed (Printf.sprintf "missing section AUTO[%d]" i))
    | Some sec ->
        let cur = checked sec in
        states.(i) <- u32 cur;
        rules.(i) <- u32 cur);
    (match find tag_cls i with
    | None -> ()
    | Some sec -> classes.(i) <- u32 (checked sec));
    prefiltered.(i) <- find tag_pfx i <> None
  done;
  {
    in_version = read_version;
    in_bytes = String.length s;
    in_mfsas = n_mfsas;
    in_rules = rules;
    in_states = states;
    in_classes = classes;
    in_prefiltered = prefiltered;
    in_sections =
      List.map
        (fun sec -> { si_name = section_name sec; si_bytes = sec.length })
        sections;
  }

let describe path = describe_string (read_file path)

(* -------------------------------------------- Source registration *)

let () =
  Source.set_artifact_loader (function
    | `File path -> load path
    | `Bytes bytes -> of_string bytes)

(* Referencing this forces the linker to keep the module (and hence
   the loader registration above) in executables that only consume
   artifacts through [Source]. *)
let link () = ()
