type t =
  | Start of {
      level : int;
      pos : int;
      name : string;
      attrs : Xmlio.Event.attr list;
      key : Key.t option;
    }
  | End of { level : int; pos : int; key : Key.t option }
  | Text of { level : int; pos : int; content : string }
  | Run_ptr of {
      level : int;
      pos : int;
      key : Key.t;
      run : Extmem.Run_store.id;
      bytes : int;
    }

let level = function
  | Start { level; _ } | End { level; _ } | Text { level; _ } | Run_ptr { level; _ } -> level

let pos = function
  | Start { pos; _ } | End { pos; _ } | Text { pos; _ } | Run_ptr { pos; _ } -> pos

let sibling_key = function
  | Start { key; _ } -> Option.value key ~default:Key.Null
  | Run_ptr { key; _ } -> key
  | Text _ | End _ -> Key.Null

let tag_start = 0
let tag_end = 1
let tag_text = 2
let tag_run_ptr = 3

let put_name dict e name = Extmem.Codec.Enc.add_varint e (Xmlio.Dict.intern dict name)
let get_name dict c = Xmlio.Dict.lookup dict (Extmem.Codec.get_varint c)

let encode_to dict b e =
  Extmem.Codec.Enc.clear b;
  (match e with
  | Start { level; pos; name; attrs; key } ->
      Extmem.Codec.Enc.add_u8 b tag_start;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      put_name dict b name;
      Key.encode_opt_enc b key;
      Extmem.Codec.Enc.add_varint b (List.length attrs);
      List.iter
        (fun (k, v) ->
          put_name dict b k;
          Extmem.Codec.Enc.add_string b v)
        attrs
  | End { level; pos; key } ->
      Extmem.Codec.Enc.add_u8 b tag_end;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      Key.encode_opt_enc b key
  | Text { level; pos; content } ->
      Extmem.Codec.Enc.add_u8 b tag_text;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      Extmem.Codec.Enc.add_string b content
  | Run_ptr { level; pos; key; run; bytes } ->
      Extmem.Codec.Enc.add_u8 b tag_run_ptr;
      Extmem.Codec.Enc.add_varint b level;
      Extmem.Codec.Enc.add_varint b pos;
      Key.encode_enc b key;
      Extmem.Codec.Enc.add_varint b run;
      Extmem.Codec.Enc.add_varint b bytes);
  Extmem.Codec.Enc.contents b

let encode dict e = encode_to dict (Extmem.Codec.Enc.create ~capacity:64 ()) e

(* Encode a Start entry straight from a parser-packed event: no [t] record,
   no attr assoc list, and when the parser shares the session dict the
   name ids are already resolved (no dictionary probe here). *)
let encode_start_of_packed dict b ~level ~pos ~key (pk : Xmlio.Event.packed) =
  Extmem.Codec.Enc.clear b;
  Extmem.Codec.Enc.add_u8 b tag_start;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  let put_packed_name name id =
    Extmem.Codec.Enc.add_varint b (if id >= 0 then id else Xmlio.Dict.intern dict name)
  in
  put_packed_name pk.Xmlio.Event.pname pk.Xmlio.Event.pname_id;
  Key.encode_opt_enc b key;
  let n = pk.Xmlio.Event.pnattrs in
  Extmem.Codec.Enc.add_varint b n;
  for i = 0 to n - 1 do
    put_packed_name pk.Xmlio.Event.pattr_names.(i) pk.Xmlio.Event.pattr_ids.(i);
    Extmem.Codec.Enc.add_string b pk.Xmlio.Event.pattr_values.(i)
  done;
  Extmem.Codec.Enc.contents b

let encode_text_to b ~level ~pos content =
  Extmem.Codec.Enc.clear b;
  Extmem.Codec.Enc.add_u8 b tag_text;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  Extmem.Codec.Enc.add_string b content;
  Extmem.Codec.Enc.contents b

let encode_end_to b ~level ~pos ~key =
  Extmem.Codec.Enc.clear b;
  Extmem.Codec.Enc.add_u8 b tag_end;
  Extmem.Codec.Enc.add_varint b level;
  Extmem.Codec.Enc.add_varint b pos;
  Key.encode_opt_enc b key;
  Extmem.Codec.Enc.contents b

let decode dict s =
  let c = Extmem.Codec.cursor s in
  let tag = Extmem.Codec.get_u8 c in
  let level = Extmem.Codec.get_varint c in
  let pos = Extmem.Codec.get_varint c in
  if tag = tag_start then begin
    let name = get_name dict c in
    let key = Key.decode_opt c in
    let nattrs = Extmem.Codec.get_varint c in
    (* explicit loop: the order of decoding side effects matters *)
    let rec read_attrs n acc =
      if n = 0 then List.rev acc
      else begin
        let k = get_name dict c in
        let v = Extmem.Codec.get_string c in
        read_attrs (n - 1) ((k, v) :: acc)
      end
    in
    let attrs = read_attrs nattrs [] in
    Start { level; pos; name; attrs; key }
  end
  else if tag = tag_end then End { level; pos; key = Key.decode_opt c }
  else if tag = tag_text then Text { level; pos; content = Extmem.Codec.get_string c }
  else if tag = tag_run_ptr then begin
    let key = Key.decode c in
    let run = Extmem.Codec.get_varint c in
    let bytes = Extmem.Codec.get_varint c in
    Run_ptr { level; pos; key; run; bytes }
  end
  else raise (Extmem.Codec.Corrupt (Printf.sprintf "Entry.decode: bad tag %d" tag))

module View = struct
  type kind =
    | Vstart
    | Vend
    | Vtext
    | Vrun_ptr

  type t = {
    payload : string;
    kind : kind;
    level : int;
    pos : int;
    body : int;
  }

  let of_payload payload =
    let c = Extmem.Codec.cursor payload in
    let tag = Extmem.Codec.get_u8 c in
    let level = Extmem.Codec.get_varint c in
    let pos = Extmem.Codec.get_varint c in
    let kind =
      if tag = tag_start then Vstart
      else if tag = tag_end then Vend
      else if tag = tag_text then Vtext
      else if tag = tag_run_ptr then Vrun_ptr
      else raise (Extmem.Codec.Corrupt (Printf.sprintf "Entry.View: bad tag %d" tag))
    in
    { payload; kind; level; pos; body = c.Extmem.Codec.pos }

  let payload v = v.payload
  let kind v = v.kind
  let level v = v.level
  let pos v = v.pos

  (* Field reads below re-cursor into the payload on demand: nothing past
     [body] is touched (or allocated) unless a consumer asks for it. *)

  let start_key v =
    let c = Extmem.Codec.cursor ~pos:v.body v.payload in
    Extmem.Codec.skip_varint c;
    Key.decode_opt c

  let end_key v = Key.decode_opt (Extmem.Codec.cursor ~pos:v.body v.payload)

  let sibling_key v =
    match v.kind with
    | Vstart -> ( match start_key v with Some k -> k | None -> Key.Null)
    | Vrun_ptr -> Key.decode (Extmem.Codec.cursor ~pos:v.body v.payload)
    | Vtext | Vend -> Key.Null

  let run_ptr v =
    let c = Extmem.Codec.cursor ~pos:v.body v.payload in
    let key = Key.decode c in
    let run = Extmem.Codec.get_varint c in
    let bytes = Extmem.Codec.get_varint c in
    (key, run, bytes)

  let to_entry dict v = decode dict v.payload
end

let pp ppf = function
  | Start { level; pos; name; attrs; key } ->
      Format.fprintf ppf "Start(l%d p%d <%s%s> key=%s)" level pos name
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs))
        (match key with Some k -> Key.to_string k | None -> "-")
  | End { level; pos; key } ->
      Format.fprintf ppf "End(l%d p%d key=%s)" level pos
        (match key with Some k -> Key.to_string k | None -> "-")
  | Text { level; pos; content } -> Format.fprintf ppf "Text(l%d p%d %S)" level pos content
  | Run_ptr { level; pos; key; run; bytes } ->
      Format.fprintf ppf "Run_ptr(l%d p%d key=%s run=%d %dB)" level pos (Key.to_string key) run
        bytes
