exception Error of { line : int; col : int; msg : string }

type t = {
  source : unit -> char option;
  dict : Dict.t option;               (* when set, names are interned as read *)
  mutable ahead : char option option; (* one-char lookahead; None = empty *)
  mutable line : int;
  mutable col : int;
  mutable stack : string list;        (* open elements, innermost first *)
  packed : Event.packed;              (* the one event scratch, filled in place *)
  (* Deferred work for the next [produce]: at most one of these is set.
     Tag parses are deferred (not buffered) when a text run precedes the
     tag, so the scratch can carry the text out first. *)
  mutable pending_start_tag : bool;   (* '<' + name-start consumed the peek *)
  mutable pending_end_tag : bool;     (* "</" consumed *)
  mutable pending_end : string option; (* queued End (empty-element tags) *)
  mutable peeked : Event.t option option;
  mutable root_seen : bool;
  mutable finished : bool;
  keep_ws : bool;
  buf : Buffer.t;                     (* text accumulator *)
  buf2 : Buffer.t;                    (* entity references *)
  abuf : Buffer.t;                    (* attribute values *)
  mutable nbuf : Bytes.t;             (* name scratch *)
  mutable nlen : int;
}

let fail p fmt =
  Printf.ksprintf (fun msg -> raise (Error { line = p.line; col = p.col; msg })) fmt

(* XML 1.0 §2.11 end-of-line handling: a literal CRLF pair or lone CR in
   the input is passed to the application as a single LF.  This runs
   below entity expansion, so a [&#13;] character reference still yields
   a literal CR. *)
let normalize_newlines source =
  let after_cr = ref false in
  let rec next () =
    match source () with
    | Some '\n' when !after_cr ->
        after_cr := false;
        next ()
    | Some '\r' ->
        after_cr := true;
        Some '\n'
    | c ->
        after_cr := false;
        c
  in
  next

let of_fn ?dict ?(keep_whitespace = false) source =
  let source = normalize_newlines source in
  {
    source;
    dict;
    ahead = None;
    line = 1;
    col = 1;
    stack = [];
    packed = Event.packed_create ();
    pending_start_tag = false;
    pending_end_tag = false;
    pending_end = None;
    peeked = None;
    root_seen = false;
    finished = false;
    keep_ws = keep_whitespace;
    buf = Buffer.create 256;
    buf2 = Buffer.create 64;
    abuf = Buffer.create 64;
    nbuf = Bytes.create 64;
    nlen = 0;
  }

let of_string ?dict ?keep_whitespace s =
  let pos = ref 0 in
  let read () =
    if !pos >= String.length s then None
    else begin
      let c = s.[!pos] in
      incr pos;
      Some c
    end
  in
  of_fn ?dict ?keep_whitespace read

let of_reader ?dict ?keep_whitespace r =
  of_fn ?dict ?keep_whitespace (fun () -> Extmem.Block_reader.read_char r)

let line p = p.line

let col p = p.col

let depth p = List.length p.stack

(* ---- character level ---- *)

let peek_char p =
  match p.ahead with
  | Some c -> c
  | None ->
      let c = p.source () in
      p.ahead <- Some c;
      c

let read_char p =
  let c = peek_char p in
  p.ahead <- None;
  (match c with
  | Some '\n' ->
      p.line <- p.line + 1;
      p.col <- 1
  | Some _ -> p.col <- p.col + 1
  | None -> ());
  c

let expect_char p want =
  match read_char p with
  | Some c when c = want -> ()
  | Some c -> fail p "expected %C, found %C" want c
  | None -> fail p "expected %C, found end of input" want

let expect_string p s = String.iter (expect_char p) s

let is_ws = function
  | ' ' | '\t' | '\n' | '\r' -> true
  | _ -> false

let skip_ws p =
  let rec go () =
    match peek_char p with
    | Some c when is_ws c ->
        ignore (read_char p);
        go ()
    | Some _ | None -> ()
  in
  go ()

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c
  ||
  match c with
  | '0' .. '9' | '-' | '.' -> true
  | _ -> false

(* Read a name into [p.nbuf]/[p.nlen] without materializing a string. *)
let read_name_raw p =
  p.nlen <- 0;
  let add c =
    if p.nlen >= Bytes.length p.nbuf then begin
      let b = Bytes.create (Bytes.length p.nbuf * 2) in
      Bytes.blit p.nbuf 0 b 0 p.nlen;
      p.nbuf <- b
    end;
    Bytes.unsafe_set p.nbuf p.nlen c;
    p.nlen <- p.nlen + 1
  in
  (match read_char p with
  | Some c when is_name_start c -> add c
  | Some c -> fail p "invalid name start character %C" c
  | None -> fail p "name expected, found end of input");
  let rec go () =
    match peek_char p with
    | Some c when is_name_char c ->
        ignore (read_char p);
        add c;
        go ()
    | Some _ | None -> ()
  in
  go ()

let name_string p = Bytes.sub_string p.nbuf 0 p.nlen

(* The name just read, as [(canonical_string, dict_id)].  With a dict the
   canonical copy is shared and nothing is allocated for known names;
   without one a fresh string is built and the id is [-1]. *)
let resolve_name p =
  match p.dict with
  | Some d ->
      let id, s = Dict.intern_bytes d p.nbuf 0 p.nlen in
      (s, id)
  | None -> (name_string p, -1)

let name_equals p s =
  String.length s = p.nlen
  &&
  let rec go i =
    i = p.nlen || (Char.equal (String.unsafe_get s i) (Bytes.unsafe_get p.nbuf i) && go (i + 1))
  in
  go 0

(* entity reference after the '&' has been consumed *)
let read_entity p =
  Buffer.clear p.buf2;
  let rec go n =
    if n > 12 then fail p "entity reference too long";
    match read_char p with
    | Some ';' -> ()
    | Some c ->
        Buffer.add_char p.buf2 c;
        go (n + 1)
    | None -> fail p "unterminated entity reference"
  in
  go 0;
  let name = Buffer.contents p.buf2 in
  try Escape.decode_entity name with Escape.Bad_entity _ -> fail p "unknown entity &%s;" name

(* ---- markup constructs ---- *)

let read_comment p =
  (* after "<!--" *)
  let rec go dashes =
    match read_char p with
    | None -> fail p "unterminated comment"
    | Some '-' -> go (dashes + 1)
    | Some '>' when dashes >= 2 -> ()
    | Some _ -> go 0
  in
  go 0

let read_pi p =
  (* after "<?" *)
  let rec go saw_q =
    match read_char p with
    | None -> fail p "unterminated processing instruction"
    | Some '?' -> go true
    | Some '>' when saw_q -> ()
    | Some _ -> go false
  in
  go false

let read_doctype p =
  (* after "<!DOCTYPE"; the internal subset (between brackets) is skipped *)
  let rec go bracket_depth =
    match read_char p with
    | None -> fail p "unterminated DOCTYPE"
    | Some '[' -> go (bracket_depth + 1)
    | Some ']' -> go (bracket_depth - 1)
    | Some '>' when bracket_depth = 0 -> ()
    | Some _ -> go bracket_depth
  in
  go 0

let read_cdata p =
  (* after "<![CDATA[", contents appended to p.buf *)
  let rec go brackets =
    match read_char p with
    | None -> fail p "unterminated CDATA section"
    | Some ']' -> go (brackets + 1)
    | Some '>' when brackets >= 2 ->
        (* the two brackets were the terminator; drop any extras beyond 2 *)
        for _ = 1 to brackets - 2 do
          Buffer.add_char p.buf ']'
        done
    | Some c ->
        for _ = 1 to brackets do
          Buffer.add_char p.buf ']'
        done;
        Buffer.add_char p.buf c;
        go 0
  in
  go 0

let read_attr_value p =
  let quote =
    match read_char p with
    | Some (('"' | '\'') as q) -> q
    | Some c -> fail p "attribute value must be quoted, found %C" c
    | None -> fail p "attribute value expected, found end of input"
  in
  let b = p.abuf in
  Buffer.clear b;
  let rec go () =
    match read_char p with
    | None -> fail p "unterminated attribute value"
    | Some c when c = quote -> ()
    | Some '<' -> fail p "'<' not allowed in attribute value"
    | Some '&' ->
        Buffer.add_string b (read_entity p);
        go ()
    | Some ('\t' | '\n') ->
        (* attribute-value normalization (§3.3.3): literal whitespace
           becomes a space; only character references survive verbatim *)
        Buffer.add_char b ' ';
        go ()
    | Some c ->
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

(* after '<', name start pending: fill [p.packed] with the start tag.
   Returns [true] when the tag was an empty-element tag. *)
let read_start_tag p =
  read_name_raw p;
  let name, id = resolve_name p in
  let pk = p.packed in
  pk.Event.pkind <- Event.Pstart;
  pk.Event.pname <- name;
  pk.Event.pname_id <- id;
  pk.Event.pnattrs <- 0;
  let rec attrs () =
    skip_ws p;
    match peek_char p with
    | Some '>' ->
        ignore (read_char p);
        false
    | Some '/' ->
        ignore (read_char p);
        expect_char p '>';
        true
    | Some c when is_name_start c ->
        read_name_raw p;
        let k, kid = resolve_name p in
        skip_ws p;
        expect_char p '=';
        skip_ws p;
        let v = read_attr_value p in
        let n = pk.Event.pnattrs in
        for i = 0 to n - 1 do
          if String.equal pk.Event.pattr_names.(i) k then fail p "duplicate attribute %s" k
        done;
        if n >= Array.length pk.Event.pattr_names then Event.packed_grow_attrs pk;
        pk.Event.pattr_names.(n) <- k;
        pk.Event.pattr_ids.(n) <- kid;
        pk.Event.pattr_values.(n) <- v;
        pk.Event.pnattrs <- n + 1;
        attrs ()
    | Some c -> fail p "unexpected %C in start tag" c
    | None -> fail p "unterminated start tag"
  in
  attrs ()

(* ---- event level ---- *)

let push_element p name = p.stack <- name :: p.stack

(* after "</": read the end tag, match it against the innermost open
   element and fill [p.packed].  The name is compared against (and shared
   with) the stack top, so no string is built on the happy path. *)
let end_element p =
  read_name_raw p;
  skip_ws p;
  expect_char p '>';
  let name =
    match p.stack with
    | top :: rest when name_equals p top ->
        p.stack <- rest;
        if rest = [] then p.finished <- true;
        top
    | top :: _ -> fail p "mismatched end tag </%s>, expected </%s>" (name_string p) top
    | [] -> fail p "end tag </%s> without open element" (name_string p)
  in
  let pk = p.packed in
  pk.Event.pkind <- Event.Pend;
  pk.Event.pname <- name;
  pk.Event.pname_id <- -1

let set_text p txt =
  let pk = p.packed in
  pk.Event.pkind <- Event.Ptext;
  pk.Event.ptext <- txt

let set_end p name =
  let pk = p.packed in
  pk.Event.pkind <- Event.Pend;
  pk.Event.pname <- name;
  pk.Event.pname_id <- -1

let all_ws s = String.for_all is_ws s

(* Produce the next event into [p.packed]; false at end of input. *)
let rec produce p =
  match p.pending_end with
  | Some name ->
      p.pending_end <- None;
      set_end p name;
      true
  | None ->
      if p.pending_start_tag then begin
        p.pending_start_tag <- false;
        start_element p
      end
      else if p.pending_end_tag then begin
        p.pending_end_tag <- false;
        end_element p;
        true
      end
      else if p.stack = [] then produce_misc p
      else produce_content p

and produce_misc p =
  (* outside the root element: only whitespace, comments, PIs, DOCTYPE *)
  skip_ws p;
  match peek_char p with
  | None ->
      if not p.root_seen then fail p "document has no root element";
      false
  | Some '<' -> (
      ignore (read_char p);
      match peek_char p with
      | Some '!' -> (
          ignore (read_char p);
          match peek_char p with
          | Some '-' ->
              expect_string p "--";
              read_comment p;
              produce_misc p
          | Some 'D' ->
              expect_string p "DOCTYPE";
              if p.root_seen then fail p "DOCTYPE after root element";
              read_doctype p;
              produce_misc p
          | Some c -> fail p "unexpected markup <!%C outside root" c
          | None -> fail p "truncated markup")
      | Some '?' ->
          ignore (read_char p);
          read_pi p;
          produce_misc p
      | Some '/' -> fail p "end tag outside any element"
      | Some c when is_name_start c ->
          if p.finished then fail p "multiple root elements"
          else begin
            p.root_seen <- true;
            start_element p
          end
      | Some c -> fail p "unexpected %C after '<'" c
      | None -> fail p "truncated markup at end of input")
  | Some c -> fail p "character data %C outside root element" c

and start_element p =
  let empty = read_start_tag p in
  let name = p.packed.Event.pname in
  if empty then begin
    p.pending_end <- Some name;
    if p.stack = [] then p.finished <- true
  end
  else push_element p name;
  true

and produce_content p =
  Buffer.clear p.buf;
  let rec text () =
    match peek_char p with
    | None -> fail p "unclosed element <%s>" (List.hd p.stack)
    | Some '<' -> (
        ignore (read_char p);
        match peek_char p with
        | Some '!' -> (
            ignore (read_char p);
            match peek_char p with
            | Some '-' ->
                expect_string p "--";
                flush_or_comment p text
            | Some '[' ->
                expect_string p "[CDATA[";
                read_cdata p;
                text ()
            | Some c -> fail p "unexpected markup <!%C" c
            | None -> fail p "truncated markup")
        | Some '?' ->
            ignore (read_char p);
            flush_or_pi p text
        | Some '/' ->
            ignore (read_char p);
            `End_tag
        | Some c when is_name_start c -> `Start_tag
        | Some c -> fail p "unexpected %C after '<'" c
        | None -> fail p "truncated markup at end of input")
    | Some '&' ->
        ignore (read_char p);
        Buffer.add_string p.buf (read_entity p);
        text ()
    | Some c ->
        ignore (read_char p);
        Buffer.add_char p.buf c;
        text ()
  in
  let kind = text () in
  let txt = Buffer.contents p.buf in
  let emit_text = txt <> "" && (p.keep_ws || not (all_ws txt)) in
  (* When a text run precedes the tag, emit the text now and defer the tag
     parse to the next [produce] — the scratch holds one event at a time. *)
  match kind with
  | `Start_tag ->
      if emit_text then begin
        p.pending_start_tag <- true;
        set_text p txt;
        true
      end
      else start_element p
  | `End_tag ->
      if emit_text then begin
        p.pending_end_tag <- true;
        set_text p txt;
        true
      end
      else begin
        end_element p;
        true
      end

(* Comments and PIs inside content do not break the surrounding text run:
   skip them and continue accumulating. *)
and flush_or_comment p k =
  read_comment p;
  k ()

and flush_or_pi p k =
  read_pi p;
  k ()

let next_packed p =
  match p.peeked with
  | Some (Some e) ->
      p.peeked <- None;
      Event.pack_into p.packed e;
      Some p.packed
  | Some None ->
      p.peeked <- None;
      None
  | None -> if produce p then Some p.packed else None

let next p =
  match p.peeked with
  | Some e ->
      p.peeked <- None;
      e
  | None -> if produce p then Some (Event.of_packed p.packed) else None

let peek p =
  match p.peeked with
  | Some e -> e
  | None ->
      let e = if produce p then Some (Event.of_packed p.packed) else None in
      p.peeked <- Some e;
      e

let to_list p =
  let rec go acc =
    match next p with
    | Some e -> go (e :: acc)
    | None -> List.rev acc
  in
  go []
