module Key = Nexsort.Key
module Ordering = Nexsort.Ordering

exception Not_sorted of string

type behaviour =
  | Merge
  | Take_right
  | Drop

type report = {
  left_events : int;
  right_events : int;
  output_events : int;
  matched_elements : int;
  spans : Obs.Span.t;
}

(* One-token-lookahead stream with sortedness checking. *)
type stream = {
  next_fn : unit -> Xmlio.Event.t option;
  mutable ahead : Xmlio.Event.t option option;
  mutable consumed : int;
}

let stream next_fn = { next_fn; ahead = None; consumed = 0 }

let peek s =
  match s.ahead with
  | Some e -> e
  | None ->
      let e = s.next_fn () in
      s.ahead <- Some e;
      e

let advance s =
  let e = peek s in
  s.ahead <- None;
  (match e with Some _ -> s.consumed <- s.consumed + 1 | None -> ());
  e

let key_of_start ordering name attrs =
  match Ordering.key_of_start ordering name attrs with
  | Some k -> k
  | None -> invalid_arg "Struct_merge: ordering must be scan-evaluable"

(* Sorted documents order equal-key siblings by document position, which
   is not comparable across documents.  The merge therefore decides by key
   alone: equal keys with equal tags match; equal keys with different tags
   take the left side first (full matching under duplicate keys would need
   buffering — the paper assumes keys unique among siblings). *)
let compare_child (ka, na) (kb, nb) =
  let c = Key.compare ka kb in
  if c <> 0 then c else if String.equal na nb then 0 else -1

(* sortedness is checked on keys only, matching the (key, position) order
   the sorter produces *)
let check_key_order prev cur = Key.compare (fst prev) (fst cur) <= 0

let copy_subtree s emit =
  (* s is positioned at a Start; copy events until its matching End *)
  let rec go depth =
    match advance s with
    | None -> raise (Not_sorted "unexpected end of stream while copying a subtree")
    | Some (Xmlio.Event.Start _ as e) ->
        emit e;
        go (depth + 1)
    | Some (Xmlio.Event.End _ as e) ->
        emit e;
        if depth > 1 then go (depth - 1)
    | Some (Xmlio.Event.Text _ as e) ->
        emit e;
        go depth
  in
  go 0

let skip_subtree s =
  let rec go depth =
    match advance s with
    | None -> raise (Not_sorted "unexpected end of stream while skipping a subtree")
    | Some (Xmlio.Event.Start _) -> go (depth + 1)
    | Some (Xmlio.Event.End _) -> if depth > 1 then go (depth - 1)
    | Some (Xmlio.Event.Text _) -> go depth
  in
  go 0

let union_attrs left right =
  left @ List.filter (fun (k, _) -> not (List.mem_assoc k left)) right

let merge_events ?(on_match = fun ~left_attrs:_ ~right_attrs:_ -> Merge)
    ?(rewrite_attrs = fun attrs -> attrs) ?io ?tracer ~ordering ~left ~right ~emit () =
  if not (Ordering.all_scan_evaluable ordering) then
    invalid_arg "Struct_merge: ordering must be scan-evaluable";
  let spans = Obs.Spans.create ?io ?tracer "struct_merge" in
  let l = stream left and r = stream right in
  let output_events = ref 0 in
  let matched = ref 0 in
  let emit e =
    incr output_events;
    emit e
  in
  (* gather the run of leading text children from a stream *)
  let rec texts s acc =
    match peek s with
    | Some (Xmlio.Event.Text t) ->
        ignore (advance s);
        texts s (t :: acc)
    | Some _ | None -> List.rev acc
  in
  let check_sorted side prev cur =
    if not (check_key_order prev cur) then
      raise
        (Not_sorted
           (Printf.sprintf "%s input: children out of order (%s after %s)" side (snd cur)
              (snd prev)))
  in
  (* both streams positioned at matching Start events *)
  let rec merge_matched () =
    match (advance l, advance r) with
    | Some (Xmlio.Event.Start (n1, a1)), Some (Xmlio.Event.Start (n2, a2)) ->
        if n1 <> n2 then
          invalid_arg (Printf.sprintf "Struct_merge: mismatched roots <%s> vs <%s>" n1 n2);
        incr matched;
        emit (Xmlio.Event.Start (n1, rewrite_attrs (union_attrs a1 a2)));
        (* text children sort first: resolve them up front *)
        let t1 = texts l [] and t2 = texts r [] in
        if t1 = t2 then List.iter (fun t -> emit (Xmlio.Event.Text t)) t1
        else begin
          List.iter (fun t -> emit (Xmlio.Event.Text t)) t1;
          List.iter (fun t -> emit (Xmlio.Event.Text t)) t2
        end;
        merge_children None None;
        emit (Xmlio.Event.End n1)
    | _ -> invalid_arg "Struct_merge: inputs must each contain a root element"
  (* merge the remaining element children of the currently open pair;
     [prev_l]/[prev_r] are the last seen (key, tag) for sortedness checks *)
  and merge_children prev_l prev_r =
    let head s =
      match peek s with
      | Some (Xmlio.Event.Start (n, a)) -> `Elem (key_of_start ordering n a, n, a)
      | Some (Xmlio.Event.End _) -> `Done
      | Some (Xmlio.Event.Text _) ->
          (* sorted inputs put all text first; trailing text would be
             unsorted *)
          raise (Not_sorted "text child after element children")
      | None -> raise (Not_sorted "unexpected end of stream inside an element")
    in
    match (head l, head r) with
    | `Done, `Done ->
        ignore (advance l);
        ignore (advance r)
    | `Elem (k, n, _), `Done ->
        Option.iter (fun p -> check_sorted "left" p (k, n)) prev_l;
        copy_rest "left" l prev_l;
        ignore (advance r)
    | `Done, `Elem (k, n, _) ->
        Option.iter (fun p -> check_sorted "right" p (k, n)) prev_r;
        copy_rest "right" r prev_r;
        ignore (advance l)
    | `Elem (k1, n1, _), `Elem (k2, n2, a2) ->
        Option.iter (fun p -> check_sorted "left" p (k1, n1)) prev_l;
        Option.iter (fun p -> check_sorted "right" p (k2, n2)) prev_r;
        let c = compare_child (k1, n1) (k2, n2) in
        if c < 0 then begin
          copy_subtree l emit;
          merge_children (Some (k1, n1)) prev_r
        end
        else if c > 0 then begin
          copy_subtree_rewritten r;
          merge_children prev_l (Some (k2, n2))
        end
        else begin
          (match on_match ~left_attrs:(match peek l with
             | Some (Xmlio.Event.Start (_, a)) -> a
             | _ -> assert false) ~right_attrs:a2 with
          | Merge -> merge_matched ()
          | Take_right ->
              skip_subtree l;
              copy_subtree_rewritten r
          | Drop ->
              skip_subtree l;
              skip_subtree r);
          merge_children (Some (k1, n1)) (Some (k2, n2))
        end
  (* copy all remaining children of the open element on one stream,
     consuming its End; keeps checking sibling order *)
  and copy_rest side s prev =
    let rec go prev =
      match peek s with
      | Some (Xmlio.Event.Start (n, a)) ->
          let mark = (key_of_start ordering n a, n) in
          Option.iter (fun p -> check_sorted side p mark) prev;
          if s == r then copy_subtree_rewritten s else copy_subtree s emit;
          go (Some mark)
      | Some (Xmlio.Event.End _) -> ignore (advance s)
      | Some (Xmlio.Event.Text _) -> raise (Not_sorted "text child after element children")
      | None -> raise (Not_sorted "unexpected end of stream inside an element")
    in
    go prev
  (* right-side subtrees go through rewrite_attrs on their start tags *)
  and copy_subtree_rewritten s =
    let rec go depth =
      match advance s with
      | None -> raise (Not_sorted "unexpected end of stream while copying a subtree")
      | Some (Xmlio.Event.Start (n, a)) ->
          emit (Xmlio.Event.Start (n, rewrite_attrs a));
          go (depth + 1)
      | Some (Xmlio.Event.End _ as e) ->
          emit e;
          if depth > 1 then go (depth - 1)
      | Some (Xmlio.Event.Text _ as e) ->
          emit e;
          go depth
    in
    go 0
  in
  Obs.Spans.with_span spans "merge" (fun () ->
      merge_matched ();
      match (peek l, peek r) with
      | None, None -> ()
      | _ -> raise (Not_sorted "trailing events after the root element"));
  {
    left_events = l.consumed;
    right_events = r.consumed;
    output_events = !output_events;
    matched_elements = !matched;
    spans = Obs.Spans.close spans;
  }

let merge_strings ~ordering left right =
  let pl = Xmlio.Parser.of_string left and pr = Xmlio.Parser.of_string right in
  let buf = Buffer.create (String.length left + String.length right) in
  let writer = Xmlio.Writer.to_buffer buf in
  let report =
    merge_events ~ordering
      ~left:(fun () -> Xmlio.Parser.next pl)
      ~right:(fun () -> Xmlio.Parser.next pr)
      ~emit:(Xmlio.Writer.event writer) ()
  in
  Xmlio.Writer.close writer;
  (Buffer.contents buf, report)

let merge_devices ~ordering ~left ~right ~output () =
  let pl = Xmlio.Parser.of_reader (Extmem.Block_reader.of_device left) in
  let pr = Xmlio.Parser.of_reader (Extmem.Block_reader.of_device right) in
  let bw = Extmem.Block_writer.create output in
  let writer = Xmlio.Writer.to_block_writer bw in
  let io () =
    Extmem.Io_stats.add
      (Extmem.Io_stats.add
         (Extmem.Io_stats.snapshot (Extmem.Device.stats left))
         (Extmem.Io_stats.snapshot (Extmem.Device.stats right)))
      (Extmem.Io_stats.snapshot (Extmem.Device.stats output))
  in
  let report =
    merge_events ~io ~ordering
      ~left:(fun () -> Xmlio.Parser.next pl)
      ~right:(fun () -> Xmlio.Parser.next pr)
      ~emit:(Xmlio.Writer.event writer) ()
  in
  Xmlio.Writer.close writer;
  let extent = Extmem.Block_writer.close bw in
  Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
  report

(* Fused sort+merge: both inputs are opened as sorted event streams
   (each drives its own NEXSORT session — the root's final merge runs
   lazily as the merge pulls), so neither sorted document is ever
   materialised. *)
let merge_sorted_streams ?io ?sessions ~ordering ~config ~left ~right ~emit () =
  let sess_l, sess_r =
    match sessions with Some (a, b) -> (Some a, Some b) | None -> (None, None)
  in
  let sl = Nexsort.open_stream ~config ?session:sess_l ~ordering ~input:left () in
  let sr =
    try Nexsort.open_stream ~config ?session:sess_r ~ordering ~input:right ()
    with e ->
      ignore (Nexsort.stream_finish sl);
      raise e
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Nexsort.stream_finish sl);
      ignore (Nexsort.stream_finish sr))
    (fun () ->
      merge_events ?io ~tracer:config.Nexsort.Config.tracer ~ordering
        ~left:(fun () -> Nexsort.stream_events sl)
        ~right:(fun () -> Nexsort.stream_events sr)
        ~emit ())

let sort_and_merge_devices ?(config = Nexsort.Config.make ()) ?sessions ~ordering ~left ~right
    ~output () =
  let bw = Extmem.Block_writer.create output in
  let writer = Xmlio.Writer.to_block_writer bw in
  let io () =
    Extmem.Io_stats.add
      (Extmem.Io_stats.add
         (Extmem.Io_stats.snapshot (Extmem.Device.stats left))
         (Extmem.Io_stats.snapshot (Extmem.Device.stats right)))
      (Extmem.Io_stats.snapshot (Extmem.Device.stats output))
  in
  let report =
    merge_sorted_streams ~io ?sessions ~ordering ~config ~left ~right
      ~emit:(Xmlio.Writer.event writer) ()
  in
  Xmlio.Writer.close writer;
  let extent = Extmem.Block_writer.close bw in
  Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
  report

let sort_and_merge_strings ?config ?sessions ~ordering left right =
  let config = Option.value config ~default:(Nexsort.Config.make ()) in
  let load name s =
    let d = Nexsort.Config.scratch_device config ~name in
    Extmem.Device.load_string d s;
    d
  in
  let left = load "left" left and right = load "right" right in
  let buf = Buffer.create 1024 in
  let writer = Xmlio.Writer.to_buffer buf in
  let report =
    merge_sorted_streams ?sessions ~ordering ~config ~left ~right
      ~emit:(Xmlio.Writer.event writer) ()
  in
  Xmlio.Writer.close writer;
  (Buffer.contents buf, report)
