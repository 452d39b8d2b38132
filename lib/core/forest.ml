(* The in-memory side of a subtree sort: rebuild the sibling forest from
   a flat list of entry views, sort siblings by key (position as
   tiebreak), and stream the result back out in sorted pre-order.

   Nodes hold views, not decoded entries: names, attributes and text are
   never materialized, and emission re-uses the original encoded payloads
   verbatim (only synthesized End entries are encoded here, and they
   carry no names).  Everything is pure given its arguments — no session,
   no devices, no shared state.  The session-flavoured wrappers live in
   [Subtree_sort]. *)

type node = {
  view : Entry.View.t;
  mutable key : Key.t;
  mutable children : node list; (* reversed while building *)
}

(* ---- forest building ---- *)

let node_of_view v =
  let key = Entry.View.sibling_key v in
  { view = v; key; children = [] }

let build_forest views =
  let roots = ref [] in
  let open_stack = ref [] in (* innermost first *)
  let attach n =
    match !open_stack with
    | [] -> roots := n :: !roots
    | parent :: _ -> parent.children <- n :: parent.children
  in
  let close () =
    match !open_stack with
    | [] -> ()
    | top :: rest ->
        top.children <- List.rev top.children;
        open_stack := rest
  in
  List.iter
    (fun v ->
      match Entry.View.kind v with
      | Entry.View.Vend ->
          (match (!open_stack, Entry.View.end_key v) with
          | top :: _, Some k -> top.key <- k
          | _ -> ());
          close ()
      | Entry.View.Vstart ->
          let n = node_of_view v in
          attach n;
          open_stack := n :: !open_stack
      | Entry.View.Vtext | Entry.View.Vrun_ptr -> attach (node_of_view v))
    views;
  List.rev !roots

(* ---- sorting ---- *)

let compare_siblings a b =
  let c = Key.compare a.key b.key in
  if c <> 0 then c else compare (Entry.View.pos a.view) (Entry.View.pos b.view)

let rec sort_forest ~depth_limit nodes =
  match nodes with
  | [] -> []
  | first :: _ ->
      let level = Entry.View.level first.view in
      let sort_here =
        match depth_limit with
        | None -> true
        | Some d -> level <= d + 1
      in
      if not sort_here then nodes
      else begin
        let nodes = List.sort compare_siblings nodes in
        List.iter (fun n -> n.children <- sort_forest ~depth_limit n.children) nodes;
        nodes
      end

let forest_size nodes =
  let rec count acc n = List.fold_left count (acc + 1) n.children in
  List.fold_left count 0 nodes

(* ---- serialization ---- *)

(* Emit a node's entries in sorted pre-order to an arbitrary sink of
   encoded entries (a run writer, or the fused output phase).  The stored
   payloads pass through byte-identical; [scratch] is only used to encode
   synthesized End entries. *)
let rec emit_node scratch emit n =
  emit (Entry.View.payload n.view);
  match Entry.View.kind n.view with
  | Entry.View.Vstart ->
      List.iter (emit_node scratch emit) n.children;
      emit
        (Entry.encode_end_to scratch ~level:(Entry.View.level n.view)
           ~pos:(Entry.View.pos n.view) ~key:None)
  | Entry.View.Vtext | Entry.View.Vrun_ptr -> ()
  | Entry.View.Vend -> assert false (* nodes are never built from End entries *)

(* ---- key-path record streams (external subtree sorts, §3.1) ----

   Like the forest half above, these are pure given their arguments —
   entry views in, encoded key-path records out.  The session-flavoured
   wrappers stay in [Subtree_sort]. *)

(* The component an entry contributes to key paths: its resolved key and
   position, with the key suppressed below the depth limit so deeper
   levels keep document order. *)
let keypath_component ~depth_limit key v =
  let key =
    match depth_limit with
    | Some d when Entry.View.level v > d + 1 -> Key.Null
    | Some _ | None -> key
  in
  { Keypath.key; pos = Entry.View.pos v }

(* Pull-stream of encoded key-path records from an entry-view stream in
   document order.  Keys must be on Start entries (scan-evaluable).  The
   view's payload rides along verbatim as the record payload. *)
let forward_records ~enc ~depth_limit input =
  let stack = ref [] in (* (level, component), innermost first *)
  let pop_to level =
    let rec go () =
      match !stack with
      | (l, _) :: rest when l >= level ->
          stack := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  let path_of own = List.rev_map snd !stack @ [ own ] in
  let rec next () =
    match input () with
    | None -> None
    | Some v -> (
        match Entry.View.kind v with
        | Entry.View.Vend ->
            pop_to (Entry.View.level v);
            next ()
        | kind ->
            let level = Entry.View.level v in
            pop_to level;
            let own = keypath_component ~depth_limit (Entry.View.sibling_key v) v in
            let record =
              Keypath.encode_record ~enc (path_of own) ~payload:(Entry.View.payload v)
            in
            (match kind with
            | Entry.View.Vstart -> stack := (level, own) :: !stack
            | Entry.View.Vtext | Entry.View.Vrun_ptr | Entry.View.Vend -> ());
            Some record)
  in
  next

(* Same, for entries arriving in reverse document order (popped from the
   data stack).  End entries precede their subtrees here and carry the
   element keys. *)
let reverse_records ~enc ~depth_limit input =
  let stack = ref [] in (* components, innermost first *)
  let rec next () =
    match input () with
    | None -> None
    | Some v -> (
        match Entry.View.kind v with
        | Entry.View.Vend ->
            let k = Option.value (Entry.View.end_key v) ~default:Key.Null in
            stack := keypath_component ~depth_limit k v :: !stack;
            next ()
        | Entry.View.Vstart -> (
            (* own component is the stack top, pushed by the element's
               End (which carries the authoritative key) *)
            match !stack with
            | _ :: rest as path ->
                let record =
                  Keypath.encode_record ~enc (List.rev path) ~payload:(Entry.View.payload v)
                in
                stack := rest;
                Some record
            | [] -> assert false (* in reverse order every End precedes its Start *))
        | Entry.View.Vtext | Entry.View.Vrun_ptr ->
            let own = keypath_component ~depth_limit (Entry.View.sibling_key v) v in
            let record =
              Keypath.encode_record ~enc
                (List.rev !stack @ [ own ])
                ~payload:(Entry.View.payload v)
            in
            Some record)
  in
  next

(* Reconstruction behind a sorted key-path record stream: emit payloads
   verbatim, synthesizing End entries from level transitions (the
   open-tag stack is O(height) internal state).  [finish] closes the
   remaining open tags — call it after the sort has drained. *)
let keypath_output ~enc emit =
  let opens = ref [] in (* (level, pos) of open Start entries *)
  let rec close_down_to level =
    match !opens with
    | (l, pos) :: rest when l >= level ->
        emit (Entry.encode_end_to enc ~level:l ~pos ~key:None);
        opens := rest;
        close_down_to level
    | _ -> ()
  in
  let output record =
    let payload = Keypath.decode_payload record in
    let v = Entry.View.of_payload payload in
    close_down_to (Entry.View.level v);
    emit payload;
    match Entry.View.kind v with
    | Entry.View.Vstart -> opens := (Entry.View.level v, Entry.View.pos v) :: !opens
    | Entry.View.Vtext | Entry.View.Vrun_ptr | Entry.View.Vend -> ()
  in
  (output, fun () -> close_down_to 0)

(* Pull-based pre-order walk of a sorted forest: an explicit work list
   replaces emit_node's recursion so the sorted entries can feed a
   pipeline stage one at a time. *)
let forest_pull forest =
  let scratch = Extmem.Codec.Enc.create ~capacity:32 () in
  let work = ref (List.map (fun n -> `Node n) forest) in
  fun () ->
    match !work with
    | [] -> None
    | `End (level, pos) :: rest ->
        work := rest;
        Some (Entry.encode_end_to scratch ~level ~pos ~key:None)
    | `Node n :: rest ->
        let rest =
          match Entry.View.kind n.view with
          | Entry.View.Vstart ->
              let level = Entry.View.level n.view and pos = Entry.View.pos n.view in
              List.map (fun c -> `Node c) n.children @ (`End (level, pos) :: rest)
          | Entry.View.Vtext | Entry.View.Vrun_ptr -> rest
          | Entry.View.Vend -> assert false (* nodes are never built from End entries *)
        in
        work := rest;
        Some (Entry.View.payload n.view)
