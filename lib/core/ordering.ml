type criterion =
  | By_tag
  | By_attr of string
  | By_text
  | By_path of string list
  | Document_order
  | Composite of criterion list
  | Desc of criterion

type t = {
  rules : (string * criterion) list;
  default : criterion;
}

let make ?(rules = []) default = { rules; default }

let by_attr name = make (By_attr name)

let by_tag = make By_tag

let document_order = make Document_order

let criterion_for t tag =
  match List.assoc_opt tag t.rules with
  | Some c -> c
  | None -> t.default

let rec scan_evaluable = function
  | By_tag | By_attr _ | Document_order -> true
  | By_text | By_path _ -> false
  | Composite l -> List.for_all scan_evaluable l
  | Desc c -> scan_evaluable c

let all_scan_evaluable t =
  scan_evaluable t.default && List.for_all (fun (_, c) -> scan_evaluable c) t.rules

(* key of a start tag, for scan-evaluable criteria only; attribute
   values come through a lookup function so callers holding packed
   events need not build an assoc list *)
let rec key_of_start_criterion criterion name lookup =
  match criterion with
  | Document_order -> Some Key.Null
  | By_tag -> Some (Key.of_string name)
  | By_attr a ->
      Some
        (match lookup a with
        | Some v -> Key.of_string v
        | None -> Key.Null)
  | By_text | By_path _ -> None
  | Desc c -> Option.map (fun k -> Key.Rev k) (key_of_start_criterion c name lookup)
  | Composite l ->
      let parts = List.map (fun c -> key_of_start_criterion c name lookup) l in
      if List.for_all Option.is_some parts then Some (Key.Tuple (List.map Option.get parts))
      else None

let key_of_start t name attrs =
  key_of_start_criterion (criterion_for t name) name (fun a -> List.assoc_opt a attrs)

(* ---- in-memory evaluation (oracle) ---- *)

let direct_text (e : Xmlio.Tree.element) =
  let b = Buffer.create 16 in
  List.iter
    (function
      | Xmlio.Tree.Text s -> Buffer.add_string b s
      | Xmlio.Tree.Element _ -> ())
    e.Xmlio.Tree.children;
  Buffer.contents b

let rec all_text (e : Xmlio.Tree.element) =
  let b = Buffer.create 16 in
  List.iter
    (function
      | Xmlio.Tree.Text s -> Buffer.add_string b s
      | Xmlio.Tree.Element c -> Buffer.add_string b (all_text c))
    e.Xmlio.Tree.children;
  Buffer.contents b

(* the first element in document order reached by the path: every
   same-named child is tried in turn, as XPath's [string(a/b)] does *)
let rec find_path (e : Xmlio.Tree.element) = function
  | [] -> Some e
  | seg :: rest ->
      List.find_map
        (function
          | Xmlio.Tree.Element c when c.Xmlio.Tree.name = seg -> find_path c rest
          | Xmlio.Tree.Element _ | Xmlio.Tree.Text _ -> None)
        e.Xmlio.Tree.children

let rec key_of_tree_criterion criterion (e : Xmlio.Tree.element) =
  match criterion with
  | Document_order -> Key.Null
  | By_tag -> Key.of_string e.Xmlio.Tree.name
  | By_attr a -> (
      match List.assoc_opt a e.Xmlio.Tree.attrs with
      | Some v -> Key.of_string v
      | None -> Key.Null)
  | By_text -> Key.of_string (direct_text e)
  | By_path path -> (
      match find_path e path with
      | Some target -> Key.of_string (all_text target)
      | None -> Key.Null)
  | Desc c -> Key.Rev (key_of_tree_criterion c e)
  | Composite l -> Key.Tuple (List.map (fun c -> key_of_tree_criterion c e) l)

let key_of_tree t (e : Xmlio.Tree.element) = key_of_tree_criterion (criterion_for t e.Xmlio.Tree.name) e

(* ---- streaming evaluation ---- *)

module Evaluator = struct
  module Vec = Extmem.Vec

  (* one [By_path] criterion of one open element.  Depths are absolute
     (the root element is at depth 1); the slot has matched
     [d - base - 1] steps while it waits at depth [d], and captures text
     while the element at depth [base + Array.length path] is open. *)
  type path_slot = {
    path : string array;
    base : int; (* depth of the element whose key this is *)
    mutable result : Buffer.t option;
  }

  (* the state of one leaf criterion of an element whose key is pending *)
  type slot =
    | Done of Key.t
    | Text_acc of Buffer.t
    | Path_acc of path_slot

  type frame =
    | Keyed (* the key was delivered at the start tag *)
    | Pending of {
        shape : criterion;
        slots : slot array; (* leaf slots, in the pre-order of [shape] *)
      }

  type eval = {
    spec : t;
    frames : frame Vec.t; (* open elements, innermost last *)
    waiting : path_slot list Vec.t;
        (* [waiting.(d)]: unfinished path slots whose next step can only
           match an element opened at depth [d] *)
    capturing : path_slot Vec.t; (* slots whose target is open, innermost target last *)
  }

  let create spec =
    { spec; frames = Vec.create (); waiting = Vec.create (); capturing = Vec.create () }

  let waiting_at e d = if d < Vec.length e.waiting then Vec.get e.waiting d else []

  (* [w] has matched the steps down to depth [d - 1]: capture when that
     completes its path, else wait for the next step at depth [d] *)
  let place e w d =
    if d - w.base - 1 = Array.length w.path then begin
      w.result <- Some (Buffer.create 16);
      Vec.push e.capturing w
    end
    else begin
      while Vec.length e.waiting <= d do
        Vec.push e.waiting []
      done;
      Vec.set e.waiting d (w :: Vec.get e.waiting d)
    end

  (* allocate the leaf slots of a pending criterion, in pre-order *)
  let slots_of e depth criterion name lookup =
    let acc = ref [] in
    let rec go = function
      | (By_tag | By_attr _ | Document_order) as c ->
          acc := Done (Option.get (key_of_start_criterion c name lookup)) :: !acc
      | By_text -> acc := Text_acc (Buffer.create 16) :: !acc
      | By_path path ->
          let w = { path = Array.of_list path; base = depth; result = None } in
          place e w (depth + 1);
          acc := Path_acc w :: !acc
      | Desc c -> go c
      | Composite l -> List.iter go l
    in
    go criterion;
    Array.of_list (List.rev !acc)

  (* assemble the final key from the filled slots *)
  let assemble shape slots =
    let idx = ref 0 in
    let next_slot () =
      let s = slots.(!idx) in
      incr idx;
      s
    in
    let rec go = function
      | By_tag | By_attr _ | Document_order -> (
          match next_slot () with
          | Done k -> k
          | Text_acc _ | Path_acc _ -> assert false)
      | By_text -> (
          match next_slot () with
          | Text_acc b -> Key.of_string (Buffer.contents b)
          | Done _ | Path_acc _ -> assert false)
      | By_path _ -> (
          match next_slot () with
          | Path_acc { result = Some b; _ } -> Key.of_string (Buffer.contents b)
          | Path_acc { result = None; _ } -> Key.Null
          | Done _ | Text_acc _ -> assert false)
      | Desc c -> Key.Rev (go c)
      | Composite l -> Key.Tuple (List.map go l)
    in
    go shape

  let on_start_lookup e name lookup =
    let depth = Vec.length e.frames + 1 in
    (* advance the slots waiting for a step at this depth *)
    (match waiting_at e depth with
    | [] -> ()
    | ws ->
        Vec.set e.waiting depth [];
        List.iter
          (fun w -> place e w (if w.path.(depth - w.base - 1) = name then depth + 1 else depth))
          ws);
    let shape = criterion_for e.spec name in
    match key_of_start_criterion shape name lookup with
    | Some _ as key ->
        Vec.push e.frames Keyed;
        key
    | None ->
        Vec.push e.frames (Pending { shape; slots = slots_of e depth shape name lookup });
        None

  let on_start e name attrs = on_start_lookup e name (fun a -> List.assoc_opt a attrs)

  let on_text e s =
    (* direct text feeds the innermost frame's text accumulators *)
    (if not (Vec.is_empty e.frames) then
       match Vec.top e.frames with
       | Keyed -> ()
       | Pending { slots; _ } ->
           for i = 0 to Array.length slots - 1 do
             match slots.(i) with
             | Text_acc b -> Buffer.add_string b s
             | Done _ | Path_acc _ -> ()
           done);
    (* every capturing slot receives all text below its target *)
    for i = 0 to Vec.length e.capturing - 1 do
      match (Vec.get e.capturing i).result with
      | Some b -> Buffer.add_string b s
      | None -> ()
    done

  let on_end e =
    let depth = Vec.length e.frames in
    if depth = 0 then invalid_arg "Ordering.Evaluator.on_end: no open element";
    let frame = Vec.pop e.frames in
    (* captures whose target is the closing element end here *)
    while
      (not (Vec.is_empty e.capturing))
      && (let w = Vec.top e.capturing in
          w.base + Array.length w.path = depth)
    do
      ignore (Vec.pop e.capturing)
    done;
    (* slots that matched a step through the closing element fall back to
       waiting at its depth; the closing element's own slots are dropped *)
    (match waiting_at e (depth + 1) with
    | [] -> ()
    | ws ->
        Vec.set e.waiting (depth + 1) [];
        List.iter (fun w -> if w.base < depth then place e w depth) ws);
    match frame with
    | Keyed -> None
    | Pending { shape; slots } -> Some (assemble shape slots)
end

let rec pp_criterion ppf = function
  | By_tag -> Format.pp_print_string ppf "tag"
  | By_attr a -> Format.fprintf ppf "@%s" a
  | By_text -> Format.pp_print_string ppf "text"
  | By_path p -> Format.pp_print_string ppf (String.concat "/" p)
  | Document_order -> Format.pp_print_string ppf "doc"
  | Desc c -> Format.fprintf ppf "-%a" pp_criterion c
  | Composite l ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";") pp_criterion)
        l

let rec parse_criterion s =
  if s = "" then invalid_arg "Ordering.of_spec_string: empty criterion";
  if s.[0] = '-' then Desc (parse_criterion (String.sub s 1 (String.length s - 1)))
  else if s.[0] = '(' then begin
    if s.[String.length s - 1] <> ')' then
      invalid_arg "Ordering.of_spec_string: unbalanced parentheses";
    let inner = String.sub s 1 (String.length s - 2) in
    let parts = String.split_on_char ';' inner in
    Composite (List.map parse_criterion parts)
  end
  else if s = "tag" then By_tag
  else if s = "doc" then Document_order
  else if s = "text" then By_text
  else if s.[0] = '@' then By_attr (String.sub s 1 (String.length s - 1))
  else By_path (String.split_on_char '/' s)

let of_spec_string spec =
  let parts = String.split_on_char ',' spec in
  let rules, defaults =
    List.partition_map
      (fun part ->
        match String.index_opt part '=' with
        | Some i ->
            let tag = String.sub part 0 i in
            let c = parse_criterion (String.sub part (i + 1) (String.length part - i - 1)) in
            if tag = "" then invalid_arg "Ordering.of_spec_string: empty tag";
            Left (tag, c)
        | None -> Right (parse_criterion part))
      (List.filter (fun p -> p <> "") parts)
  in
  let default =
    match defaults with
    | [] -> By_tag
    | [ d ] -> d
    | _ -> invalid_arg "Ordering.of_spec_string: multiple default criteria"
  in
  make ~rules default
