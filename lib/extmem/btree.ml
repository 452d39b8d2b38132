(* Page layout (one block per node):
     meta page (block [meta_block]): magic u8, root varint, count varint,
       next_free varint (allocation frontier within the tree's region)
     leaf:     u8 0, next_leaf+1 varint (0 = none), n varint,
               n * (key string, value string)
     internal: u8 1, n varint, child_0 varint, n * (key_i, child_i+1)
   All node references are device block indices. *)

type node =
  | Leaf of {
      mutable next : int option;
      mutable entries : (string * string) list; (* ascending *)
    }
  | Internal of {
      mutable children : int list;  (* n+1 children *)
      mutable seps : string list;   (* n separators; subtree i holds keys < seps.(i) *)
    }

type t = {
  dev : Device.t;
  pager : Pager.t;
  cmp : string -> string -> int;
  meta_block : int;
  mutable root : int;
  mutable count : int;
}

let magic = 0xB7

let max_entry t = Device.block_size t.dev / 4

(* ---- node (de)serialization ---- *)

let encode_node node =
  let b = Buffer.create 256 in
  (match node with
  | Leaf l ->
      Codec.put_u8 b 0;
      Codec.put_varint b (match l.next with Some n -> n + 1 | None -> 0);
      Codec.put_varint b (List.length l.entries);
      List.iter
        (fun (k, v) ->
          Codec.put_string b k;
          Codec.put_string b v)
        l.entries
  | Internal i ->
      Codec.put_u8 b 1;
      Codec.put_varint b (List.length i.seps);
      (match i.children with
      | first :: _ -> Codec.put_varint b first
      | [] -> invalid_arg "Btree: internal node without children");
      List.iter2
        (fun sep child ->
          Codec.put_string b sep;
          Codec.put_varint b child)
        i.seps (List.tl i.children));
  Buffer.contents b

let decode_node s =
  let c = Codec.cursor s in
  match Codec.get_u8 c with
  | 0 ->
      let next = Codec.get_varint c in
      let n = Codec.get_varint c in
      let rec entries n acc =
        if n = 0 then List.rev acc
        else begin
          let k = Codec.get_string c in
          let v = Codec.get_string c in
          entries (n - 1) ((k, v) :: acc)
        end
      in
      Leaf { next = (if next = 0 then None else Some (next - 1)); entries = entries n [] }
  | 1 ->
      let n = Codec.get_varint c in
      let first = Codec.get_varint c in
      let rec rest n seps children =
        if n = 0 then (List.rev seps, List.rev children)
        else begin
          let sep = Codec.get_string c in
          let child = Codec.get_varint c in
          rest (n - 1) (sep :: seps) (child :: children)
        end
      in
      let seps, children = rest n [] [] in
      Internal { children = first :: children; seps }
  | k -> raise (Codec.Corrupt (Printf.sprintf "Btree: bad node kind %d" k))

let load t block = decode_node (Pager.read_page t.pager block)

let store t block node = Pager.write_page t.pager block (encode_node node)

let node_fits t node = String.length (encode_node node) <= Device.block_size t.dev

(* ---- meta page ---- *)

let write_meta t =
  let b = Buffer.create 16 in
  Codec.put_u8 b magic;
  Codec.put_varint b t.root;
  Codec.put_varint b t.count;
  Pager.write_page t.pager t.meta_block (Buffer.contents b)

let alloc_block t =
  let block = Device.allocate t.dev 1 in
  block

let create ?(frames = 8) ~cmp dev =
  let pager = Pager.create ~frames dev in
  let meta_block = Device.allocate dev 1 in
  let t = { dev; pager; cmp; meta_block; root = 0; count = 0 } in
  let root = alloc_block t in
  t.root <- root;
  store t root (Leaf { next = None; entries = [] });
  write_meta t;
  t

let reopen ?(frames = 8) ~cmp dev =
  let pager = Pager.create ~frames dev in
  let t = { dev; pager; cmp; meta_block = 0; root = 0; count = 0 } in
  let c = Codec.cursor (Pager.read_page pager 0) in
  if Codec.get_u8 c <> magic then raise (Codec.Corrupt "Btree.reopen: bad magic");
  t.root <- Codec.get_varint c;
  t.count <- Codec.get_varint c;
  t

let length t = t.count

let flush t =
  write_meta t;
  Pager.flush t.pager

let pager t = t.pager

(* ---- search ---- *)

(* index of the child subtree of an internal node that may hold [key]:
   child i covers keys < seps.(i) (and the last child the rest) *)
let child_for t seps key =
  let rec go i = function
    | [] -> i
    | sep :: rest -> if t.cmp key sep < 0 then i else go (i + 1) rest
  in
  go 0 seps

let rec find_in t block key =
  match load t block with
  | Leaf l -> List.find_map (fun (k, v) -> if t.cmp k key = 0 then Some v else None) l.entries
  | Internal i -> find_in t (List.nth i.children (child_for t i.seps key)) key

let find t key = find_in t t.root key

let mem t key = find t key <> None

(* ---- insertion ---- *)

type split_result =
  | Ok_no_split
  | Split of string * int (* separator, new right sibling block *)

let split_leaf t block (l : (string * string) list) next =
  let n = List.length l in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let left, right = take (n / 2) [] l in
  match right with
  | [] -> invalid_arg "Btree: entry too large to split"
  | (sep, _) :: _ ->
      let right_block = alloc_block t in
      store t right_block (Leaf { next; entries = right });
      store t block (Leaf { next = Some right_block; entries = left });
      Split (sep, right_block)

let split_internal t block children seps =
  let n = List.length seps in
  let mid = n / 2 in
  let rec split_at i seps children lsep lchild =
    match (seps, children) with
    | sep :: seps', child :: children' when i < mid ->
        split_at (i + 1) seps' children' (sep :: lsep) (child :: lchild)
    | sep :: seps', child :: children' ->
        (* sep is promoted; its right child becomes the right node's first *)
        (List.rev lsep, List.rev lchild, sep, seps', child :: children')
    | _ -> invalid_arg "Btree: malformed internal split"
  in
  match children with
  | first :: rest ->
      let lseps, lchildren, promoted, rseps, rchildren = split_at 0 seps rest [] [ first ] in
      let right_block = alloc_block t in
      store t right_block (Internal { children = rchildren; seps = rseps });
      store t block (Internal { children = lchildren; seps = lseps });
      Split (promoted, right_block)
  | [] -> invalid_arg "Btree: internal node without children"

let rec insert_in t block key value =
  match load t block with
  | Leaf l ->
      let rec place = function
        | [] -> [ (key, value) ]
        | (k, _) :: rest when t.cmp k key = 0 ->
            t.count <- t.count - 1; (* replacement: net count unchanged *)
            (key, value) :: rest
        | (k, v) :: rest when t.cmp k key < 0 -> (k, v) :: place rest
        | rest -> (key, value) :: rest
      in
      let entries = place l.entries in
      t.count <- t.count + 1;
      let node = Leaf { next = l.next; entries } in
      if node_fits t node then begin
        store t block node;
        Ok_no_split
      end
      else split_leaf t block entries l.next
  | Internal i -> (
      let idx = child_for t i.seps key in
      let child = List.nth i.children idx in
      match insert_in t child key value with
      | Ok_no_split -> Ok_no_split
      | Split (sep, right) ->
          let children = List.filteri (fun j _ -> j <= idx) i.children
                         @ [ right ]
                         @ List.filteri (fun j _ -> j > idx) i.children in
          let seps = List.filteri (fun j _ -> j < idx) i.seps
                     @ [ sep ]
                     @ List.filteri (fun j _ -> j >= idx) i.seps in
          let node = Internal { children; seps } in
          if node_fits t node then begin
            store t block node;
            Ok_no_split
          end
          else split_internal t block children seps)

let insert t ~key ~value =
  if String.length key + String.length value > max_entry t then
    invalid_arg "Btree.insert: entry exceeds a quarter block";
  (match insert_in t t.root key value with
  | Ok_no_split -> ()
  | Split (sep, right) ->
      let new_root = alloc_block t in
      store t new_root (Internal { children = [ t.root; right ]; seps = [ sep ] });
      t.root <- new_root);
  write_meta t

(* ---- deletion (leaf-local, no rebalancing) ---- *)

let rec delete_in t block key =
  match load t block with
  | Leaf l ->
      let found = ref false in
      let entries =
        List.filter
          (fun (k, _) ->
            if t.cmp k key = 0 then begin
              found := true;
              false
            end
            else true)
          l.entries
      in
      if !found then begin
        store t block (Leaf { next = l.next; entries });
        t.count <- t.count - 1
      end;
      !found
  | Internal i -> delete_in t (List.nth i.children (child_for t i.seps key)) key

let delete t key =
  let r = delete_in t t.root key in
  if r then write_meta t;
  r

(* ---- iteration ---- *)

let rec leftmost_leaf_for t block key =
  match load t block with
  | Leaf _ -> block
  | Internal i -> leftmost_leaf_for t (List.nth i.children (child_for t i.seps key)) key

let iter_from t key f =
  let rec walk block skip_lower =
    match load t block with
    | Internal _ -> assert false
    | Leaf l ->
        let continue =
          List.for_all
            (fun (k, v) -> if skip_lower && t.cmp k key < 0 then true else f k v)
            l.entries
        in
        if continue then
          match l.next with
          | Some next -> walk next false
          | None -> ()
  in
  walk (leftmost_leaf_for t t.root key) true

let iter t f =
  (* start from the globally leftmost leaf *)
  let rec leftmost block =
    match load t block with
    | Leaf _ -> block
    | Internal i -> leftmost (List.hd i.children)
  in
  let rec walk block =
    match load t block with
    | Internal _ -> assert false
    | Leaf l ->
        List.iter (fun (k, v) -> f k v) l.entries;
        (match l.next with
        | Some next -> walk next
        | None -> ())
  in
  walk (leftmost t.root)

let height t =
  let rec go block acc =
    match load t block with
    | Leaf _ -> acc
    | Internal i -> go (List.hd i.children) (acc + 1)
  in
  go t.root 1
