module Key = Nexsort.Key
module Ordering = Nexsort.Ordering

type finding = { path : string; detail : string }

type report = {
  elements : int;
  text_nodes : int;
  digest : int64;
  findings : finding list;
}

let max_findings = 16

(* splitmix64 finalizer: the cheap 64-bit mixer used throughout the fault
   layer; good enough avalanche that a commutative sum of mixed child
   digests still distinguishes any realistic pair of documents. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Plain fold, no length finalizer: folding "ab" then "c" equals folding
   "abc", which is what makes the text digest below coalescing-proof. *)
let fold_string h s =
  let h = ref h in
  String.iter (fun c -> h := mix64 (Int64.add !h (Int64.of_int (Char.code c)))) s;
  !h

let hash_string h s = mix64 (Int64.add (fold_string h s) (Int64.of_int (String.length s)))

let header_hash name attrs =
  List.fold_left
    (fun h (k, v) -> hash_string (hash_string h k) v)
    (hash_string 0x9e3779b97f4a7c15L name)
    attrs

(* One frame per open element.  [acc] is the commutative (wrapping) sum of
   completed-child element digests, so the digest is invariant under
   sibling permutation but nothing else; [text_h] folds the parent's text
   children as one ordered concatenation — a sort moves all Null-keyed
   text to the front where adjacent nodes coalesce on re-parse, but their
   relative order (and hence the concatenation) is preserved by the
   position tiebreak; [prev] is the key of the last completed child, for
   the non-decreasing check. *)
type frame = {
  name : string;
  level : int;
  header : int64;
  mutable acc : int64;
  mutable text_h : int64;
  mutable prev : Key.t option;
  mutable start_key : Key.t option;
}

let run ?depth_limit ~ordering next =
  let eval = Ordering.Evaluator.create ordering in
  let elements = ref 0 in
  let text_nodes = ref 0 in
  let findings = ref [] in
  let n_findings = ref 0 in
  (* level-0 sentinel collecting top-level digests; never key-checked *)
  let root =
    { name = ""; level = 0; header = 0L; acc = 0L; text_h = 0L; prev = None; start_key = None }
  in
  let stack = ref [ root ] in
  let parent () = List.hd !stack in
  (* the path to the current parent; built only when a finding is
     recorded, so the scan stays O(1) per event at any depth *)
  let parent_path () =
    String.concat "/"
      (List.rev_map (fun f -> f.name) (List.filter (fun f -> f.level > 0) !stack))
  in
  let checked parent_frame =
    parent_frame.level >= 1
    && match depth_limit with None -> true | Some d -> parent_frame.level <= d
  in
  let note_key ~key parent_frame =
    if checked parent_frame then begin
      (match parent_frame.prev with
      | Some p when Key.compare p key > 0 ->
          if !n_findings < max_findings then begin
            incr n_findings;
            findings :=
              {
                path = parent_path ();
                detail =
                  Format.asprintf "key %a after %a under <%s>" Key.pp key Key.pp p
                    parent_frame.name;
              }
              :: !findings
          end
      | _ -> ());
      parent_frame.prev <- Some key
    end
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some ev ->
        (match ev with
        | Xmlio.Event.Start (name, attrs) ->
            incr elements;
            let start_key = Ordering.Evaluator.on_start eval name attrs in
            let f =
              {
                name;
                level = (parent ()).level + 1;
                header = header_hash name attrs;
                acc = 0L;
                text_h = 0x2545f4914f6cdd1dL;
                prev = None;
                start_key;
              }
            in
            stack := f :: !stack
        | Xmlio.Event.Text s ->
            incr text_nodes;
            (match !stack with
            | { level = 0; _ } :: _ -> ()
            | _ -> Ordering.Evaluator.on_text eval s);
            let p = parent () in
            p.text_h <- fold_string p.text_h s;
            note_key ~key:Key.Null p
        | Xmlio.Event.End name -> (
            match !stack with
            | ({ level = 0; _ } :: _ | []) ->
                invalid_arg (Printf.sprintf "Validator.run: stray end tag </%s>" name)
            | f :: rest ->
                if f.name <> name then
                  invalid_arg
                    (Printf.sprintf "Validator.run: </%s> closes <%s>" name f.name);
                let end_key = Ordering.Evaluator.on_end eval in
                let key =
                  match (end_key, f.start_key) with
                  | Some k, _ -> k
                  | None, Some k -> k
                  | None, None -> Key.Null
                in
                let digest = mix64 (Int64.add f.header (Int64.add f.acc (mix64 f.text_h))) in
                stack := rest;
                let p = parent () in
                p.acc <- Int64.add p.acc digest;
                note_key ~key p));
        loop ()
  in
  loop ();
  (match !stack with
  | [ { level = 0; _ } ] -> ()
  | f :: _ -> invalid_arg (Printf.sprintf "Validator.run: <%s> never closed" f.name)
  | [] -> assert false);
  {
    elements = !elements;
    text_nodes = !text_nodes;
    digest = mix64 (Int64.add 0x6a09e667f3bcc909L root.acc);
    findings = List.rev !findings;
  }

let of_string ?depth_limit ?(keep_whitespace = false) ~ordering s =
  let p = Xmlio.Parser.of_string ~keep_whitespace s in
  run ?depth_limit ~ordering (fun () -> Xmlio.Parser.next p)

let digest_of_string ?keep_whitespace s =
  (of_string ?keep_whitespace ~ordering:Ordering.document_order s).digest

let check ?depth_limit ?keep_whitespace ~ordering ~input output =
  match of_string ?depth_limit ?keep_whitespace ~ordering output with
  | exception Xmlio.Parser.Error { line; col; msg } ->
      Error (Printf.sprintf "output is malformed XML: %d:%d %s" line col msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "output is unbalanced: %s" msg)
  | rep -> (
      match rep.findings with
      | { path; detail } :: _ ->
          Error
            (Printf.sprintf "output not recursively sorted at %s: %s (%d violations)" path
               detail (List.length rep.findings))
      | [] ->
          let in_digest = digest_of_string ?keep_whitespace input in
          if Int64.equal rep.digest in_digest then Ok ()
          else
            Error
              (Printf.sprintf
                 "output is not a sibling permutation of input (digest %Lx vs %Lx)" rep.digest
                 in_digest))

(* The validator must be able to say no.  Each case is a minimal document
   with a specific defect; a validator that accepts any of them is
   untrustworthy and the fuzz driver refuses to run. *)
let self_test () =
  let ordering = Ordering.by_attr "id" in
  (* text nodes carry the Null key, so a sorted sibling list puts them
     first *)
  let sorted = {|<r id="0">t<a id="1"/><b id="2">u<c id="1"/><d id="2"/></b></r>|} in
  let missorted = {|<r id="0"><a id="2"/><b id="1"/></r>|} in
  let deep_missorted = {|<r id="0"><a id="1"/><b id="2"><d id="2"/><c id="1"/></b></r>|} in
  let dropped = {|<r id="0">t<a id="1"/><b id="2">u<c id="1"/></b></r>|} in
  let text_dropped = {|<r id="0">t<a id="1"/><b id="2"><c id="1"/><d id="2"/></b></r>|} in
  let duplicated = {|<r id="0">t<a id="1"/><a id="1"/><b id="2">u<c id="1"/><d id="2"/></b></r>|} in
  (* c hops from under b to under r; sibling keys stay non-decreasing, so
     only the digest can catch it *)
  let moved = {|<r id="0">t<a id="1"/><c id="1"/><b id="2">u<d id="2"/></b></r>|} in
  let expect_ok name input output =
    match check ~ordering ~input output with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "self-test %s: expected Ok, got %s" name e)
  in
  let expect_reject name input output =
    match check ~ordering ~input output with
    | Error _ -> Ok ()
    | Ok () -> Error (Printf.sprintf "self-test %s: defective document accepted" name)
  in
  let ( >>= ) r f = Result.bind r f in
  expect_ok "sorted" sorted sorted >>= fun () ->
  expect_reject "mis-sorted" sorted missorted >>= fun () ->
  expect_reject "deep mis-sorted" sorted deep_missorted >>= fun () ->
  expect_reject "dropped node" sorted dropped >>= fun () ->
  expect_reject "dropped text" sorted text_dropped >>= fun () ->
  expect_reject "duplicated node" sorted duplicated >>= fun () ->
  expect_reject "cross-level move" sorted moved >>= fun () ->
  (match of_string ~depth_limit:1 ~ordering deep_missorted with
  | { findings = []; _ } -> Ok ()
  | _ -> Error "self-test depth-limit: level-2 disorder flagged despite depth_limit=1")
  >>= fun () ->
  match of_string ~ordering missorted with
  | { findings = [ _ ]; elements = 3; _ } -> Ok ()
  | rep ->
      Error
        (Printf.sprintf "self-test report: expected 1 finding/3 elements, got %d/%d"
           (List.length rep.findings) rep.elements)
