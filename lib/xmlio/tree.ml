type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : Event.attr list;
  children : t list;
}

exception Malformed of string

let element ?(attrs = []) name children = Element { name; attrs; children }

let text s = Text s

let of_next next =
  (* Parse one node from the event source; the first event must be Start. *)
  let rec node = function
    | Event.Start (name, attrs) ->
        let children = children_of [] in
        Element { name; attrs; children }
    | Event.Text _ | Event.End _ -> raise (Malformed "expected a start tag")
  and children_of acc =
    match next () with
    | None -> raise (Malformed "unexpected end of events")
    | Some (Event.End _) -> List.rev acc
    | Some (Event.Text s) -> children_of (Text s :: acc)
    | Some (Event.Start _ as e) -> children_of (node e :: acc)
  in
  match next () with
  | None -> raise (Malformed "empty event stream")
  | Some e -> node e

let of_events evs =
  let rest = ref evs in
  let next () =
    match !rest with
    | [] -> None
    | e :: tl ->
        rest := tl;
        Some e
  in
  let t = of_next next in
  if !rest <> [] then raise (Malformed "trailing events after the root element");
  t

let of_parser p = of_next (fun () -> Parser.next p)

let of_string ?keep_whitespace s = of_parser (Parser.of_string ?keep_whitespace s)

let to_events t =
  let rec go acc = function
    | Text s -> Event.Text s :: acc
    | Element { name; attrs; children } ->
        let acc = Event.Start (name, attrs) :: acc in
        let acc = List.fold_left go acc children in
        Event.End name :: acc
  in
  List.rev (go [] t)

let to_string ?decl ?indent t = Writer.events_to_string ?decl ?indent (to_events t)
