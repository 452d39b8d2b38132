(* Shape measures and an Alcotest printer for in-memory trees, shared by
   the test executables. *)

let testable =
  Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Xmlio.Tree.to_string t)) ( = )

let rec element_count = function
  | Xmlio.Tree.Text _ -> 0
  | Xmlio.Tree.Element { children; _ } ->
      List.fold_left (fun acc c -> acc + element_count c) 1 children

let rec height = function
  | Xmlio.Tree.Text _ -> 0
  | Xmlio.Tree.Element { children; _ } ->
      1 + List.fold_left (fun acc c -> max acc (height c)) 0 children

let rec max_fanout = function
  | Xmlio.Tree.Text _ -> 0
  | Xmlio.Tree.Element { children; _ } ->
      List.fold_left (fun acc c -> max acc (max_fanout c)) (List.length children) children
