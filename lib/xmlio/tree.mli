(** In-memory document trees (the DOM-style representation).

    Used by the internal-memory recursive sort baseline, by the subtree
    sorter for subtrees that fit in memory, and by tests as the reference
    model.  Construction from and flattening to event streams are inverse
    up to whitespace handling. *)

type t =
  | Element of element
  | Text of string

and element = {
  name : string;
  attrs : Event.attr list;
  children : t list;
}

val element : ?attrs:Event.attr list -> string -> t list -> t
(** Convenience constructor. *)

val text : string -> t

exception Malformed of string
(** Raised by the [of_*] constructors on unbalanced event streams. *)

val of_events : Event.t list -> t
(** Build the tree of the single root element of the stream. *)

val of_parser : Parser.t -> t
(** Drain a parser into a tree.  @raise Parser.Error on malformed XML. *)

val of_string : ?keep_whitespace:bool -> string -> t

val to_events : t -> Event.t list

val to_string : ?decl:bool -> ?indent:bool -> t -> string
