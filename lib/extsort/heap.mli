(** Binary min-heaps with a caller-supplied strict order.

    Shared by the k-way merge (tournament over run heads) and NEXSORT's
    fragment merge (over chunk headers). *)

type 'a t

val create : less:('a -> 'a -> bool) -> 'a t
(** [less a b] must be a strict weak order ("a before b"). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the minimum.  @raise Invalid_argument when empty. *)

val peek : 'a t -> 'a
(** The minimum without removing it.  @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
