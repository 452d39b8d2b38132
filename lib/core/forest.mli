(** The pure in-memory half of a subtree sort (§4.1): forest
    reconstruction from a flat list of entry views, sibling sorting, and
    sorted-pre-order serialization.

    Nodes wrap {!Entry.View.t}s, so building and sorting a forest never
    decodes names, attributes or text, and emission passes the original
    encoded payloads through byte-identical (synthesized End entries are
    the only bytes produced here).  No session, device
    or shared state is touched; {!Subtree_sort} binds them to a
    session. *)

type node = {
  view : Entry.View.t;
  mutable key : Key.t;
  mutable children : node list; (** reversed while building *)
}

val node_of_view : Entry.View.t -> node

val build_forest : Entry.View.t list -> node list
(** Rebuild the sibling forest from entry views in document order
    (complete elements: every Start has its End).  End entries resolve
    their element's key and close it. *)

val compare_siblings : node -> node -> int
(** Key order, document position as tiebreak. *)

val sort_forest : depth_limit:int option -> node list -> node list
(** Sort every sibling list, leaving levels beyond [depth_limit] in
    document order. *)

val forest_size : node list -> int

val emit_node : Extmem.Codec.Enc.t -> (string -> unit) -> node -> unit
(** Emit a node's entries in sorted pre-order, passing stored payloads
    through verbatim and synthesizing End entries (via the scratch
    encoder). *)

val forest_pull : node list -> unit -> string option
(** Pull-based pre-order walk of a sorted forest, for feeding a pipeline
    stage one entry at a time. *)

(** {2 Key-path record streams}

    The pure half of an {e external} subtree sort (§3.1): entry views in,
    encoded {!Keypath} records out, and reconstruction of sorted records
    back into entries.  Like the forest functions, these touch no session
    or shared state. *)

val forward_records :
  enc:Extmem.Codec.Enc.t ->
  depth_limit:int option ->
  (unit -> Entry.View.t option) ->
  unit ->
  string option
(** Key-path records from an entry-view stream in document order.  Keys
    must be on Start entries (scan-evaluable orderings); keys below
    [depth_limit] are suppressed so deeper levels keep document order. *)

val reverse_records :
  enc:Extmem.Codec.Enc.t ->
  depth_limit:int option ->
  (unit -> Entry.View.t option) ->
  unit ->
  string option
(** Same, for entries arriving in reverse document order (popped from the
    data stack); End entries precede their subtrees and carry the
    authoritative element keys. *)

val keypath_output :
  enc:Extmem.Codec.Enc.t ->
  (string -> unit) ->
  (string -> unit) * (unit -> unit)
(** [keypath_output ~enc emit] is the reconstruction sink for a sorted
    key-path record stream: the returned output function emits each
    record's payload verbatim, synthesizing End entries from level
    transitions; the returned finish closes the remaining open tags —
    call it once the sort has drained. *)
