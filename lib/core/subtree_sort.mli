(** Sorting one complete subtree into a sorted run (Figure 4, line 11).

    Depending on the subtree's size, NEXSORT sorts it with the
    internal-memory recursive algorithm (build the tree, reorder child
    lists, serialize) or — when it exceeds the arena — with a key-path
    external merge sort that streams the subtree's entries into
    {!Keypath} records, sorts them with {!Extsort.External_sort}, and
    reconstructs the run from the sorted record stream.

    Entries arrive and travel as {!Entry.View.t}s over their original
    encoded payloads: the sorts read levels, positions and keys off the
    encoded bytes and re-emit the payloads verbatim — names, attributes
    and text are never decoded, and nothing is re-encoded (synthesized
    End entries excepted).

    The module also implements the incomplete sorted runs of the
    graceful-degeneration extension (§3.2): a {e fragment} is a sorted
    run holding a sorted subsequence of one element's children, each
    child chunk preceded by a small header carrying its (key, pos), so
    fragments can later be merged by key into the element's complete
    run.

    All functions honour the session's depth limit: the child list of an
    element at level L is sorted only when L <= d (root = level 1). *)

type node = Forest.node = {
  view : Entry.View.t;      (** [Vstart], [Vtext] or [Vrun_ptr] — never [Vend] *)
  mutable key : Key.t;      (** resolved sibling key *)
  mutable children : node list;
}

val build_forest : Entry.View.t list -> node list
(** Rebuild the forest structure of an entry sequence (document order,
    complete elements).  [End] entries close elements and contribute
    their keys. *)

val sort_forest : depth_limit:int option -> node list -> node list
(** Recursively order sibling lists by [(key, pos)], down to the depth
    limit.  The input forest is a sibling list; its nodes' levels decide
    whether it is itself sorted. *)

val forest_size : node list -> int
(** Total node count (for reporting). *)

val sort_in_memory : Session.t -> Entry.View.t list -> Extmem.Run_store.id
(** Internal-memory recursive sort of a complete subtree (first entry =
    its root's [Start]); writes and registers the sorted run. *)

val sort_in_memory_to : Session.t -> Entry.View.t list -> (string -> unit) -> unit
(** Like {!sort_in_memory} but streaming the encoded entries to an
    arbitrary sink instead of a run. *)

val sort_in_memory_source : Session.t -> Entry.View.t list -> unit -> string option
(** Pull-stream variant for pipeline fusion: sorts eagerly (the forest
    is in memory anyway), then yields the encoded entries of the sorted
    pre-order walk one at a time. *)

val sort_external :
  Session.t ->
  input:(unit -> Entry.View.t option) ->
  scan:[ `Forward | `Reverse ] ->
  Extmem.Run_store.id * Extsort.External_sort.stats
(** Key-path external merge sort of a subtree too large for memory.
    [`Forward] consumes entries in document order (keys must be on
    [Start] entries — scan-evaluable orderings); [`Reverse] consumes
    them top-of-stack first as popped from the data stack (keys taken
    from [End] entries, which always precede their subtrees in reverse
    order).  Writes and registers the complete sorted run. *)

val sort_external_to :
  Session.t ->
  input:(unit -> Entry.View.t option) ->
  scan:[ `Forward | `Reverse ] ->
  (string -> unit) ->
  Extsort.External_sort.stats
(** Sink-streaming variant of {!sort_external}. *)

type streamed = {
  pull : unit -> string option;
      (** encoded sorted entries; exhausting the stream releases the
          final merge's memory and retires the scratch device *)
  close : unit -> unit;  (** idempotent early release *)
  stats : Extsort.External_sort.stats;
}

val sort_external_source :
  Session.t ->
  input:(unit -> Entry.View.t option) ->
  scan:[ `Forward | `Reverse ] ->
  streamed
(** Pull-stream variant of {!sort_external_to} for pipeline fusion: run
    formation and all intermediate merge passes run here (consuming
    [input]); the final merge — with End-entry reconstruction fused on
    top — is exposed as the returned pull, so the sorted entries stream
    straight into their consumer without a materialised output run.
    Reclaims borrowed stack blocks first ({!Session.reclaim}); the final
    merge's fan-in stays reserved until the stream ends or [close]. *)

val write_fragment : Session.t -> node list -> Extmem.Run_store.id
(** Write a sorted forest (children of one open element) as an
    incomplete sorted run with per-chunk headers. *)

val merge_fragments :
  Session.t ->
  start_view:Entry.View.t ->
  fragments:Extmem.Run_store.id list ->
  Extmem.Run_store.id
(** Merge an element's fragment runs (in creation order) into its
    complete sorted run, wrapped in the element's start and end
    entries.  Merges multi-pass when the fragment count
    exceeds the memory fan-in. *)

val merge_fragments_to :
  Session.t ->
  start_view:Entry.View.t ->
  fragments:Extmem.Run_store.id list ->
  (string -> unit) ->
  unit
(** Sink-streaming variant of {!merge_fragments}. *)

val merge_fragments_source :
  Session.t ->
  start_view:Entry.View.t ->
  fragments:Extmem.Run_store.id list ->
  (unit -> string option) * (unit -> unit)
(** Pull-stream variant for pipeline fusion: reduces the fragments to
    the memory fan-in (intermediate passes reserve their buffers from
    the budget, clamped to the 2-way floor), reserves the final fan-in,
    and returns [(pull, close)] over the wrapped merged element.  The
    reservation is released at stream end or [close] (idempotent). *)
