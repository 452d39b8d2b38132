(** Structural merge of sorted XML documents (Example 1.1).

    The XML analogue of a sort-merge outer join, and the paper's main
    motivation for sorting: once both documents are fully sorted under the
    same ordering, they merge in a {e single pass}.  Two elements match
    when they have the same tag name, equal sort keys, and matching
    ancestors; matched elements are merged recursively (attributes
    unioned, left first on conflicts), unmatched elements are copied —
    an outer join.

    Requirements, checked at entry: the ordering is scan-evaluable (keys
    must be known at start tags for streaming), and both inputs are fully
    sorted under it (violations raise {!Not_sorted} as soon as they are
    observed).  Sort keys should be unique among siblings for meaningful
    matching, as in the paper.

    Text children: a matched pair contributes the left element's text
    children, followed by the right's when they differ (no silent data
    loss; equal text is emitted once). *)

exception Not_sorted of string
(** An input stream violated the sorted-children invariant. *)

type behaviour =
  | Merge      (** recursively merge the matched pair (default) *)
  | Take_right (** replace: emit the right subtree, drop the left *)
  | Drop       (** delete: emit neither subtree *)

type report = {
  left_events : int;
  right_events : int;
  output_events : int;
  matched_elements : int;
  spans : Obs.Span.t;
      (** the ["merge"] phase span under ["struct_merge"]: wall time, and
          I/O delta when an [io] meter was supplied *)
}

val merge_events :
  ?on_match:(left_attrs:Xmlio.Event.attr list -> right_attrs:Xmlio.Event.attr list -> behaviour) ->
  ?rewrite_attrs:(Xmlio.Event.attr list -> Xmlio.Event.attr list) ->
  ?io:(unit -> Extmem.Io_stats.t) ->
  ?tracer:Obs.Tracer.t ->
  ordering:Nexsort.Ordering.t ->
  left:(unit -> Xmlio.Event.t option) ->
  right:(unit -> Xmlio.Event.t option) ->
  emit:(Xmlio.Event.t -> unit) ->
  unit ->
  report
(** Merge two sorted event streams.  [on_match] decides what to do with a
    matched element pair (default: always [Merge]); [rewrite_attrs]
    post-processes attribute lists on emitted start tags (used by
    {!Batch_update} to strip operation markers); [io] is an optional
    cumulative I/O meter sampled around the merge for the report's span
    (supplied by {!merge_devices}); [tracer] mirrors the merge spans
    onto an event-trace timeline (fused paths pass the config's tracer).
    @raise Not_sorted / [Invalid_argument] as described above. *)

val merge_strings :
  ordering:Nexsort.Ordering.t -> string -> string -> string * report
(** Parse, merge, serialize.  Inputs must already be sorted. *)

val merge_devices :
  ordering:Nexsort.Ordering.t ->
  left:Extmem.Device.t ->
  right:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  report
(** Single-pass merge of device-resident sorted documents: I/O cost is
    one read pass over each input plus one write pass of the output. *)

val sort_and_merge_strings :
  ?config:Nexsort.Config.t ->
  ?sessions:Nexsort.Session.t * Nexsort.Session.t ->
  ordering:Nexsort.Ordering.t ->
  string ->
  string ->
  string * report
(** Convenience for unsorted inputs: NEXSORT both, then merge.  The two
    sorts are opened as event streams ({!Nexsort.open_stream}) and the
    merge pulls from them directly, so neither sorted document is
    materialised.  Each sort runs its own session with its own memory
    budget, unless [sessions] supplies the (left, right) pair — the
    engine path, where both sessions carve from one engine budget; they
    are destroyed here on every exit path. *)

val sort_and_merge_devices :
  ?config:Nexsort.Config.t ->
  ?sessions:Nexsort.Session.t * Nexsort.Session.t ->
  ordering:Nexsort.Ordering.t ->
  left:Extmem.Device.t ->
  right:Extmem.Device.t ->
  output:Extmem.Device.t ->
  unit ->
  report
(** Sort both device-resident documents and merge them onto [output].
    The sorted documents exist only as event streams — the whole job
    writes each input's sorted runs once and the merged output once,
    with no sorted-document materialisation pass.  [sessions] runs the
    two sorts over pre-built (left, right) sessions — see
    {!sort_and_merge_strings}. *)
