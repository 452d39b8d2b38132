(** Streaming XML pull parser.

    A hand-written, event-based parser in the spirit of SAX, which the
    paper uses to drive the sorting-phase scan (Figure 4, line 2).  It
    reads characters from a pluggable source — a string or a
    {!Extmem.Block_reader.t}, so parsing a disk-resident document costs
    exactly [ceil(n/B)] block reads — and produces {!Event.t}s on demand.

    Supported syntax: elements with attributes (single- or double-quoted),
    character data with the predefined and numeric entity references,
    CDATA sections, comments, processing instructions, an XML declaration
    and a DOCTYPE with internal subset (both skipped).  Namespaces are not
    interpreted (colons are ordinary name characters), which matches the
    paper's data model.

    Well-formedness is enforced: mismatched or unclosed tags, text outside
    the root element, multiple roots and malformed markup all raise
    {!Error} with a line/column position. *)

type t

exception Error of { line : int; col : int; msg : string }

val of_string : ?dict:Dict.t -> ?keep_whitespace:bool -> string -> t
(** Parse from an in-memory string (no I/O counted).  When
    [keep_whitespace] is false (default), character data consisting only
    of whitespace is dropped — the usual treatment for data-centric XML,
    and what the paper's generators produce.  With [?dict], tag and
    attribute names are interned as they are read: events carry the
    canonical shared strings plus their dict ids, and known names are
    resolved straight out of the parser's scratch buffer without
    allocating (§3.2's name dictionary pushed down into the scan). *)

val of_reader : ?dict:Dict.t -> ?keep_whitespace:bool -> Extmem.Block_reader.t -> t
(** Parse from a device-backed stream; every block crossed is counted by
    the reader's device. *)

val of_fn : ?dict:Dict.t -> ?keep_whitespace:bool -> (unit -> char option) -> t
(** Parse from an arbitrary character source. *)

val next : t -> Event.t option
(** The next event, or [None] once the root element has been closed and
    only trailing misc remains.  @raise Error on malformed input. *)

val next_packed : t -> Event.packed option
(** Like {!next}, but fills and returns the parser's reusable
    {!Event.packed} scratch instead of allocating an event: the returned
    record is valid only until the next call on the parser.  Attribute
    values and text are still fresh strings; names are shared.  May be
    freely interleaved with {!next}/{!peek}. *)

val peek : t -> Event.t option
(** The next event without consuming it. *)

val depth : t -> int
(** Number of currently open elements. *)

val line : t -> int
val col : t -> int

val to_list : t -> Event.t list
(** Drain the parser.  @raise Error on malformed input. *)
