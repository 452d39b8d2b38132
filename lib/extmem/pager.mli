(** An LRU page cache: whole-block access to a device through a bounded
    set of in-memory frames.

    This plays the role of TPIE's block collection / memory manager for
    the one component that needs random access rather than the streaming
    patterns of {!Block_reader}/{!Ext_stack}: the {!Btree} index.  A miss
    takes a free frame if one is left, else the least recently touched
    one; a frame is written back only when it is dirty.  The frames are
    private to the cache and charged to no memory budget. *)

type t

val create : frames:int -> Device.t -> t
(** [create ~frames dev] is a cache of [frames] (>= 1) block frames over
    [dev]. *)

val read_page : t -> int -> string
(** The whole block as a string (faulting it in if needed).
    @raise Invalid_argument on an unallocated block. *)

val write_page : t -> int -> string -> unit
(** Replace a block's contents (zero-padded to the block size; the device
    is extended as needed).  The write is buffered in the frame until
    eviction or {!flush}.  @raise Invalid_argument when the page exceeds
    the block size. *)

val flush : t -> unit
(** Write back all dirty frames (frames stay resident). *)

val hits : t -> int
(** Number of block accesses served from a resident frame. *)

val misses : t -> int
(** Number of block accesses that had to fault a frame in. *)

val evictions : t -> int
(** Number of resident frames replaced to make room for another block. *)

val writebacks : t -> int
(** Number of dirty frames written back to the device (on eviction or
    {!flush}). *)
