(** A buffer pool: random byte access over a device through a bounded set
    of in-memory frames.

    This plays the role of TPIE's block collection / memory manager for
    components that need random access rather than the streaming patterns
    of {!Block_reader}/{!Ext_stack} — e.g. the internal-memory recursive
    sort baseline when it is deliberately run on inputs larger than memory
    to demonstrate paging behaviour, and the [--paged] mode of the
    command-line tools.

    Since the frame-arena refactor this module is a thin view over a
    {!Frame_arena.cache}: the frames, replacement policies, pin counts
    and per-owner accounting all live in the arena.  A pager created
    without [?arena] owns a private unbudgeted arena, which behaves
    exactly like the old standalone pager.  All policies write a frame
    back only when it is dirty. *)

type policy = Frame_arena.policy =
  | Lru    (** evict the least recently used frame *)
  | Clock  (** second-chance / clock approximation of LRU *)
  | Mru    (** evict the most recently used frame *)
  | Stack  (** no-prefetch stack rule: evict the lowest block index *)

type t = Frame_arena.cache

val create : ?arena:Frame_arena.t -> ?who:string -> ?policy:policy -> frames:int -> Device.t -> t
(** [create ~frames dev] is a pool of [frames] (>= 1) block frames over
    [dev].  With [?arena] the frames are drawn from (and accounted to)
    that arena under [who] (default ["pager"]); the default policy is
    {!Lru}. *)

val device : t -> Device.t

val policy : t -> policy

val read_byte : t -> int -> char
(** [read_byte p off] reads the byte at device offset [off], faulting the
    containing block in if needed. *)

val write_byte : t -> int -> char -> unit
(** Write one byte (marks the frame dirty; auto-extends the device when
    writing into the block just past the end). *)

val read : t -> pos:int -> len:int -> string
val write : t -> pos:int -> string -> unit

val read_page : t -> int -> string
(** The whole block as a string (faulting it in if needed).
    @raise Invalid_argument on an unallocated block. *)

val write_page : t -> int -> string -> unit
(** Replace a block's contents (zero-padded to the block size; the device
    is extended as needed).  The write is buffered in the frame until
    eviction or {!flush}. *)

val pin : t -> int -> unit
(** Fault the block in and protect its frame from eviction until the
    matching {!unpin}.  Pin counts nest. *)

val unpin : t -> int -> unit

val flush : t -> unit
(** Write back all dirty frames (frames stay resident). *)

val detach : t -> unit
(** Flush and return the frames to the arena.  Idempotent. *)

val hits : t -> int
(** Number of block accesses served from a resident frame. *)

val misses : t -> int
(** Number of block accesses that required a device read. *)

val evictions : t -> int
(** Number of resident frames replaced to make room for another block. *)

val writebacks : t -> int
(** Number of dirty frames written back to the device (on eviction or
    {!flush}). *)
