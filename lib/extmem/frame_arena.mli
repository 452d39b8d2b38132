(** The session-wide frame arena: one pool of internal-memory block
    frames behind every block-holding component.

    The external-memory model hands an algorithm [m] blocks of internal
    memory; TPIE makes that concrete with a single memory manager that
    every data structure draws from.  This module is that spine.  It
    wraps a {!Memory_budget} (the counting side) and adds the frames
    themselves: recycled zero-filled buffers, per-owner accounting, and
    two ways to hold memory —

    {ul
    {- a {b lease}: a named reservation of [n] frames with elastic
       grow/shrink, used by components that manage their own block
       layout (stack windows, stream buffers, run-formation arenas,
       merge fan-in);}
    {- a {b cache}: a mapped set of frames over one device with a
       replacement policy, pin counts, dirty tracking and write-back on
       eviction — the machinery behind {!Pager}.}}

    Every reservation is recorded under its owner's [who] label, so
    budget exhaustion names the holders and per-owner hit/miss/eviction
    counters can be exported to metrics.  An arena created without a
    budget performs no accounting (frames are still pooled) — handy for
    standalone pagers and tests.

    Thread-safety: the shared owner table and buffer pool are protected
    by an internal mutex, so {!reserve}/{!release}/{!take}/{!give} (and
    the lease operations built on them) are safe from any domain.  A
    {b cache} is single-domain: its frame map and counters are
    deliberately unlocked for the pager hot path. *)

type t

(** {1 Replacement policies} *)

type policy =
  | Lru    (** evict the least-recently-touched frame *)
  | Clock  (** second-chance: skip referenced frames once *)
  | Mru    (** evict the most-recently-touched frame *)
  | Stack  (** the paper's no-prefetch stack rule: evict the lowest
               block index, keeping the top of a stack resident *)

val all_policies : policy list

val policy_to_string : policy -> string

val policy_of_string : string -> policy option

(** {1 Arena} *)

val create : ?budget:Memory_budget.t -> unit -> t
(** An arena drawing from [budget] (when given). *)

val budget : t -> Memory_budget.t option

(** Replacement traffic visible to an observer: a frame chosen as victim
    while holding a block ([Evict]), and a dirty frame flushed to its
    device ([Writeback], also on explicit flushes). *)
type event = Evict | Writeback

val set_observer : t -> (who:string -> event -> int -> unit) -> unit
(** Fire the hook on every eviction and write-back in caches attached to
    this arena, with the cache owner's name and the block index.  Caches
    are single-domain objects, so the hook runs unlocked on the caller's
    domain. *)

val take : t -> int -> bytes
(** [take t size] is a zero-filled buffer of [size] bytes, recycled from
    the pool when possible.  Buffer pooling is not accounting: callers
    hold a lease (or cache) covering the blocks they keep. *)

val give : t -> bytes -> unit
(** Return a buffer to the pool.  The caller must drop its reference. *)

(** {1 Leases} *)

type lease

val lease : t -> who:string -> int -> lease
(** Reserve [n] frames under [who].  @raise Memory_budget.Exhausted when
    the arena's budget cannot cover them. *)

val lease_blocks : lease -> int
(** Frames currently held (0 after {!close_lease}). *)

val lease_who : lease -> string

val grow : lease -> int -> unit
(** Reserve [n] more frames.  @raise Memory_budget.Exhausted on a full
    budget. *)

val try_grow : lease -> int -> bool
(** Like {!grow} but returns [false] instead of raising when the budget
    lacks [n] free blocks (always succeeds on an unbudgeted arena). *)

val shrink : lease -> int -> unit
(** Give back [n] frames.  @raise Invalid_argument below zero. *)

val close_lease : lease -> unit
(** Give back everything still held.  Idempotent. *)

val with_lease : t -> who:string -> int -> (lease -> 'a) -> 'a
(** Lease around a scope; always closed, also on exceptions. *)

(** {1 Caches}

    The pager machinery: a set of frames mapped onto one device's
    blocks, faulting misses in through the chosen replacement policy,
    with pin counts protecting frames from eviction.  With no pins held
    the Lru and Clock victim choices are exactly the original [Pager]
    ones, so access patterns are unchanged for non-pinning callers. *)

type cache

val attach : t -> ?who:string -> ?policy:policy -> frames:int -> Device.t -> cache
(** [attach t ~frames dev] reserves [frames] frames under [who] (default
    ["pager"]) and maps them onto [dev] under [policy] (default
    [Lru]). *)

val detach : cache -> unit
(** Flush dirty frames, return the buffers to the pool and release the
    reservation.  Idempotent; using the cache afterwards is a
    programming error.  The owner's cumulative counters survive in
    {!owners}. *)

val cache_device : cache -> Device.t

val cache_policy : cache -> policy

val cache_frames : cache -> int

val pin : cache -> int -> unit
(** Fault the block in (counting a hit or miss as any access does) and
    increment its pin count; a pinned frame is never chosen for
    eviction.  @raise Memory_budget.Exhausted via the fault when every
    frame is already pinned. *)

val unpin : cache -> int -> unit
(** @raise Invalid_argument when the block is not resident or not
    pinned. *)

val pinned : cache -> int -> int
(** Current pin count of a block (0 when not resident). *)

val read_byte : cache -> int -> char

val write_byte : cache -> int -> char -> unit
(** Extends the device as needed; the touched frame becomes dirty. *)

val read : cache -> pos:int -> len:int -> string

val write : cache -> pos:int -> string -> unit

val read_page : cache -> int -> string
(** Whole-block read.  @raise Invalid_argument on an unallocated
    block. *)

val write_page : cache -> int -> string -> unit
(** Whole-block write, zero-padded to the block size.  Extends the
    device as needed.  @raise Invalid_argument when the page exceeds the
    block size. *)

val flush : cache -> unit
(** Write back every dirty resident frame. *)

val hits : cache -> int

val misses : cache -> int

val evictions : cache -> int

val writebacks : cache -> int

(** {1 Per-owner accounting} *)

type owner_stats = {
  held : int;        (** frames reserved right now *)
  peak : int;        (** high-water mark of [held] *)
  hits : int;        (** cache hits (0 for pure leases) *)
  misses : int;
  evictions : int;
  writebacks : int;
}

val owners : t -> (string * owner_stats) list
(** Every owner the arena has ever seen, sorted by name.  Cumulative
    cache counters survive {!detach}/{!close_lease} so end-of-run
    metrics are complete. *)

val totals : t -> owner_stats
(** Sum over {!owners}. *)
