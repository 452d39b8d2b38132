(** The session-wide frame arena: one pool of internal-memory block
    frames behind every block-holding component.

    The external-memory model hands an algorithm [m] blocks of internal
    memory; TPIE makes that concrete with a single memory manager that
    every data structure draws from.  This module is that spine.  It
    wraps a {!Memory_budget} (the counting side) and adds the frames
    themselves: recycled zero-filled buffers, per-owner accounting, and
    {b leases} — named reservations of [n] frames with elastic
    grow/shrink, used by components that manage their own block layout
    (stack windows, stream buffers, run-formation arenas, merge fan-in).

    Every reservation is recorded under its owner's [who] label, so
    budget exhaustion names the holders and per-owner frame counts can
    be exported to metrics.  An arena created without a budget performs
    no accounting (frames are still pooled) — handy for standalone
    components and tests.

    Thread-safety: the owner table and buffer pool are protected by an
    internal mutex, so every operation is safe from any domain. *)

type t

(** {1 Arena} *)

val create : ?budget:Memory_budget.t -> unit -> t
(** An arena drawing from [budget] (when given). *)

val budget : t -> Memory_budget.t option

val take : t -> int -> bytes
(** [take t size] is a zero-filled buffer of [size] bytes, recycled from
    the pool when possible.  Buffer pooling is not accounting: callers
    hold a lease covering the blocks they keep. *)

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

(** {1 Per-owner accounting} *)

type owner_stats = {
  held : int;        (** frames reserved right now *)
  peak : int;        (** high-water mark of [held] *)
  hits : int;        (** always 0, kept so every metrics report keeps
                         its shape *)
  misses : int;      (** always 0 *)
  evictions : int;   (** always 0 *)
  writebacks : int;  (** always 0 *)
}

val owners : t -> (string * owner_stats) list
(** Every owner the arena has ever seen, sorted by name.  Owners survive
    {!close_lease} so end-of-run metrics are complete. *)

val totals : t -> owner_stats
(** Sum over {!owners}. *)
