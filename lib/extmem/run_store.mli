(** Storage for sorted runs.

    NEXSORT collapses each sufficiently large subtree into a sorted run on
    disk; the output phase later traverses the resulting tree of runs.
    A [Run_store.t] owns one device and hands out append-only writers; each
    closed run gets a dense integer id that can be embedded in run-pointer
    entries on the data stack and inside other runs.

    Runs on the store's own device are written one at a time (the sorter
    never interleaves two subtree sorts), which the store enforces.  A
    finished run on another device can be registered by reference with
    {!adopt}. *)

type t

type id = int
(** Dense run identifier, assigned at {!finish_run} or {!adopt}. *)

val create : Device.t -> t
(** A store using [dev] for run payloads.  Run metadata (extents) is held
    in memory, mirroring a file system's allocation tables. *)

val device : t -> Device.t

val run_count : t -> int

val begin_run : ?buffer:bytes -> t -> Block_writer.t
(** Open the writer for a new run.  [buffer] is passed to
    {!Block_writer.create} (one block, typically an arena frame).
    @raise Invalid_argument if a run is already open. *)

val finish_run : t -> Block_writer.t -> id
(** Close the writer and register the run; returns its id. *)

val adopt : t -> dev:Device.t -> extent:Extent.t -> id
(** Register a finished run that lives at [extent] on [dev] — possibly a
    device other than the store's own — by reference; returns its id.
    The payload is neither copied nor owned: [dev] must outlive every
    read of the run. *)

val open_run : ?buffer:bytes -> t -> id -> Block_reader.t
(** A fresh sequential reader over the given run, on whichever device
    holds it.  [buffer] is the reader's block buffer (typically an arena
    frame).
    @raise Invalid_argument on an unknown id. *)

val read_run : ?buffer:bytes -> t -> id -> unit -> string option
(** Streaming open: a pull over the run's length-prefixed records, for
    feeding a run into a pipeline without re-materialising it.  The
    reader holds one block of buffer; callers account for it. *)

val run_extent : t -> id -> Extent.t

val total_run_blocks : t -> int
(** Sum of block counts over all runs (Lemma 4.8 measures this). *)

val total_run_bytes : t -> int
(** Sum of payload byte counts over all runs. *)
