(** NEXSORT configuration.

    Mirrors the knobs of the paper's experimental setup: block size and
    memory size (the external-memory model's [B] and [M]), the sort
    threshold [t] (§3: sort a complete subtree once its on-stack size
    reaches [t]; §5 finds roughly twice the block size works well), the
    optional depth limit (§3.2) and the graceful-degeneration switch
    (§3.2). *)

type t = {
  block_size : int;     (** bytes per block (the paper uses 64 KiB) *)
  memory_blocks : int;  (** internal-memory blocks available, the model's
                            [m = M/B]; at least 8 *)
  threshold : int;      (** sort threshold [t] in on-stack bytes *)
  depth_limit : int option;
      (** sort only down to this level (root = 1); [None] = head-to-toe *)
  degeneration : bool;
      (** create incomplete sorted runs when an unfinished subtree fills
          memory, making flat inputs cost the same passes as external
          merge sort *)
  data_stack_blocks : int;
      (** resident window of the data stack, derived from [B], [M] and
          [t] (see {!make}) *)
  keep_whitespace : bool;   (** preserve whitespace-only text nodes *)
  device : Extmem.Device_spec.t;
      (** device stack for the sort's internal devices (stacks, runs,
          scratch): backend plus middleware layers; see {!Extmem.Device_spec} *)
  tracer : Obs.Tracer.t;
      (** event-trace sink for the session ({!Obs.Tracer.null} = tracing
          off, the default).  When enabled, every scratch device gets a
          [Layer.timed] latency middleware, phase spans and arena
          events flow onto per-domain tracks, and the CLI flushes the
          trace with [--trace FILE] *)
}

val make :
  ?block_size:int ->
  ?memory_blocks:int ->
  ?threshold:int ->
  ?depth_limit:int ->
  ?degeneration:bool ->
  ?keep_whitespace:bool ->
  ?device:Extmem.Device_spec.t ->
  ?tracer:Obs.Tracer.t ->
  unit ->
  t
(** Defaults: 4 KiB blocks, 64 memory blocks, threshold [2 * block_size],
    no depth limit, degeneration on, whitespace dropped.  The data-stack
    window covers twice the threshold (so the stack's oscillation
    between subtree collapses stays resident), clamped so the fixed
    buffers and a 3-block sort arena still fit the memory budget.
    @raise Invalid_argument on inconsistent values ([block_size < 64],
    [memory_blocks < 8], threshold smaller than one block, depth limit
    below 1). *)

val path_stack_blocks : int
(** Resident window of the path stack: 2 blocks, the minimum the
    paper's stack-paging analysis assumes. *)

val memory_bytes : t -> int

val scratch_device : t -> name:string -> Extmem.Device.t
(** Build one internal device (stack, run store, scratch) through the
    configured {!field-device} spec, with the config's block size.  When
    the config's tracer is enabled the device carries a timing layer
    (see {!attach_tracing}). *)

val attach_tracing : t -> name:string -> Extmem.Device.t -> unit
(** Push an {!Extmem.Layer.timed} latency middleware onto [dev] wired to
    the config's tracer: per-I/O Complete events named
    [read:<name>]/[write:<name>] plus a registered latency histogram.
    No-op when tracing is disabled.  Used for endpoint (input/output)
    devices the config did not build itself. *)

val attach_trace_observer : t -> name:string -> Extmem.Trace.t -> unit
(** Mirror a [traced] debug layer's block accesses into the tracer as
    [access.read:<name>]/[access.write:<name>] counter events (value =
    block index — a block-position-over-time graph in Perfetto).  No-op
    when tracing is disabled; {!Extmem.Trace.detach} silences it. *)

val pp : Format.formatter -> t -> unit
