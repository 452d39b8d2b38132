(** Pull-based streaming pipelines with budgeted memory.

    TPIE-style pipelining ("External Memory Pipelining Made Easy With
    TPIE", Arge et al.): phases that would otherwise materialise their
    output on disk and re-read it are fused into one pass by composing
    pull streams.  A pipeline is built from three kinds of stages:

    - a {e source} produces records (or any values) on demand;
    - a {e transform} rewrites a pull stream into another pull stream;
    - a {e sink} consumes records and owns the final flush.

    Every stage declares the number of internal-memory blocks it needs
    (its stream buffers); {!open_source} and {!run} reserve the pipeline's
    total from the shared {!Extmem.Memory_budget.t} before any stage
    allocates, so exceeding [M] surfaces as
    {!Extmem.Memory_budget.Exhausted} naming the pipeline instead of
    silently inflating memory.  Stages that size their memory dynamically
    (an external sort reserving its arena, a fragment merge reserving its
    fan-in) declare [mem = 0] and reserve internally at open time under
    their own name — the protocol is that {e every} block-sized buffer is
    reserved by somebody before it is allocated.

    Opening is deferred: building a pipeline allocates nothing; the stage
    [open] functions run — outermost source first — when the pipeline is
    opened.  Closing is exception-safe: {!run} closes the sink even when a
    stage raises mid-stream, so a failing pipeline cannot leave a torn,
    unflushed final block behind (the original exception is re-raised; a
    secondary failure inside the flush is suppressed in that case). *)

type 'a pull = unit -> 'a option
(** A pull stream: [None] is end of stream and must be sticky. *)

type 'a source
type ('a, 'b) transform
type 'a sink

type 'a opened = {
  pull : 'a pull;
  close : unit -> unit;  (** idempotent; releases the stages' reservation *)
}

val source : ?mem:int -> who:string -> (unit -> 'a pull * (unit -> unit)) -> 'a source
(** [source ~mem ~who open_] is a stage producing a pull stream.  [open_]
    runs at pipeline-open time, after [mem] blocks (default 0) have been
    reserved, and returns the stream plus its closer. *)

val of_pull : ?mem:int -> who:string -> 'a pull -> 'a source
(** An already-open stream as a source (closer is a no-op). *)

val of_list : who:string -> 'a list -> 'a source

val transform : ?mem:int -> who:string -> ('a pull -> 'b pull) -> ('a, 'b) transform
(** A stage rewriting the upstream pull (state lives in the closure). *)

val map : who:string -> ('a -> 'b) -> ('a, 'b) transform

val via : 'a source -> ('a, 'b) transform -> 'b source
(** Compose: memory needs add, stage names concatenate. *)

val sink : ?mem:int -> who:string -> (unit -> ('a -> unit) * (unit -> unit)) -> 'a sink
(** [sink ~mem ~who open_] consumes records.  [open_] returns the push
    function and the closer; the closer must flush (it is called on both
    success and failure paths). *)

val fn_sink : who:string -> ('a -> unit) -> 'a sink
(** A memoryless sink around a plain function. *)

val mem_need : 'a source -> int
(** Total blocks the source-side stages declare. *)

val sink_mem : 'a sink -> int

val describe : 'a source -> string
(** Stage names, source first, joined with [" -> "]; used as the [who] of
    the pipeline's budget reservation. *)

val sink_who : 'a sink -> string

val open_source :
  ?spans:Obs.Spans.t -> budget:Extmem.Memory_budget.t -> 'a source -> 'a opened
(** Reserve {!mem_need} blocks under {!describe}, then run the stage
    opens (under an ["open:<describe>"] span when [spans] is given).  The
    returned [close] runs the stage closers and releases the reservation;
    it is idempotent.  If an open raises, the reservation is released.

    @raise Extmem.Memory_budget.Exhausted naming the pipeline. *)

val drain : 'a pull -> ('a -> unit) -> unit
(** Pump a stream to exhaustion. *)

val run_opened :
  ?spans:Obs.Spans.t -> budget:Extmem.Memory_budget.t -> 'a opened -> 'a sink -> unit
(** Reserve the sink's blocks, open it, pump the stream into it, close
    everything.  The sink is closed (flushed) even when the stream or the
    push raises — the original exception is re-raised and a secondary
    exception from the flush is suppressed.  The opened source is closed
    in all cases. *)

val run : ?spans:Obs.Spans.t -> budget:Extmem.Memory_budget.t -> 'a source -> 'a sink -> unit
(** [open_source] followed by {!run_opened}. *)
