(* The multi-tenant sort engine: one process-wide memory budget and one
   admission queue serving many concurrent sort jobs.

   A job's whole footprint is one carve out of the engine budget — its
   session budget ([config.memory_blocks]) — under a "tenant#seq" ledger
   label, so the per-owner ledger doubles as the per-tenant accounting
   the admission policy reads.  Admission is FIFO with per-tenant
   fairness: waiters are served in arrival order among tenants with
   equally many running jobs, tenants with fewer running jobs first, and
   nobody skips ahead of a waiter the budget cannot yet fit (small jobs
   cannot starve a large one).

   Release is where the leak ledger lives: whatever a job's carve still
   holds after its session was destroyed — a phase that failed to release
   on an abort path — is counted into [engine.leaked_blocks] and then
   force-reclaimed, so one tenant's fault can never shrink the engine.
   The destroy-probe machinery ([Session.add_destroy_probe]) still fires
   per job, unchanged. *)

exception Cancelled
(* raised by a job's poll hook (and out of a pending acquire) after
   [cancel] *)

type job = {
  j_tenant : string;
  j_name : string;
  j_seq : int;
  j_config : Nexsort.Config.t;
  j_budget : Extmem.Memory_budget.t;
  j_cancel : bool Atomic.t;
  j_queue_wait_s : float;
  mutable j_released : bool;
}

type waiter = {
  w_tenant : string;
  w_seq : int;
  w_config : Nexsort.Config.t;
  w_cancel : bool Atomic.t;
  mutable w_granted : Extmem.Memory_budget.t option;
}

type t = {
  budget : Extmem.Memory_budget.t;
  tracer : Obs.Tracer.t;
  registry : Obs.Registry.t;
  lock : Mutex.t;
  admitted : Condition.t;  (* a waiter was granted, cancelled, or the engine died *)
  mutable seq : int;
  mutable waiting : waiter list;  (* arrival order *)
  running : (string, int) Hashtbl.t;  (* tenant -> running job count *)
  c_admitted : Obs.Counter.t;
  c_completed : Obs.Counter.t;
  c_queued : Obs.Counter.t;  (* admissions that had to wait *)
  c_queue_wait_ms : Obs.Counter.t;
  c_leaked : Obs.Counter.t;
  c_cancelled : Obs.Counter.t;
  mutable destroyed : bool;
}

let create ?(tracer = Obs.Tracer.null) ~memory_blocks ~block_size () =
  if memory_blocks < 1 then invalid_arg "Engine.create: need at least one block";
  let registry = Obs.Registry.create () in
  let t =
    {
      budget = Extmem.Memory_budget.create ~blocks:memory_blocks ~block_size;
      tracer;
      registry;
      lock = Mutex.create ();
      admitted = Condition.create ();
      seq = 0;
      waiting = [];
      running = Hashtbl.create 8;
      c_admitted = Obs.Registry.counter registry "engine.jobs_admitted";
      c_completed = Obs.Registry.counter registry "engine.jobs_completed";
      c_queued = Obs.Registry.counter registry "engine.jobs_queued";
      c_queue_wait_ms = Obs.Registry.counter registry ~unit_:"ms" "engine.queue_wait_ms";
      c_leaked = Obs.Registry.counter registry ~unit_:"blocks" "engine.leaked_blocks";
      c_cancelled = Obs.Registry.counter registry "engine.jobs_cancelled";
      destroyed = false;
    }
  in
  Obs.Registry.gauge registry ~unit_:"blocks" "engine.used_blocks" (fun () ->
      float_of_int (Extmem.Memory_budget.used_blocks t.budget));
  Obs.Registry.gauge registry "engine.waiting_jobs" (fun () ->
      float_of_int (List.length t.waiting));
  Obs.Registry.gauge registry "engine.running_jobs" (fun () ->
      float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) t.running 0));
  t

let registry t = t.registry

let tracer t = t.tracer

let budget t = t.budget

let leaked_blocks t = Obs.Counter.value t.c_leaked

let running_count t tenant = Option.value (Hashtbl.find_opt t.running tenant) ~default:0

let who ~tenant ~seq = Printf.sprintf "%s#%d" tenant seq

(* Try to carve one waiter's budget.  [Exhausted] means "not now" —
   the waiter stays queued. *)
let try_grant t (w : waiter) =
  let config = w.w_config in
  match
    Extmem.Memory_budget.carve t.budget ~block_size:config.Nexsort.Config.block_size
      ~who:(who ~tenant:w.w_tenant ~seq:w.w_seq) ~blocks:config.Nexsort.Config.memory_blocks ()
  with
  | exception Extmem.Memory_budget.Exhausted _ -> false
  | main ->
      w.w_granted <- Some main;
      true

(* Admission, under the engine lock.  Order waiters by (tenant's running
   jobs, arrival): a tenant with fewer jobs in flight goes first, FIFO
   among equals.  No skip-ahead: the first waiter the budget cannot fit
   blocks everyone behind it, so a stream of small jobs cannot starve a
   large one. *)
let admit_locked t =
  let granted = ref false in
  let continue_ = ref true in
  while !continue_ do
      let pending =
      List.filter
        (fun w -> w.w_granted = None && not (Atomic.get w.w_cancel))
        t.waiting
    in
    match
      List.stable_sort
        (fun a b ->
          let c = compare (running_count t a.w_tenant) (running_count t b.w_tenant) in
          if c <> 0 then c else compare a.w_seq b.w_seq)
        pending
    with
    | [] -> continue_ := false
    | best :: _ ->
        if try_grant t best then begin
          Hashtbl.replace t.running best.w_tenant (running_count t best.w_tenant + 1);
          granted := true
        end
        else continue_ := false
  done;
  if !granted then Condition.broadcast t.admitted

let remove_waiter t w = t.waiting <- List.filter (fun w' -> w' != w) t.waiting

(* Block until the engine grants this job its budget (admission), then
   return the job handle.  Raises [Cancelled] if the job is cancelled
   while queued. *)
let acquire ?(name = "") ?cancel t ~tenant (config : Nexsort.Config.t) =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.lock;
  if t.destroyed then begin
    Mutex.unlock t.lock;
    invalid_arg "Engine.acquire: engine is destroyed"
  end;
  let w =
    {
      w_tenant = tenant;
      w_seq =
        (t.seq <- t.seq + 1;
         t.seq);
      w_config = config;
      w_cancel = (match cancel with Some c -> c | None -> Atomic.make false);
      w_granted = None;
    }
  in
  t.waiting <- t.waiting @ [ w ];
  admit_locked t;
  if w.w_granted = None then begin
    Obs.Counter.incr t.c_queued;
    Obs.Tracer.begin_s t.tracer "engine.queue_wait"
  end;
  let was_queued = w.w_granted = None in
  while w.w_granted = None && not (Atomic.get w.w_cancel) && not t.destroyed do
    Condition.wait t.admitted t.lock
  done;
  let result = w.w_granted in
  remove_waiter t w;
  (match result with
  | None ->
      (* cancelled or engine death: we may have been granted in a race —
         no: result was None — just leave *)
      Mutex.unlock t.lock;
      if was_queued then Obs.Tracer.end_s t.tracer "engine.queue_wait";
      if Atomic.get w.w_cancel then begin
        Obs.Counter.incr t.c_cancelled;
        raise Cancelled
      end
      else invalid_arg "Engine.acquire: engine destroyed while queued"
  | Some _ -> Mutex.unlock t.lock);
  if was_queued then Obs.Tracer.end_s t.tracer "engine.queue_wait";
  let main = Option.get result in
  let wait_s = Unix.gettimeofday () -. t0 in
  Obs.Counter.incr t.c_admitted;
  Obs.Counter.add t.c_queue_wait_ms (int_of_float (wait_s *. 1000.));
  {
    j_tenant = tenant;
    j_name = (if name = "" then who ~tenant ~seq:w.w_seq else name);
    j_seq = w.w_seq;
    j_config = config;
    j_budget = main;
    j_cancel = w.w_cancel;
    j_queue_wait_s = wait_s;
    j_released = false;
  }

(* Cancellation takes the raw flag, not the job handle: a queued job is
   still blocked inside [acquire] and has no handle yet, so callers that
   need to cancel from outside pass their own flag in ([?cancel]).  The
   broadcast wakes queued waiters so they notice the flag and leave. *)
let cancel t (flag : bool Atomic.t) =
  Atomic.set flag true;
  Mutex.lock t.lock;
  Condition.broadcast t.admitted;
  Mutex.unlock t.lock

let cancel_flag (j : job) = j.j_cancel

let cancel_job t (j : job) = cancel t j.j_cancel

let poll_of (j : job) () = if Atomic.get j.j_cancel then raise Cancelled

let session _t (j : job) =
  Nexsort.Session.create ~budget:j.j_budget ~poll:(poll_of j) j.j_config

(* Return a job's carve to the engine.  The session must already be
   destroyed (Sorter does this on every exit path); anything its carve
   still holds is a leak — counted, then force-reclaimed so the engine
   budget is whole again no matter what the job did. *)
let release t (j : job) =
  if not j.j_released then begin
    j.j_released <- true;
    let leak = Extmem.Memory_budget.used_blocks j.j_budget in
    if leak > 0 then Obs.Counter.add t.c_leaked leak;
    Mutex.lock t.lock;
    Extmem.Memory_budget.uncarve ~force:true j.j_budget;
    (match running_count t j.j_tenant - 1 with
    | 0 -> Hashtbl.remove t.running j.j_tenant
    | n -> Hashtbl.replace t.running j.j_tenant n);
    Obs.Counter.incr t.c_completed;
    admit_locked t;
    Condition.broadcast t.admitted;
    Mutex.unlock t.lock
  end

(* Run one job end to end: admission, session, [f], teardown, release.
   [f] normally consumes the session via [Sorter.sort_device ~session]
   (which destroys it); the redundant destroy here is idempotent and
   covers [f] raising before it got that far.  Always releases — a
   faulted or cancelled job provably returns every block (minus what
   the leak counter records). *)
let run ?name ?cancel t ~tenant (config : Nexsort.Config.t) f =
  let j = acquire ?name ?cancel t ~tenant config in
  let session =
    match session t j with
    | s -> s
    | exception e ->
        release t j;
        raise e
  in
  Fun.protect
    ~finally:(fun () ->
      Nexsort.Session.destroy session;
      release t j)
    (fun () -> f j session)

(* An engine sized for exactly [slots] jobs of this config — the
   single-job CLI path ([slots = 1]) and the two-stream merge
   ([slots = 2], which must hold both its sessions at once): the same
   admission, carve and release machinery, with a budget sized so those
   admissions succeed immediately. *)
let for_config ?tracer ?(slots = 1) (config : Nexsort.Config.t) =
  create ?tracer ~memory_blocks:(slots * config.Nexsort.Config.memory_blocks)
    ~block_size:config.Nexsort.Config.block_size ()

let destroy t =
  Mutex.lock t.lock;
  if t.destroyed then Mutex.unlock t.lock
  else begin
    if t.waiting <> [] || Hashtbl.length t.running > 0 then begin
      Mutex.unlock t.lock;
      invalid_arg "Engine.destroy: jobs still queued or running"
    end;
    t.destroyed <- true;
    Condition.broadcast t.admitted;
    Mutex.unlock t.lock
  end

let queue_wait_s (j : job) = j.j_queue_wait_s

let job_name (j : job) = j.j_name

let job_tenant (j : job) = j.j_tenant

let metrics_json t = Obs.Registry.snapshot_to_json (Obs.Registry.snapshot t.registry)

(* the per-job "job" report section: who ran, how long it queued, and
   the engine counters at report time *)
let job_json t (j : job) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str j.j_name);
      ("tenant", Obs.Json.Str j.j_tenant);
      ("queue_wait_ms", Obs.Json.Float (j.j_queue_wait_s *. 1000.));
      ("engine", metrics_json t);
    ]
