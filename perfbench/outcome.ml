(* What one measured run of a workload hands back for printing. *)

type t = {
  attempted : int;  (** jobs (sort-* ) or flushes (ingest) attempted *)
  failed : int;  (** those that raised, failed their check or leaked *)
  problems : string list;
      (** every failure, workload-shape violation and traced-run
          inconsistency, in order *)
  shape : (string * int) list;  (** bytes, elements, events, height, input blocks *)
  fingerprint : string;
      (** input and output digests and the exact counts, for the
          determinism self-test *)
  end_to_end : Stats.row list;
  per_layer : Stats.row list;  (** empty when untraced *)
  spans : Bspans.t option;  (** the traced run's spans and timeline *)
}

(* A run whose first job failed has nothing to measure. *)
let aborted ~attempted ~failed problems =
  {
    attempted;
    failed;
    problems;
    shape = [];
    fingerprint = "";
    end_to_end = [];
    per_layer = [];
    spans = None;
  }

(* Collects failures while a run goes on. *)
type log = {
  mutable n_attempted : int;
  mutable n_failed : int;
  mutable rev_problems : string list;
}

let log () = { n_attempted = 0; n_failed = 0; rev_problems = [] }

let problem log fmt = Printf.ksprintf (fun s -> log.rev_problems <- s :: log.rev_problems) fmt

(* Run one attempt; an [Error] or an exception counts it failed. *)
let attempt log what f =
  log.n_attempted <- log.n_attempted + 1;
  match f () with
  | Ok x -> Some x
  | Error msg ->
      log.n_failed <- log.n_failed + 1;
      problem log "%s %d: %s" what log.n_attempted msg;
      None
  | exception e ->
      log.n_failed <- log.n_failed + 1;
      problem log "%s %d raised %s" what log.n_attempted (Printexc.to_string e);
      None

let problems log = List.rev log.rev_problems
