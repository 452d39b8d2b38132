(* The benchmark's own spans and the analysis of a traced run's timeline.

   The benchmark opens a span around each public call it makes (engine
   admission, the sort call, add_update, flush, the standalone parser and
   writer passes).  Every span carries the run id and its parent span,
   stays in memory, and is mirrored as a Begin/End pair onto the same
   Obs.Tracer timeline the program's own phase spans land on, so one
   trace file holds both.  With a disabled tracer nothing is recorded. *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;
  t0_ns : int;
  t1_ns : int;
}

type t = {
  run_id : string;
  tracer : Obs.Tracer.t;
  mutable next_id : int;
  mutable open_ : (int * string * int) list;  (** id, name, start *)
  mutable closed : span list;
}

let create ~run_id tracer = { run_id; tracer; next_id = 1; open_ = []; closed = [] }

let enabled t = Obs.Tracer.enabled t.tracer

let begin_ t name =
  if enabled t then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.open_ <- (id, name, Obs.Tracer.now_ns t.tracer) :: t.open_;
    Obs.Tracer.begin_s t.tracer name
  end

let end_ t name =
  if enabled t then
    match t.open_ with
    | (id, n, t0_ns) :: rest when n = name ->
        Obs.Tracer.end_s t.tracer name;
        t.open_ <- rest;
        let parent = match rest with (p, _, _) :: _ -> p | [] -> 0 in
        t.closed <- { id; parent; name; t0_ns; t1_ns = Obs.Tracer.now_ns t.tracer } :: t.closed
    | _ -> invalid_arg ("Bspans.end_: " ^ name ^ " is not the innermost open span")

let with_span t name f =
  begin_ t name;
  Fun.protect ~finally:(fun () -> end_ t name) f

(* Durations of every closed span called [name], in ms, in start order. *)
let durations_ms t name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (float_of_int (s.t1_ns - s.t0_ns) /. 1e6) else None)
       t.closed)

let to_json t =
  Obs.Json.Obj
    [
      ("run_id", Obs.Json.Str t.run_id);
      ( "spans",
        Obs.Json.List
          (List.rev_map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("run_id", Obs.Json.Str t.run_id);
                   ("id", Obs.Json.Int s.id);
                   ("parent", Obs.Json.Int s.parent);
                   ("name", Obs.Json.Str s.name);
                   ("start_ns", Obs.Json.Int s.t0_ns);
                   ("dur_ns", Obs.Json.Int (s.t1_ns - s.t0_ns));
                 ])
             t.closed) );
    ]

(* ------------------------------------------------------------------ *)
(* Timeline analysis *)

type phase = {
  mutable total_ns : int;
  mutable sub_ns : int;  (** the part of total inside the chosen sub-phases *)
}

type profile = {
  phases : (string, phase) Hashtbl.t;
  io_ns : int;  (** summed per-I/O latencies of every timed device *)
}

(* Replay each track's Begin/End records through a span stack, summing
   each span name's time and per-I/O Complete latencies.  Each span also
   learns how much of it was spent inside the spans named in
   [subphases], at any depth and counting nested ones once: the sort's
   scan loop runs inside pipeline spans of its own, so "the scan minus
   its sort phases" is the scan span's total minus that part. *)
let profile ?(subphases = []) tracer =
  let phases = Hashtbl.create 64 in
  let phase name =
    match Hashtbl.find_opt phases name with
    | Some p -> p
    | None ->
        let p = { total_ns = 0; sub_ns = 0 } in
        Hashtbl.add phases name p;
        p
  in
  let io_ns = ref 0 in
  (* time closed so far by outermost sub-phase spans, and how many
     sub-phase spans are open *)
  let sub_closed = ref 0 and sub_open = ref 0 in
  let stacks = Hashtbl.create 4 in
  let events =
    match Obs.Json.member "traceEvents" (Obs.Tracer.to_json tracer) with
    | Some (Obs.Json.List l) -> l
    | _ -> []
  in
  List.iter
    (fun ev ->
      match Obs.Tracer.record_of_json ev with
      | exception Failure _ -> ()  (* track metadata *)
      | r, tid -> (
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let open Obs.Tracer in
          match r.r_kind with
          | Begin ->
              if List.mem r.r_name subphases then incr sub_open;
              Hashtbl.replace stacks tid ((r.r_name, r.r_ts_ns, !sub_closed) :: stack)
          | End -> (
              match stack with
              | (name, ts0, sub0) :: rest when name = r.r_name ->
                  let dur = r.r_ts_ns - ts0 in
                  if List.mem name subphases then begin
                    decr sub_open;
                    if !sub_open = 0 then sub_closed := !sub_closed + dur
                  end;
                  let p = phase name in
                  p.total_ns <- p.total_ns + dur;
                  p.sub_ns <- p.sub_ns + (!sub_closed - sub0);
                  Hashtbl.replace stacks tid rest
              | _ -> failwith ("unbalanced End event " ^ r.r_name))
          | Complete ->
              let n = r.r_name in
              if String.starts_with ~prefix:"read:" n || String.starts_with ~prefix:"write:" n then
                io_ns := !io_ns + r.r_value
          | Instant | Count -> ()))
    events;
  { phases; io_ns = !io_ns }

let total_s p name =
  match Hashtbl.find_opt p.phases name with
  | Some ph -> float_of_int ph.total_ns /. 1e9
  | None -> 0.

let outside_subphases_s p name =
  match Hashtbl.find_opt p.phases name with
  | Some ph -> float_of_int (ph.total_ns - ph.sub_ns) /. 1e9
  | None -> 0.

(* Write the timeline (program and benchmark spans) and the benchmark's
   span list next to it. *)
let write t ~path =
  Obs.Tracer.write_file t.tracer path;
  Workload.write_file (path ^ ".spans.json") (Obs.Json.to_string ~minify:true (to_json t))
