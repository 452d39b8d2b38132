(* The sort workloads: one closed-loop client sorting the same document
   again and again, one job at a time, through the path the CLIs take —
   Engine.for_config, Engine.run, Nexsort.sort_device — on in-memory
   devices. *)

type job = {
  wall_s : float;  (** the Engine.run + sort_device call *)
  minor_words : float;  (** allocated over that call *)
  top_heap_words : int;  (** major-heap peak at the end of it *)
  report : Nexsort.report;
  leaked : int;
}

let ( let* ) = Result.bind

let setup (w : Workload.t) ~tracer ~config xml =
  let eng = Engine.for_config ~tracer config in
  let input = Extmem.Device.in_memory ~name:"input" ~block_size:w.block_size () in
  Extmem.Device.load_string input xml;
  let output = Extmem.Device.in_memory ~name:"output" ~block_size:w.block_size () in
  Nexsort.Config.attach_tracing config ~name:"input" input;
  Nexsort.Config.attach_tracing config ~name:"output" output;
  (eng, input, output)

(* One job; the output document is returned apart so it can be dropped
   once checked. *)
let run_job ?(spans = Bspans.create ~run_id:"" Obs.Tracer.null) w xml =
  let tracer = spans.Bspans.tracer in
  let config = Workload.config ~tracer w in
  Bspans.begin_ spans "bench.job";
  let eng, input, output =
    Bspans.with_span spans "bench.setup" (fun () -> setup w ~tracer ~config xml)
  in
  Fun.protect
    ~finally:(fun () -> Engine.destroy eng)
    (fun () ->
      let t1 = Stats.now_s () in
      let mw0 = Gc.minor_words () in
      Bspans.begin_ spans "engine.admit";
      let report =
        Engine.run eng ~tenant:"bench" config (fun _job session ->
            Bspans.end_ spans "engine.admit";
            Bspans.with_span spans "bench.sort" (fun () ->
                Nexsort.sort_device ~session ~ordering:Workload.ordering ~input ~output ()))
      in
      let t2 = Stats.now_s () in
      let minor_words = Gc.minor_words () -. mw0 in
      let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      Bspans.end_ spans "bench.job";
      ( {
          wall_s = t2 -. t1;
          minor_words;
          top_heap_words;
          report;
          leaked = Engine.leaked_blocks eng;
        },
        Extmem.Device.contents output ))

(* Set-up alone: engine creation and loading the input device. *)
let setup_only w xml =
  let config = Workload.config w in
  let t0 = Stats.now_s () in
  let eng, _, _ = setup w ~tracer:Obs.Tracer.null ~config xml in
  let s = Stats.now_s () -. t0 in
  Engine.destroy eng;
  s

let check_output (w : Workload.t) ~input out =
  match w.check with
  | Workload.Validator -> Verify.Validator.check ~ordering:Workload.ordering ~input out
  | Workload.Oracle ->
      if String.equal out (Verify.Oracle.sort_string Workload.ordering input) then Ok ()
      else Error "output differs from Verify.Oracle's in-memory sort"

(* Where each workload was chosen to put the work. *)
let shape_violations (w : Workload.t) ~in_blocks (r : Nexsort.report) =
  let stack = Layers.stack_paging r in
  let broken cond msg = if cond then [] else [ msg ] in
  match w.name with
  | "sort-fit" ->
      broken
        (r.external_sorts = 0 && r.fragment_runs = 0 && stack = 0)
        (Printf.sprintf "sort-fit: expected no external sort, fragment run or stack paging (%d, %d, %d)"
           r.external_sorts r.fragment_runs stack)
  | "sort-spill" ->
      broken
        (r.fragment_runs > 0 && Layers.runs_io r > 5 * in_blocks)
        (Printf.sprintf
           "sort-spill: expected fragment runs and run I/O over 5x the input (%d runs, %d > 5 * %d)"
           r.fragment_runs (Layers.runs_io r) in_blocks)
  | "sort-deep" ->
      broken
        (r.height >= 1000 && stack > 0)
        (Printf.sprintf "sort-deep: expected height >= 1000 and stack paging (%d, %d)" r.height stack)
  | _ -> []

let min_jobs = 4

(* set-up alone, a fixed number of times after the jobs, so every run
   takes its set-up median over the same kind and number of samples *)
let setup_samples = 30

let measure (w : Workload.t) xml ~seconds ~trace ~run_id =
  let log = Outcome.log () in
  let bytes = String.length xml in
  let in_blocks = (bytes + w.block_size - 1) / w.block_size in
  let start = Stats.now_s () in
  (* job 1 is the reference: its output is checked against the input,
     and every later job must reproduce its output bytes and exact
     counts.  Every job, this one included, starts on a collected heap. *)
  Gc.full_major ();
  let first =
    Outcome.attempt log "job" (fun () ->
        let j, out = run_job w xml in
        let* () = check_output w ~input:xml out in
        if j.leaked <> 0 then Error (Printf.sprintf "%d leaked engine blocks" j.leaked)
        else Ok (j, Digest.string out))
  in
  match first with
  | None -> Outcome.aborted ~attempted:log.n_attempted ~failed:log.n_failed (Outcome.problems log)
  | Some (first, digest) ->
      let counts = Layers.exact_counts first.report in
      let same j out =
        if j.leaked <> 0 then Error (Printf.sprintf "%d leaked engine blocks" j.leaked)
        else if not (String.equal (Digest.string out) digest) then
          Error "output differs from the validated first output"
        else if Layers.exact_counts j.report <> counts then
          Error ("exact counts differ: " ^ Layers.pp_counts (Layers.exact_counts j.report))
        else Ok j
      in
      let timed = ref [ first ] in
      (* the next job starts only if it should end within the run *)
      let rec loop last_s =
        let elapsed = Stats.now_s () -. start in
        if log.n_attempted < min_jobs || elapsed +. last_s <= float_of_int seconds then begin
          Gc.full_major ();
          let t0 = Stats.now_s () in
          Option.iter
            (fun j -> timed := j :: !timed)
            (Outcome.attempt log "job" (fun () ->
                 let j, out = run_job w xml in
                 same j out));
          loop (Stats.now_s () -. t0)
        end
      in
      loop first.wall_s;
      let timed = List.rev !timed in
      let setups =
        List.init setup_samples (fun _ ->
            Gc.full_major ();
            setup_only w xml)
      in
      let r = first.report in
      let f = float_of_int in
      let walls = List.map (fun j -> j.wall_s) timed in
      let end_to_end =
        [
          Stats.row "mb_s" "MB/s" (List.map (fun s -> f bytes /. 1e6 /. s) walls);
          Stats.row "ns_per_event" "ns" (List.map (fun s -> s *. 1e9 /. f r.events) walls);
          Stats.exact "io_blocks_per_input_block" "ratio" (f (Layers.io r.total_io) /. f in_blocks);
          Stats.row "minor_words_per_event" "words"
            (List.map (fun j -> j.minor_words /. f r.events) timed);
          Stats.exact "peak_heap_mb" "MB" (Stats.words_mb first.top_heap_words);
          Stats.row "setup_s" "s" setups;
          Stats.row "ops_s" "ops/s" (List.map (fun s -> f r.elements /. s) walls);
          Stats.row "job_ms_p50" "ms" (List.map (fun s -> s *. 1e3) walls);
          Stats.p75_row "job_ms_p75" "ms" (List.map (fun s -> s *. 1e3) walls);
        ]
      in
      List.iter (Outcome.problem log "%s") (shape_violations w ~in_blocks r);
      let per_layer, spans =
        if not trace then ([], None)
        else begin
          Gc.full_major ();
          let spans = Bspans.create ~run_id (Obs.Tracer.create ~capacity:(1 lsl 18) ()) in
          let traced =
            Outcome.attempt log "traced job" (fun () ->
                let j, out = run_job ~spans w xml in
                Result.map (fun j -> (j, out)) (same j out))
          in
          match traced with
          | None -> ([], Some spans)
          | Some (tj, out) ->
              let xmlio = Layers.xmlio_rows spans ~input:xml ~output:out in
              let prof = Bspans.profile ~subphases:Layers.scan_subphases spans.Bspans.tracer in
              let leaked = List.fold_left (fun acc j -> acc + j.leaked) 0 timed in
              ( [
                  Stats.row "engine.admit_ms" "ms" (Bspans.durations_ms spans "engine.admit");
                  Stats.exact "engine.leaked_blocks" "blocks" (f (leaked + tj.leaked));
                ]
                @ xmlio
                @ Layers.sort_path_rows w ~bytes tj.report prof
                @ [
                    Stats.exact "obs.trace_overhead_frac" "ratio"
                      ((tj.wall_s /. Stats.median walls) -. 1.);
                  ],
                Some spans )
        end
      in
      {
        Outcome.attempted = log.n_attempted;
        failed = log.n_failed;
        problems = Outcome.problems log;
        shape =
          [
            ("bytes", bytes);
            ("elements", r.elements);
            ("events", r.events);
            ("height", r.height);
            ("input_blocks", in_blocks);
          ];
        fingerprint =
          Printf.sprintf "input=%s output=%s %s minor_words=%.0f"
            (Digest.to_hex (Digest.string xml))
            (Digest.to_hex digest) (Layers.pp_counts counts)
            (Stats.median (List.map (fun j -> j.minor_words) timed));
        end_to_end;
        per_layer;
        spans;
      }
