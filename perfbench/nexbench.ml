(* nexbench: the repository benchmark.

     nexbench gen --workload W --seed N --dir D
       write workload W's inputs for seed N into D
     nexbench run --workload W --seed N --dir D --seconds S --trace 0|1
                  [--trace-file F --nextrace EXE]
       measure W on the inputs in D for about S seconds and print every
       metric, then one JSON line {correct, attempted, failed, metrics}

   [perfbench/run.py] builds this program, generates the inputs in a
   process of their own (so neither generation time nor its heap shows
   in any metric) and runs it.  With --trace 1 the run ends with one
   traced job (sort-* ) or session (ingest), whose per-layer metrics are
   the JSON line's; the trace goes to F and must pass [nextrace --check]. *)

(* Every end-to-end metric, and whether it is in the JSON line.  The
   wall-clock throughput and latency figures are printed only: on a
   shared machine their run-to-run spread (10-27% between quartiles of
   ten runs) is wider than the largest bound BENCHMARK.json may set, so
   they would gate on noise.  Set-up time is the exception the JSON line
   must carry. *)
let end_to_end_catalogue =
  [
    ("mb_s", false);
    ("ns_per_event", false);
    ("io_blocks_per_input_block", true);
    ("minor_words_per_event", true);
    ("peak_heap_mb", true);
    ("setup_s", true);
    ("ops_s", false);
    ("job_ms_p50", false);
    ("job_ms_p75", false);
  ]

(* Every per-layer metric: name, unit, and whether it is in the JSON
   line.  Times that are structurally zero on some workload (a phase the
   workload never enters) are printed but left out of the JSON line, so
   no reported time reads the same on every run; core.sort_phases_s, the
   sum of the four sort phases nested in the scan, stands for them. *)
let per_layer_catalogue =
  [
    ("engine.admit_ms", "ms", true);
    ("engine.leaked_blocks", "blocks", true);
    ("xmlio.parse_ns_per_event", "ns", true);
    ("xmlio.parse_minor_words_per_event", "words", true);
    ("xmlio.write_ns_per_event", "ns", true);
    ("core.scan_self_s", "s", true);
    ("core.sort_phases_s", "s", true);
    ("core.subtree_sort_s", "s", false);
    ("core.fragment_write_s", "s", false);
    ("core.root_sort_s", "s", false);
    ("core.output_s", "s", true);
    ("core.subtree_sorts", "count", true);
    ("core.external_sorts", "count", true);
    ("core.fragment_runs", "count", true);
    ("core.runs_created", "count", true);
    ("core.run_blocks", "blocks", true);
    ("extmem.io.input", "blocks", true);
    ("extmem.io.stack_paging", "blocks", true);
    ("extmem.io.runs", "blocks", true);
    ("extmem.io.output", "blocks", true);
    ("extmem.stack.page_ins", "blocks", true);
    ("extmem.stack.writebacks", "blocks", true);
    ("extmem.arena.hit_ratio", "ratio", true);
    ("extmem.arena.accesses", "count", true);
    ("extmem.arena.evictions", "count", true);
    ("extmem.device_ms", "ms", true);
    ("iomodel.io_over_nexsort_bound", "ratio", true);
    ("extsort.pq.spilled_records", "count", true);
    ("extsort.pq.run_blocks", "blocks", true);
    ("extsort.pq.compactions", "count", true);
    ("xmerge.ingest.add_update_ms", "ms", false);
    ("xmerge.ingest.flush_reads_per_base_block", "ratio", true);
    ("xmerge.ingest.flush_writes_per_base_block", "ratio", true);
    ("xmerge.ingest.index_dropped_frac", "ratio", true);
    ("xmerge.ingest.flush_drift", "ratio", true);
    ("xmerge.ingest.heap_growth_mb", "MB", true);
    ("obs.trace_overhead_frac", "ratio", true);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("nexbench: " ^ s); exit 2) fmt

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable dir : string;
  mutable seconds : int;
  mutable trace : bool;
  mutable trace_file : string;
  mutable nextrace : string;
}

let parse_opts args =
  let o =
    { workload = ""; seed = 1; dir = ""; seconds = 10; trace = false; trace_file = ""; nextrace = "" }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- s), "NAME workload");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N input seed");
      ("--dir", Arg.String (fun s -> o.dir <- s), "DIR input directory");
      ("--seconds", Arg.Int (fun n -> o.seconds <- n), "S measuring time");
      ("--trace", Arg.Int (fun n -> o.trace <- n = 1), "0|1 traced run");
      ("--trace-file", Arg.String (fun s -> o.trace_file <- s), "FILE trace output");
      ("--nextrace", Arg.String (fun s -> o.nextrace <- s), "EXE trace checker");
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) args spec (fun a -> die "unexpected argument %s" a) "nexbench"
   with Arg.Bad msg | Arg.Help msg -> die "%s" msg);
  if o.dir = "" then die "--dir is required";
  match Workload.find o.workload with
  | Some w -> (o, w)
  | None -> die "unknown workload %S" o.workload

let gen o w =
  let t0 = Stats.now_s () in
  Workload.save o.dir (Workload.generate w ~seed:o.seed);
  Printf.printf "generated %s (seed %d) in %.2fs\n" w.Workload.name o.seed (Stats.now_s () -. t0)

(* The traced run's file checks: nothing dropped, and the timeline
   passes [nextrace --check]. *)
let check_trace o spans =
  Bspans.write spans ~path:o.trace_file;
  let dropped = Obs.Tracer.dropped spans.Bspans.tracer in
  let problems = if dropped > 0 then [ Printf.sprintf "trace dropped %d records" dropped ] else [] in
  flush stdout;
  let pid =
    Unix.create_process o.nextrace
      [| o.nextrace; "--check"; o.trace_file |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> problems
  | _ -> problems @ [ "nextrace --check rejected " ^ o.trace_file ]

let run o (w : Workload.t) =
  let run_id = Printf.sprintf "%s-s%d-%d" w.name o.seed (Unix.getpid ()) in
  let outcome =
    match Workload.load w o.dir with
    | Workload.Doc xml -> Sortbench.measure w xml ~seconds:o.seconds ~trace:o.trace ~run_id
    | Workload.Stream (base, updates) ->
        Ingestbench.measure w ~base ~updates ~seconds:o.seconds ~trace:o.trace ~run_id
  in
  let trace_problems =
    match outcome.Outcome.spans with
    | Some spans when o.trace -> check_trace o spans
    | _ -> []
  in
  let problems = outcome.problems @ trace_problems in
  let known = List.map (fun (n, _, _) -> n) per_layer_catalogue in
  let stray =
    List.filter_map
      (fun (r : Stats.row) ->
        if List.mem_assoc r.name end_to_end_catalogue || List.mem r.name known then None
        else Some ("uncatalogued metric " ^ r.name))
      (outcome.end_to_end @ outcome.per_layer)
  in
  let problems = problems @ stray in
  Printf.printf "workload %s, seed %d, run %s\n  %s\n" w.name o.seed run_id
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) outcome.shape));
  Printf.printf "end-to-end (tracing off; value = median of the samples, q3 for *_p75):\n";
  List.iter (Stats.pp_row stdout) outcome.end_to_end;
  let fail_frac = float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted) in
  Printf.printf "  %-44s %-6s value=%-13.6g n=%d attempted, %d failed\n" "fail_frac" "ratio" fail_frac
    outcome.attempted outcome.failed;
  let layer_row (name, unit_, _) =
    List.find_opt (fun (r : Stats.row) -> r.name = name) outcome.per_layer
    |> Option.value ~default:(Stats.exact name unit_ 0.)
  in
  if o.trace then begin
    Printf.printf "per-layer (traced run; 0 where the workload does not enter the layer):\n";
    List.iter (fun e -> Stats.pp_row stdout (layer_row e)) per_layer_catalogue
  end;
  Printf.printf "fingerprint: %s\n" outcome.fingerprint;
  List.iter (Printf.printf "PROBLEM: %s\n") problems;
  let correct = outcome.failed = 0 && problems = [] && outcome.end_to_end <> [] in
  let metrics =
    if o.trace then
      List.filter_map (fun ((_, _, in_json) as e) -> if in_json then Some (layer_row e) else None)
        per_layer_catalogue
    else
      List.filter (fun (r : Stats.row) -> List.assoc r.name end_to_end_catalogue) outcome.end_to_end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct
    (max 1 outcome.attempted) outcome.failed (Stats.json_metrics metrics);
  exit (if correct then 0 else 1)

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then die "usage: nexbench (gen|run) --workload W --seed N --dir D ...";
  let rest = Array.append [| "nexbench" |] (Array.sub argv 2 (Array.length argv - 2)) in
  let o, w = parse_opts rest in
  match argv.(1) with
  | "gen" -> gen o w
  | "run" ->
      if o.trace && (o.trace_file = "" || o.nextrace = "") then
        die "--trace 1 needs --trace-file and --nextrace";
      run o w
  | cmd -> die "unknown command %s" cmd
