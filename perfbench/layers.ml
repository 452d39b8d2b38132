(* Per-layer metrics shared by the sort and ingest workloads: the sort
   path's counts, I/O breakdown and phase times, and the standalone
   parser and writer passes. *)

let io = Extmem.Io_stats.total

let component (r : Nexsort.report) name =
  match List.assoc_opt name r.Nexsort.breakdown with
  | Some s -> io s
  | None -> 0

(* the report's [io.stack_paging]: every stack device *)
let stack_paging r =
  component r "data stack" + component r "path stack" + component r "output location stack"

let runs_io r = component r "runs"

(* A registry gauge of the report, 0 when absent. *)
let gauge (r : Nexsort.report) name =
  let num = function
    | Obs.Json.Int i -> float_of_int i
    | Obs.Json.Float f -> f
    | _ -> 0.
  in
  match Option.bind (Obs.Json.member "gauges" r.Nexsort.metrics) (Obs.Json.member name) with
  | Some (Obs.Json.Obj _ as v) -> Option.fold ~none:0. ~some:num (Obs.Json.member "value" v)
  | Some v -> num v
  | None -> 0.

(* The counts two runs of one input must reproduce exactly. *)
let exact_counts (r : Nexsort.report) =
  [
    ("events", r.events);
    ("elements", r.elements);
    ("height", r.height);
    ("subtree_sorts", r.subtree_sorts);
    ("external_sorts", r.external_sorts);
    ("fragment_runs", r.fragment_runs);
    ("runs_created", r.runs_created);
    ("run_blocks", r.run_blocks);
    ("io.input", io r.input_io);
    ("io.stack_paging", stack_paging r);
    ("io.runs", runs_io r);
    ("io.output", io r.output_io);
    ("io.total", io r.total_io);
  ]

let pp_counts counts =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)

(* The sort's phases nested in its input scan. *)
let scan_subphases = [ "subtree_sorts"; "fragment_write"; "fragment_merge"; "root_sort" ]

(* Rows for the sort path of one traced sort: [r] is its report, [prof]
   the timeline the sort's phase spans landed on, profiled with
   [~subphases:scan_subphases]. *)
let sort_path_rows (w : Workload.t) ~bytes (r : Nexsort.report) (prof : Bspans.profile) =
  let f = float_of_int in
  let exact = Stats.exact in
  let hits, misses, evictions =
    List.fold_left
      (fun (h, m, e) (_, (s : Extmem.Frame_arena.owner_stats)) ->
        (h + s.hits, m + s.misses, e + s.evictions))
      (0, 0, 0) r.arena
  in
  let elements_per_block = max 1 (w.block_size / max 1 (bytes / max 1 r.elements)) in
  let bound =
    Iomodel.Model.nexsort_bound ~threshold_elements:(2 * elements_per_block)
      {
        Iomodel.Model.n_elements = r.elements;
        elements_per_block;
        memory_blocks = w.memory_blocks;
        max_fanout = w.max_fanout;
      }
  in
  [
    exact "core.scan_self_s" "s" (Bspans.outside_subphases_s prof "input_scan");
    exact "core.sort_phases_s" "s"
      (Bspans.total_s prof "input_scan" -. Bspans.outside_subphases_s prof "input_scan");
    exact "core.subtree_sort_s" "s" (Bspans.total_s prof "subtree_sorts");
    exact "core.fragment_write_s" "s" (Bspans.total_s prof "fragment_write");
    exact "core.root_sort_s" "s" (Bspans.total_s prof "root_sort");
    exact "core.output_s" "s" (Bspans.total_s prof "output");
    exact "core.subtree_sorts" "count" (f r.subtree_sorts);
    exact "core.external_sorts" "count" (f r.external_sorts);
    exact "core.fragment_runs" "count" (f r.fragment_runs);
    exact "core.runs_created" "count" (f r.runs_created);
    exact "core.run_blocks" "blocks" (f r.run_blocks);
    exact "extmem.io.input" "blocks" (f (io r.input_io));
    exact "extmem.io.stack_paging" "blocks" (f (stack_paging r));
    exact "extmem.io.runs" "blocks" (f (runs_io r));
    exact "extmem.io.output" "blocks" (f (io r.output_io));
    exact "extmem.stack.page_ins" "blocks"
      (gauge r "stack.data.page_ins" +. gauge r "stack.path.page_ins");
    exact "extmem.stack.writebacks" "blocks"
      (gauge r "stack.data.writebacks" +. gauge r "stack.path.writebacks");
    exact "extmem.arena.hit_ratio" "ratio"
      (if hits + misses = 0 then 0. else f hits /. f (hits + misses));
    exact "extmem.arena.accesses" "count" (f (hits + misses));
    exact "extmem.arena.evictions" "count" (f evictions);
    exact "extmem.device_ms" "ms" (f prof.Bspans.io_ns /. 1e6);
    exact "iomodel.io_over_nexsort_bound" "ratio" (f (io r.total_io) /. bound);
  ]

(* ------------------------------------------------------------------ *)
(* Standalone parser and writer passes *)

let time f =
  let t0 = Stats.now_s () in
  let x = f () in
  (Stats.now_s () -. t0, x)

let count_packed xml =
  let p = Xmlio.Parser.of_string xml in
  let rec go n =
    match Xmlio.Parser.next_packed p with
    | Some _ -> go (n + 1)
    | None -> n
  in
  go 0

let reparse xml f =
  let p = Xmlio.Parser.of_string xml in
  let rec go n =
    match Xmlio.Parser.next p with
    | Some e ->
        f e;
        go (n + 1)
    | None -> n
  in
  go 0

(* [input] through a [next_packed] pass; [output]'s events through a
   writer, less the time of re-parsing them alone.  Three alternating
   repetitions each. *)
let xmlio_rows spans ~input ~output =
  let reps = 3 in
  let mw0 = Gc.minor_words () in
  let _, events = time (fun () -> count_packed input) in
  let parse_words = (Gc.minor_words () -. mw0) /. float_of_int events in
  let parse_ns =
    List.init reps (fun _ ->
        let s, n =
          time (fun () -> Bspans.with_span spans "bench.parse_pass" (fun () -> count_packed input))
        in
        s *. 1e9 /. float_of_int n)
  in
  let buf = Buffer.create (String.length output + 4096) in
  let write_ns =
    List.init reps (fun _ ->
        Buffer.clear buf;
        let ws, n =
          time (fun () ->
              Bspans.with_span spans "bench.write_pass" (fun () ->
                  let w = Xmlio.Writer.to_buffer buf in
                  let n = reparse output (Xmlio.Writer.event w) in
                  Xmlio.Writer.close w;
                  n))
        in
        let ps, _ =
          time (fun () -> Bspans.with_span spans "bench.reparse_pass" (fun () -> reparse output ignore))
        in
        (ws -. ps) *. 1e9 /. float_of_int n)
  in
  [
    Stats.row "xmlio.parse_ns_per_event" "ns" parse_ns;
    Stats.exact "xmlio.parse_minor_words_per_event" "words" parse_words;
    Stats.row "xmlio.write_ns_per_event" "ns" write_ns;
  ]
