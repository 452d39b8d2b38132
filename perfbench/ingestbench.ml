(* The ingest workload: one closed-loop client keeping a sorted base live
   under a stream of update documents, one flush per document, through
   the daemon's path — Engine.run, then Xmerge.Ingest.create /
   add_update / flush inside the job. *)

type flush = {
  index : int;  (** position in the update stream *)
  add_s : float;
  flush_s : float;
  minor_words : float;  (** allocated over add_update + flush *)
  events : int;  (** update document + new base *)
  heap_words : int;  (** major heap right after the flush *)
  report : Xmerge.Ingest.flush_report;
  digest : Digest.t;  (** of the new base *)
}

type session = {
  flushes : flush list;
  top_heap_words : int;  (** major-heap peak after the last flush *)
  final_base : string;
  leaked : int;
}

let base_blocks (w : Workload.t) bytes = (bytes + w.block_size - 1) / w.block_size

(* One session over the whole stream.  Each flush's new base is checked
   for sortedness outside the timed region; a flush that raises or
   leaves an unsorted base fails, and a raise ends the session. *)
let run_session ?(spans = Bspans.create ~run_id:"" Obs.Tracer.null) log (w : Workload.t) ~base
    ~updates ~update_events =
  let tracer = spans.Bspans.tracer in
  let config = Workload.config ~tracer w in
  let eng = Engine.for_config ~tracer config in
  Fun.protect
    ~finally:(fun () -> Engine.destroy eng)
    (fun () ->
      Bspans.begin_ spans "engine.admit";
      let flushes, top_heap_words, final_base =
        Engine.run eng ~tenant:"bench" config (fun _job session ->
            Bspans.end_ spans "engine.admit";
            let ing =
              Bspans.with_span spans "ingest.create" (fun () ->
                  Xmerge.Ingest.create ~config ~session ~ordering:Workload.ordering ~base ())
            in
            Fun.protect
              ~finally:(fun () -> Xmerge.Ingest.destroy ing)
              (fun () ->
                let alive = ref true in
                let flushes =
                  List.filter_map
                    (fun (index, (doc, doc_events)) ->
                      if not !alive then begin
                        ignore (Outcome.attempt log "flush" (fun () -> Error "session ended early"));
                        None
                      end
                      else
                        Outcome.attempt log "flush" (fun () ->
                            match
                              let mw0 = Gc.minor_words () in
                              let a0 = Stats.now_s () in
                              Bspans.with_span spans "ingest.add_update" (fun () ->
                                  Xmerge.Ingest.add_update ing doc);
                              let a1 = Stats.now_s () in
                              let report =
                                Bspans.with_span spans "ingest.flush" (fun () ->
                                    Xmerge.Ingest.flush ing)
                              in
                              let a2 = Stats.now_s () in
                              (a1 -. a0, a2 -. a1, Gc.minor_words () -. mw0, report)
                            with
                            | exception e ->
                                alive := false;
                                raise e
                            | add_s, flush_s, minor_words, report -> (
                                let heap_words = (Gc.quick_stat ()).Gc.heap_words in
                                let out = Xmerge.Ingest.contents ing in
                                let v = Verify.Validator.of_string ~ordering:Workload.ordering out in
                                match v.Verify.Validator.findings with
                                | f :: _ ->
                                    Error
                                      (Printf.sprintf "flush left an unsorted base (at %s: %s)"
                                         f.Verify.Validator.path f.Verify.Validator.detail)
                                | [] ->
                                    Ok
                                      {
                                        index;
                                        add_s;
                                        flush_s;
                                        minor_words;
                                        events = doc_events + (2 * v.elements) + v.text_nodes;
                                        heap_words;
                                        report;
                                        digest = Digest.string out;
                                      })))
                    (List.mapi (fun i x -> (i, x)) (List.combine updates update_events))
                in
                let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
                (flushes, top_heap_words, Xmerge.Ingest.contents ing)))
      in
      { flushes; top_heap_words; final_base; leaked = Engine.leaked_blocks eng })

(* Set-up alone: engine creation, admission and Ingest.create. *)
let setup_only (w : Workload.t) ~base =
  let config = Workload.config w in
  let t0 = Stats.now_s () in
  let eng = Engine.for_config config in
  Fun.protect
    ~finally:(fun () -> Engine.destroy eng)
    (fun () ->
      Engine.run eng ~tenant:"bench" config (fun _job session ->
          let ing = Xmerge.Ingest.create ~config ~session ~ordering:Workload.ordering ~base () in
          let s = Stats.now_s () -. t0 in
          Xmerge.Ingest.destroy ing;
          s))

(* The reference: the sorted base, and the digest of the base after each
   update document when Batch_update applies the stream in order. *)
let oracle (w : Workload.t) ~base ~updates =
  let config = Workload.config w in
  let sorted, report = Nexsort.sort_string ~config ~ordering:Workload.ordering base in
  let _, rev =
    List.fold_left
      (fun (state, acc) doc ->
        let next, _ =
          Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:Workload.ordering ~base:state
            ~updates:doc ()
        in
        (next, Digest.string next :: acc))
      (sorted, []) updates
  in
  (sorted, report, List.rev rev)

(* The counts a traced session must reproduce. *)
let flush_counts (fl : flush) =
  let r = fl.report in
  [
    Layers.io r.flush_io;
    r.batch_ops;
    r.index_dropped;
    r.pq_run_blocks;
    r.pq.spilled_records;
    r.pq.compactions;
    r.base_bytes;
  ]

let session_counts s = List.map flush_counts s.flushes

(* set-up alone, a fixed number of times after the sessions *)
let setup_samples = 16

let measure (w : Workload.t) ~base ~updates ~seconds ~trace ~run_id =
  let log = Outcome.log () in
  let update_events = List.map Layers.count_packed updates in
  let start = Stats.now_s () in
  let sessions = ref [] in
  let rec loop () =
    Gc.full_major ();
    let t0 = Stats.now_s () in
    sessions := run_session log w ~base ~updates ~update_events :: !sessions;
    let took = Stats.now_s () -. t0 in
    if Stats.now_s () -. start +. took <= float_of_int seconds then loop ()
  in
  (match loop () with
  | () -> ()
  | exception e -> Outcome.problem log "session raised %s" (Printexc.to_string e));
  let sessions = List.rev !sessions in
  match sessions with
  | [] -> Outcome.aborted ~attempted:log.n_attempted ~failed:(log.n_failed + 1) (Outcome.problems log)
  | first :: _ ->
      let setups =
        List.init setup_samples (fun _ ->
            Gc.full_major ();
            setup_only w ~base)
      in
      (* correctness outside every timed region: each flush's base must
         equal the oracle's state after the same prefix of the stream,
         and no session may leak *)
      let sorted, base_report, expected = oracle w ~base ~updates in
      List.iter
        (fun s ->
          if s.leaked <> 0 then Outcome.problem log "session leaked %d engine blocks" s.leaked)
        sessions;
      let check_flushes s =
        List.iter
          (fun (fl : flush) ->
            if not (Digest.equal fl.digest (List.nth expected fl.index)) then begin
              log.n_failed <- log.n_failed + 1;
              Outcome.problem log "flush %d: base differs from Batch_update's sequential result"
                (fl.index + 1)
            end)
          s.flushes
      in
      List.iter check_flushes sessions;
      let base_bytes0 = String.length sorted in
      List.iter
        (fun s ->
          List.iter
            (fun (fl : flush) ->
              let b = fl.report.base_bytes in
              if abs (b - base_bytes0) * 10 > base_bytes0 then
                Outcome.problem log "ingest: base left +-10%% of its start (%d vs %d bytes)" b
                  base_bytes0)
            s.flushes)
        sessions;
      if List.exists (fun s -> session_counts s <> session_counts first) sessions then
        Outcome.problem log "ingest: sessions disagree on exact counts";
      let f = float_of_int in
      let fls = first.flushes in
      let all_fls = List.concat_map (fun s -> s.flushes) sessions in
      let sum g l = List.fold_left (fun acc x -> acc + g x) 0 l in
      let fsum g l = List.fold_left (fun acc x -> acc +. g x) 0. l in
      let n_fls = List.length fls in
      let last = List.nth_opt fls (n_fls - 1) in
      let pq_run_blocks = Option.fold ~none:0 ~some:(fun fl -> fl.report.pq_run_blocks) last in
      let base_blocks_sum = sum (fun fl -> base_blocks w fl.report.base_bytes) fls in
      let flush_io = sum (fun fl -> Layers.io fl.report.flush_io) fls in
      let ms l = List.map (fun fl -> fl.flush_s *. 1e3) l in
      let end_to_end =
        [
          Stats.row "mb_s" "MB/s"
            (List.map (fun fl -> f fl.report.base_bytes /. 1e6 /. fl.flush_s) all_fls);
          Stats.row "ns_per_event" "ns"
            (List.map (fun fl -> fl.flush_s *. 1e9 /. f fl.events) all_fls);
          Stats.exact "io_blocks_per_input_block" "ratio"
            (f (flush_io + (2 * pq_run_blocks)) /. f base_blocks_sum);
          Stats.exact "minor_words_per_event" "words"
            (fsum (fun fl -> fl.minor_words) fls /. f (sum (fun fl -> fl.events) fls));
          Stats.exact "peak_heap_mb" "MB" (Stats.words_mb first.top_heap_words);
          Stats.row "setup_s" "s" setups;
          Stats.row "ops_s" "ops/s"
            (List.map
               (fun s ->
                 f (Workload.ops_per_update * List.length s.flushes)
                 /. fsum (fun fl -> fl.add_s +. fl.flush_s) s.flushes)
               sessions);
          Stats.row "job_ms_p50" "ms" (ms all_fls);
          Stats.p75_row "job_ms_p75" "ms" (ms all_fls);
        ]
      in
      let per_layer, spans =
        if not trace then ([], None)
        else begin
          Gc.full_major ();
          let spans = Bspans.create ~run_id (Obs.Tracer.create ~capacity:(1 lsl 18) ()) in
          match run_session ~spans log w ~base ~updates ~update_events with
          | exception e ->
              Outcome.problem log "traced session raised %s" (Printexc.to_string e);
              ([], Some spans)
          | traced ->
          check_flushes traced;
          if session_counts traced <> session_counts first then
            Outcome.problem log "traced session's exact counts differ from the untraced one's";
          let prof = Bspans.profile ~subphases:Layers.scan_subphases spans.Bspans.tracer in
          let xmlio = Layers.xmlio_rows spans ~input:base ~output:first.final_base in
          let median_ms l = Stats.median (ms l) in
          let first10 = List.filteri (fun i _ -> i < 10) fls in
          let last10 = List.filteri (fun i _ -> i >= n_fls - 10) fls in
          let heap_growth =
            match (fls, last) with
            | fl1 :: _, Some fln -> Stats.words_mb (fln.heap_words - fl1.heap_words)
            | _ -> 0.
          in
          let pq = Option.map (fun fl -> fl.report.pq) last in
          let pq_stat g = f (Option.fold ~none:0 ~some:g pq) in
          let deletes = Workload.deletes_per_update * n_fls in
          ( [
              Stats.row "engine.admit_ms" "ms" (Bspans.durations_ms spans "engine.admit");
              Stats.exact "engine.leaked_blocks" "blocks"
                (f (sum (fun s -> s.leaked) (traced :: sessions)));
            ]
            @ xmlio
            @ Layers.sort_path_rows w ~bytes:(String.length base) base_report prof
            @ [
                Stats.exact "extsort.pq.spilled_records" "count"
                  (pq_stat (fun p -> p.Extsort.Ext_pq.spilled_records));
                Stats.exact "extsort.pq.run_blocks" "blocks" (f pq_run_blocks);
                Stats.exact "extsort.pq.compactions" "count"
                  (pq_stat (fun p -> p.Extsort.Ext_pq.compactions));
                Stats.row "xmerge.ingest.add_update_ms" "ms"
                  (Bspans.durations_ms spans "ingest.add_update");
                Stats.exact "xmerge.ingest.flush_reads_per_base_block" "ratio"
                  (f (sum (fun fl -> fl.report.flush_io.Extmem.Io_stats.reads) fls)
                  /. f base_blocks_sum);
                Stats.exact "xmerge.ingest.flush_writes_per_base_block" "ratio"
                  (f (sum (fun fl -> fl.report.flush_io.Extmem.Io_stats.writes) fls)
                  /. f base_blocks_sum);
                Stats.exact "xmerge.ingest.index_dropped_frac" "ratio"
                  (f (sum (fun fl -> fl.report.index_dropped) fls) /. f deletes);
                Stats.exact "xmerge.ingest.flush_drift" "ratio" (median_ms last10 /. median_ms first10);
                Stats.exact "xmerge.ingest.heap_growth_mb" "MB" heap_growth;
                Stats.exact "obs.trace_overhead_frac" "ratio"
                  ((median_ms traced.flushes /. median_ms all_fls) -. 1.);
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
            ("bytes", String.length base);
            ("elements", base_report.elements);
            ("events", base_report.events);
            ("height", base_report.height);
            ("input_blocks", base_blocks w (String.length base));
            ("update_docs", List.length updates);
          ];
        fingerprint =
          Printf.sprintf
            "input=%s output=%s flush_io=%d index_dropped=%d pq_run_blocks=%d spilled_records=%d \
             compactions=%d minor_words=%.0f"
            (Digest.to_hex (Digest.string (String.concat "\000" (base :: updates))))
            (Option.fold ~none:"-" ~some:(fun fl -> Digest.to_hex fl.digest) last)
            flush_io
            (sum (fun fl -> fl.report.index_dropped) fls)
            pq_run_blocks
            (Option.fold ~none:0 ~some:(fun fl -> fl.report.pq.spilled_records) last)
            (Option.fold ~none:0 ~some:(fun fl -> fl.report.pq.compactions) last)
            (fsum (fun fl -> fl.minor_words) fls);
        end_to_end;
        per_layer;
        spans;
      }
