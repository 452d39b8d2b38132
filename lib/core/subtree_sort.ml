(* The forest machinery itself is the pure [Forest] module; this module
   binds it to a session.  Entries travel through as [Entry.View.t]s over
   their original encoded payloads: sorts and merges never decode names,
   attributes or text, and emitted bytes are the input bytes (End entries
   synthesized from level transitions are the only encoding done here). *)

type node = Forest.node = {
  view : Entry.View.t;
  mutable key : Key.t;
  mutable children : node list; (* reversed while building *)
}

let build_forest = Forest.build_forest

let sort_forest = Forest.sort_forest

let forest_size = Forest.forest_size

let emit_node (session : Session.t) emit n =
  Forest.emit_node session.Session.enc_scratch emit n

let write_node session w n = emit_node session (Extmem.Block_writer.write_record w) n

let sort_in_memory_source (session : Session.t) views =
  let depth_limit = session.Session.config.Config.depth_limit in
  Forest.forest_pull (sort_forest ~depth_limit (build_forest views))

let sort_in_memory_to (session : Session.t) views emit =
  let depth_limit = session.Session.config.Config.depth_limit in
  let forest = sort_forest ~depth_limit (build_forest views) in
  List.iter (emit_node session emit) forest

let sort_in_memory (session : Session.t) views =
  let w = Extmem.Run_store.begin_run session.Session.runs in
  sort_in_memory_to session views (Extmem.Block_writer.write_record w);
  Extmem.Run_store.finish_run session.Session.runs w

(* ---- key-path external sort ---- *)

(* The pure record streams and reconstruction live in [Forest]; these
   wrappers bind them to the session's encoder. *)

let forward_records (session : Session.t) ~depth_limit input =
  Forest.forward_records ~enc:session.Session.enc_scratch ~depth_limit input

let reverse_records (session : Session.t) ~depth_limit input =
  Forest.reverse_records ~enc:session.Session.enc_scratch ~depth_limit input

let sort_external_to (session : Session.t) ~input ~scan emit =
  let depth_limit = session.Session.config.Config.depth_limit in
  let records =
    match scan with
    | `Forward -> forward_records session ~depth_limit input
    | `Reverse -> reverse_records session ~depth_limit input
  in
  let output, finish = Forest.keypath_output ~enc:session.Session.enc_scratch emit in
  let stats =
    try
      Session.with_temp session (fun temp ->
          Extsort.External_sort.sort ~arena:session.Session.arena
            ~budget:session.Session.budget ~temp ~cmp:Keypath.compare_encoded ~input:records
            ~output ())
    with e ->
      (* The input callback pops the data stack, which may have re-grown
         its borrowed window mid-sort; shed it so an aborted subtree sort
         leaves the budget exactly as a completed one would. *)
      Session.reclaim session;
      raise e
  in
  finish ();
  stats

let sort_external (session : Session.t) ~input ~scan =
  let w = Extmem.Run_store.begin_run session.Session.runs in
  let stats = sort_external_to session ~input ~scan (Extmem.Block_writer.write_record w) in
  let id = Extmem.Run_store.finish_run session.Session.runs w in
  (id, stats)

type streamed = {
  pull : unit -> string option;
  close : unit -> unit;
  stats : Extsort.External_sort.stats;
}

(* Streaming variant of [sort_external_to]: run formation and all but the
   last merge pass happen here (consuming [input]); the returned pull is
   the final merge with entry reconstruction fused on top, so the root
   sort's sorted entries flow straight into the output phase without a
   materialised run.  The scratch device outlives [Session.with_temp]'s
   scope, so its retirement bookkeeping is inlined into [close]. *)
let sort_external_source (session : Session.t) ~input ~scan =
  let depth_limit = session.Session.config.Config.depth_limit in
  let records =
    match scan with
    | `Forward -> forward_records session ~depth_limit input
    | `Reverse -> reverse_records session ~depth_limit input
  in
  Session.reclaim session;
  let temp = Config.scratch_device session.Session.config ~name:"temp" in
  let retired = ref false in
  let retire () =
    if not !retired then begin
      retired := true;
      Extmem.Io_stats.accumulate ~into:session.Session.temp_stats (Extmem.Device.stats temp);
      session.Session.temp_sim_ms <-
        session.Session.temp_sim_ms +. Extmem.Device.simulated_ms temp;
      Extmem.Device.close temp
    end
  in
  let o =
    try
      Extsort.External_sort.sort_open ~arena:session.Session.arena
        ~budget:session.Session.budget ~temp ~cmp:Keypath.compare_encoded ~input:records ()
    with e ->
      (* As in [sort_external_to]: reclaim any blocks the data stack
         re-borrowed while the aborted sort was draining it. *)
      Session.reclaim session;
      retire ();
      raise e
  in
  let pending = Queue.create () in (* encoded entries ready to emit *)
  let output, finish =
    Forest.keypath_output ~enc:session.Session.enc_scratch (fun p -> Queue.push p pending)
  in
  let finished = ref false in
  let rec pull () =
    if not (Queue.is_empty pending) then Some (Queue.pop pending)
    else if !finished then None
    else
      match o.Extsort.External_sort.pull () with
      | Some record ->
          output record;
          pull ()
      | None ->
          finished := true;
          finish ();
          o.Extsort.External_sort.close ();
          retire ();
          pull ()
  in
  let close () =
    o.Extsort.External_sort.close ();
    retire ()
  in
  { pull; close; stats = o.Extsort.External_sort.stats }

(* ---- fragments (graceful degeneration, §3.2) ---- *)

let header_prefix = '\xFF'

let encode_header key pos =
  let buf = Buffer.create 16 in
  Buffer.add_char buf header_prefix;
  Key.encode buf key;
  Extmem.Codec.put_varint buf pos;
  Buffer.contents buf

let decode_header s =
  let c = Extmem.Codec.cursor ~pos:1 s in
  let key = Key.decode c in
  let pos = Extmem.Codec.get_varint c in
  (key, pos)

let is_header s = String.length s > 0 && s.[0] = header_prefix

let write_fragment (session : Session.t) nodes =
  let depth_limit = session.Session.config.Config.depth_limit in
  (* below the depth limit chunks must keep document order: their headers
     carry Null keys so the merge falls back to the position tiebreak *)
  let header_key n =
    match depth_limit with
    | Some d when Entry.View.level n.view > d + 1 -> Key.Null
    | Some _ | None -> n.key
  in
  let w = Extmem.Run_store.begin_run session.Session.runs in
  List.iter
    (fun n ->
      Extmem.Block_writer.write_record w
        (encode_header (header_key n) (Entry.View.pos n.view));
      write_node session w n)
    nodes;
  Extmem.Run_store.finish_run session.Session.runs w

(* Fragment merges account their reader buffers against the budget, but
   clamped to what is free: [fan_in] guarantees at least a 2-way merge
   even on degenerate budgets (the paper's minimum), so the floor may
   over-commit by design rather than fail. *)
let reserve_clamped (session : Session.t) ~who n =
  let budget = session.Session.budget in
  let n = min n (Extmem.Memory_budget.available_blocks budget) in
  Extmem.Memory_budget.reserve budget ~who n;
  n

(* Chunk-level pull merge of fragment runs.  [keep_headers] preserves
   chunk headers (intermediate passes); the final pass drops them. *)
let fragment_batch_pull (session : Session.t) ~keep_headers ~fragments =
  (* each reader's next chunk header; readers that have one wait in a
     heap ordered by (key, pos, reader index) for stability *)
  let heads = Array.make (List.length fragments) (Key.Null, 0) in
  let less i j =
    let ki, pi = heads.(i) and kj, pj = heads.(j) in
    let c = Key.compare ki kj in
    c < 0 || (c = 0 && (pi < pj || (pi = pj && i < j)))
  in
  let waiting = Extsort.Heap.create ~less in
  let wait i header =
    heads.(i) <- decode_header header;
    Extsort.Heap.push waiting i
  in
  let readers =
    Array.of_list
      (List.mapi
         (fun i id ->
           let r = Extmem.Run_store.open_run session.Session.runs id in
           (match Extmem.Block_reader.read_record r with
           | Some h when is_header h -> wait i h
           | Some _ -> raise (Extmem.Codec.Corrupt "fragment run does not start with a header")
           | None -> ());
           r)
         fragments)
  in
  let current = ref (-1) in (* reader whose chunk is being copied *)
  let rec pull () =
    if !current >= 0 then
      match Extmem.Block_reader.read_record readers.(!current) with
      | None ->
          current := -1;
          pull ()
      | Some rec_ when is_header rec_ ->
          wait !current rec_;
          current := -1;
          pull ()
      | Some _ as r -> r
    else if Extsort.Heap.is_empty waiting then None
    else begin
      let i = Extsort.Heap.pop waiting in
      current := i;
      if keep_headers then begin
        let k, p = heads.(i) in
        Some (encode_header k p)
      end
      else pull ()
    end
  in
  pull

let merge_fragment_batch session ~keep_headers ~fragments emit =
  let pull = fragment_batch_pull session ~keep_headers ~fragments in
  let rec go () =
    match pull () with
    | None -> ()
    | Some r ->
        emit r;
        go ()
  in
  go ()

let fan_in (session : Session.t) =
  max 2 (Extmem.Memory_budget.available_blocks session.Session.budget - 1)

let rec reduce_fragments session fragments =
  Session.reclaim session;
  let k = fan_in session in
  if List.length fragments <= k then fragments
  else begin
    let rec batches = function
      | [] -> []
      | ids ->
          let rec take n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: tl -> take (n - 1) (x :: acc) tl
          in
          let b, rest = take k [] ids in
          b :: batches rest
    in
    let next =
      List.map
        (fun batch ->
          let held =
            reserve_clamped session ~who:"fragment merge" (List.length batch + 1)
          in
          Fun.protect
            ~finally:(fun () ->
              Extmem.Memory_budget.release session.Session.budget ~who:"fragment merge" held)
            (fun () ->
              let w = Extmem.Run_store.begin_run session.Session.runs in
              merge_fragment_batch session ~keep_headers:true ~fragments:batch
                (Extmem.Block_writer.write_record w);
              Extmem.Run_store.finish_run session.Session.runs w))
        (batches fragments)
    in
    reduce_fragments session next
  end

(* the wrapped, merged element; fragments must already fit the fan-in.
   [start_view]'s payload passes through verbatim. *)
let merged_pull session ~start_view ~fragments =
  let inner = fragment_batch_pull session ~keep_headers:false ~fragments in
  let st = ref `Start in
  let rec pull () =
    match !st with
    | `Start ->
        st := `Body;
        Some (Entry.View.payload start_view)
    | `Body -> (
        match inner () with
        | Some r -> Some r
        | None ->
            st := `Tail;
            pull ())
    | `Tail -> (
        st := `Done;
        match Entry.View.kind start_view with
        | Entry.View.Vstart ->
            Some
              (Entry.encode_end_to session.Session.enc_scratch
                 ~level:(Entry.View.level start_view) ~pos:(Entry.View.pos start_view)
                 ~key:None)
        | Entry.View.Vend | Entry.View.Vtext | Entry.View.Vrun_ptr -> None)
    | `Done -> None
  in
  pull

let merge_fragments_source (session : Session.t) ~start_view ~fragments =
  (* reduce first: intermediate merge passes open their own runs *)
  let fragments = reduce_fragments session fragments in
  let held = reserve_clamped session ~who:"fragment merge fan-in" (List.length fragments) in
  let released = ref false in
  let release () =
    if not !released then begin
      released := true;
      Extmem.Memory_budget.release session.Session.budget ~who:"fragment merge fan-in" held
    end
  in
  let inner = merged_pull session ~start_view ~fragments in
  let pull () =
    match inner () with
    | Some r -> Some r
    | None ->
        release ();
        None
  in
  (pull, release)

let drain_into pull emit =
  let rec go () =
    match pull () with
    | None -> ()
    | Some r ->
        emit r;
        go ()
  in
  go ()

let merge_fragments_to (session : Session.t) ~start_view ~fragments emit =
  let pull, close = merge_fragments_source session ~start_view ~fragments in
  Fun.protect ~finally:close (fun () -> drain_into pull emit)

let merge_fragments (session : Session.t) ~start_view ~fragments =
  let pull, close = merge_fragments_source session ~start_view ~fragments in
  Fun.protect ~finally:close (fun () ->
      let w = Extmem.Run_store.begin_run session.Session.runs in
      drain_into pull (Extmem.Block_writer.write_record w);
      Extmem.Run_store.finish_run session.Session.runs w)
