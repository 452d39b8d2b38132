(* The four benchmark workloads: their sort geometry and their seeded
   inputs.  Inputs are generated here and handed to the measured process
   as files, so the program under test only ever sees XML bytes. *)

type kind =
  | Sort
  | Ingest

(* How a sort's output is checked against its input.  Verify.Validator
   builds the path of the open elements on every event, so it is
   quadratic in depth (about half a minute on sort-deep); the deep
   document is instead compared byte for byte with Verify.Oracle's
   in-memory sort. *)
type check =
  | Validator
  | Oracle

type t = {
  name : string;
  kind : kind;
  check : check;
  block_size : int;
  memory_blocks : int;
  max_fanout : int;  (** the document's largest fan-out, for the I/O model *)
}

let sort_fit =
  { name = "sort-fit"; kind = Sort; check = Validator; block_size = 8192; memory_blocks = 256;
    max_fanout = 20 }

let sort_spill =
  { name = "sort-spill"; kind = Sort; check = Validator; block_size = 8192; memory_blocks = 16;
    max_fanout = 40_000 }

let sort_deep =
  { name = "sort-deep"; kind = Sort; check = Oracle; block_size = 8192; memory_blocks = 64;
    max_fanout = 40 }

(* 4 KiB blocks and 64 KiB of memory, so the update queue's insert tier
   overflows and spills runs *)
let ingest =
  { name = "ingest"; kind = Ingest; check = Validator; block_size = 4096; memory_blocks = 16;
    max_fanout = 1500 }

let all = [ sort_fit; sort_spill; sort_deep; ingest ]

let find name = List.find_opt (fun w -> w.name = name) all

let ordering = Nexsort.Ordering.by_attr "id"

let config ?tracer w =
  Nexsort.Config.make ~block_size:w.block_size ~memory_blocks:w.memory_blocks ?tracer ()

(* ------------------------------------------------------------------ *)
(* Generators *)

let exact ~seed ~avg_bytes fanouts =
  fst (Xmlgen.Gen.to_string (Xmlgen.Gen.exact_shape ~seed ~avg_bytes ~fanouts))

(* [chains] chains of [depth] levels under one root.  Each level is an
   [n] element holding a keyed [l] leaf with 20-80 bytes of text and the
   next level; keys are random, so every level arrives unsorted.
   Xmlgen has no generator this deep. *)
let deep_chains ~seed ~chains ~depth =
  let rng = Xmlgen.Splitmix.create seed in
  let buf = Buffer.create (chains * depth * 96) in
  let w = Xmlio.Writer.to_buffer buf in
  let emit = Xmlio.Writer.event w in
  let id () = [ ("id", string_of_int (Xmlgen.Splitmix.int rng 1_000_000)) ] in
  emit (Xmlio.Event.Start ("r", [ ("id", "0") ]));
  for _ = 1 to chains do
    for _ = 1 to depth do
      emit (Xmlio.Event.Start ("n", id ()));
      emit (Xmlio.Event.Start ("l", id ()));
      let len = Xmlgen.Splitmix.in_range rng 20 80 in
      emit (Xmlio.Event.Text (String.init len (fun _ -> Xmlgen.Splitmix.letter rng)));
      emit (Xmlio.Event.End "l")
    done;
    for _ = 1 to depth do
      emit (Xmlio.Event.End "n")
    done
  done;
  emit (Xmlio.Event.End "r");
  Xmlio.Writer.close w;
  Buffer.contents buf

(* The update stream of the ingest workload: [docs] update documents of
   60 top-level operations each over the base's top-level subtrees —
   9 delete + insert pairs, 18 replaces, 21 attribute upserts and 3
   deletes of keys the base never held, which the positional index
   drops.  Deletes and inserts balance, and replacements and inserts have
   the base's own subtree shape, so the base keeps its size.  No document
   touches a key twice, and keys the base holds more than once are never
   targeted. *)
let pad rng = String.init (Xmlgen.Splitmix.in_range rng 90 150) (fun _ -> Xmlgen.Splitmix.letter rng)

let fresh_children rng =
  List.init 6 (fun _ ->
      Xmlio.Tree.element
        ~attrs:[ ("id", string_of_int (Xmlgen.Splitmix.int rng 1_000_000)); ("pad", pad rng) ]
        "n3"
        [ Xmlio.Tree.text (Printf.sprintf "v%d" (Xmlgen.Splitmix.int rng 100_000)) ])

let update_stream ~seed ~docs base =
  let rng = Xmlgen.Splitmix.create (seed lxor 0x5eed) in
  let root, tops =
    match Xmlio.Tree.of_string base with
    | Xmlio.Tree.Element e ->
        ( e,
          List.filter_map
            (function
              | Xmlio.Tree.Element c -> List.assoc_opt "id" c.Xmlio.Tree.attrs | _ -> None)
            e.Xmlio.Tree.children )
    | Xmlio.Tree.Text _ -> invalid_arg "update_stream: text root"
  in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun k -> Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k)))
    tops;
  (* live keys: a swap-remove pool for uniform picks *)
  let live = Array.make (List.length tops + (docs * 60)) "" in
  let n_live = ref 0 in
  let add k =
    live.(!n_live) <- k;
    incr n_live
  in
  List.iter (fun k -> if Hashtbl.find seen k = 1 then add k) tops;
  let next_fresh = ref 1_000_000 in
  let doc i =
    let used = Hashtbl.create 64 in
    let rec pick () =
      let j = Xmlgen.Splitmix.int rng !n_live in
      if Hashtbl.mem used live.(j) then pick () else j
    in
    let take () =
      let j = pick () in
      let k = live.(j) in
      Hashtbl.replace used k ();
      (j, k)
    in
    let ops = ref [] in
    let push op = ops := op :: !ops in
    for _ = 1 to 9 do
      let j, k = take () in
      decr n_live;
      live.(j) <- live.(!n_live);
      push (Xmlio.Tree.element ~attrs:[ ("id", k); (Xmerge.Batch_update.op_attr, "delete") ] "n2" []);
      let f = string_of_int !next_fresh in
      incr next_fresh;
      Hashtbl.replace used f ();
      add f;
      push (Xmlio.Tree.element ~attrs:[ ("id", f); ("pad", pad rng) ] "n2" (fresh_children rng))
    done;
    for _ = 1 to 18 do
      let _, k = take () in
      push
        (Xmlio.Tree.element
           ~attrs:[ ("id", k); (Xmerge.Batch_update.op_attr, "replace"); ("pad", pad rng) ]
           "n2" (fresh_children rng))
    done;
    for _ = 1 to 21 do
      let _, k = take () in
      push (Xmlio.Tree.element ~attrs:[ ("id", k); ("v", Printf.sprintf "u%d" i) ] "n2" [])
    done;
    for j = 1 to 3 do
      let k = Printf.sprintf "%d" (9_000_000 + (i * 3) + j) in
      push (Xmlio.Tree.element ~attrs:[ ("id", k); (Xmerge.Batch_update.op_attr, "delete") ] "n2" [])
    done;
    (* arrival order is random, as from independent writers *)
    let arr = Array.of_list !ops in
    for a = Array.length arr - 1 downto 1 do
      let b = Xmlgen.Splitmix.int rng (a + 1) in
      let x = arr.(a) in
      arr.(a) <- arr.(b);
      arr.(b) <- x
    done;
    Xmlio.Tree.to_string (Xmlio.Tree.Element { root with Xmlio.Tree.children = Array.to_list arr })
  in
  List.init docs doc

let ops_per_update = 60

let deletes_per_update = 12

let flushes_per_session = 40

(* ------------------------------------------------------------------ *)
(* Input files *)

type inputs =
  | Doc of string  (** sort-*: the unsorted document *)
  | Stream of string * string list  (** ingest: unsorted base, update documents *)

let generate w ~seed =
  match w.name with
  | "sort-fit" -> Doc (exact ~seed ~avg_bytes:150 [ 20; 20; 20; 20 ])
  | "sort-spill" -> Doc (exact ~seed ~avg_bytes:120 [ 40_000; 4 ])
  | "sort-deep" -> Doc (deep_chains ~seed ~chains:40 ~depth:2000)
  | _ ->
      let base = exact ~seed ~avg_bytes:150 [ 1500; 6 ] in
      Stream (base, update_stream ~seed ~docs:flushes_per_session base)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let update_path dir i = Filename.concat dir (Printf.sprintf "update-%02d.xml" i)

let save dir = function
  | Doc xml -> write_file (Filename.concat dir "input.xml") xml
  | Stream (base, updates) ->
      write_file (Filename.concat dir "base.xml") base;
      List.iteri (fun i u -> write_file (update_path dir i) u) updates

let load w dir =
  match w.kind with
  | Sort -> Doc (read_file (Filename.concat dir "input.xml"))
  | Ingest ->
      Stream
        ( read_file (Filename.concat dir "base.xml"),
          List.init flushes_per_session (fun i -> read_file (update_path dir i)) )
