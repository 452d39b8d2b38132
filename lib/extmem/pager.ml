(* A fixed frame array mapped onto device blocks.  A miss takes the last
   free frame if any, else the frame with the lowest touch stamp; only
   dirty frames are written back. *)

type frame = {
  mutable block : int; (* -1 = free *)
  data : bytes;
  mutable dirty : bool;
  mutable stamp : int; (* tick of the last access *)
}

type t = {
  dev : Device.t;
  frames : frame array;
  map : (int, int) Hashtbl.t; (* block -> frame index *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

let create ~frames dev =
  if frames < 1 then invalid_arg "Pager.create: frames must be >= 1";
  let bs = Device.block_size dev in
  {
    dev;
    frames = Array.init frames (fun _ -> { block = -1; data = Bytes.create bs; dirty = false; stamp = 0 });
    map = Hashtbl.create (2 * frames);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
  }

let hits t = t.hits

let misses t = t.misses

let evictions t = t.evictions

let writebacks t = t.writebacks

let write_back t f =
  if f.dirty then begin
    Device.write_block t.dev f.block f.data;
    f.dirty <- false;
    t.writebacks <- t.writebacks + 1
  end

let victim t =
  let best = ref 0 in
  for i = 1 to Array.length t.frames - 1 do
    let f = t.frames.(i) and b = t.frames.(!best) in
    if f.block = -1 || (b.block <> -1 && f.stamp < b.stamp) then best := i
  done;
  !best

(* Return the frame holding [block], faulting it in if needed. *)
let frame_for t block =
  let f =
    match Hashtbl.find_opt t.map block with
    | Some i ->
        t.hits <- t.hits + 1;
        t.frames.(i)
    | None ->
        t.misses <- t.misses + 1;
        let i = victim t in
        let f = t.frames.(i) in
        if f.block <> -1 then begin
          t.evictions <- t.evictions + 1;
          write_back t f;
          Hashtbl.remove t.map f.block
        end;
        if block < Device.block_count t.dev then Device.read_block t.dev block f.data
        else Bytes.fill f.data 0 (Bytes.length f.data) '\000';
        f.block <- block;
        Hashtbl.replace t.map block i;
        f
  in
  t.tick <- t.tick + 1;
  f.stamp <- t.tick;
  f

let read_page t block =
  if block >= Device.block_count t.dev then
    invalid_arg (Printf.sprintf "Pager.read_page: block %d not allocated" block);
  Bytes.to_string (frame_for t block).data

let write_page t block s =
  let bs = Device.block_size t.dev in
  if String.length s > bs then invalid_arg "Pager.write_page: page larger than a block";
  while block >= Device.block_count t.dev do
    ignore (Device.allocate t.dev 1)
  done;
  let f = frame_for t block in
  Bytes.fill f.data 0 bs '\000';
  Bytes.blit_string s 0 f.data 0 (String.length s);
  f.dirty <- true

let flush t = Array.iter (fun f -> if f.block <> -1 then write_back t f) t.frames
