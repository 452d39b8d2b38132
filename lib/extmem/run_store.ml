type id = int

(* A finished run and the device it lives on: the store's own, or a
   foreign one for runs adopted by reference. *)
type slot = { dev : Device.t; extent : Extent.t }

type t = {
  dev : Device.t;
  slots : slot Vec.t;
  mutable writing : bool;
}

let create dev = { dev; slots = Vec.create (); writing = false }

let device t = t.dev

let run_count t = Vec.length t.slots

let adopt t ~dev ~extent =
  Vec.push t.slots { dev; extent };
  Vec.length t.slots - 1

let begin_run ?buffer t =
  if t.writing then invalid_arg "Run_store.begin_run: a run is already open";
  t.writing <- true;
  Block_writer.create ?buffer t.dev

let finish_run t w =
  if not t.writing then invalid_arg "Run_store.finish_run: no open run";
  let extent = Block_writer.close w in
  t.writing <- false;
  adopt t ~dev:t.dev ~extent

let check_id t id =
  if id < 0 || id >= Vec.length t.slots then
    invalid_arg (Printf.sprintf "Run_store: unknown run id %d" id)

let slot t id =
  check_id t id;
  Vec.get t.slots id

let run_extent t id = (slot t id).extent

let open_run ?buffer t id =
  let { dev; extent } = slot t id in
  Block_reader.of_extent ?buffer dev extent

let read_run ?buffer t id =
  let r = open_run ?buffer t id in
  fun () -> Block_reader.read_record r

let total_run_blocks t = Vec.fold_left (fun acc r -> acc + r.extent.Extent.blocks) 0 t.slots

let total_run_bytes t = Vec.fold_left (fun acc r -> acc + r.extent.Extent.bytes) 0 t.slots
