(* Sample statistics and the metric rows the benchmark prints. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [q] cut points of [xs] into [q] groups, by the "exclusive" method of
   Python's [statistics.quantiles], so the quartiles printed here match
   the ones computed over whole runs. *)
let quantiles ~q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then List.init (q - 1) (fun _ -> nan)
  else if n = 1 then List.init (q - 1) (fun _ -> a.(0))
  else
    let m = n + 1 in
    List.init (q - 1) (fun i ->
        let i = i + 1 in
        let j = max 1 (min (n - 1) (i * m / q)) in
        let delta = float_of_int ((i * m) - (j * q)) in
        ((a.(j - 1) *. (float_of_int q -. delta)) +. (a.(j) *. delta)) /. float_of_int q)

let quartiles xs =
  match quantiles ~q:4 xs with
  | [ q1; _; q3 ] -> (q1, q3)
  | _ -> assert false

(* One printed metric: its samples over the run and the value reported
   for it — the samples' median, or their third quartile for a p75. *)
type row = {
  name : string;
  unit_ : string;
  samples : float list;
  value : float;
}

let row name unit_ samples = { name; unit_; samples; value = median samples }

let p75_row name unit_ samples = { name; unit_; samples; value = snd (quartiles samples) }

let exact name unit_ v = row name unit_ [ v ]

let pp_row oc r =
  let q1, q3 = quartiles r.samples in
  Printf.fprintf oc "  %-44s %-6s value=%-13.6g n=%-4d median=%-13.6g q1=%-13.6g q3=%.6g\n" r.name
    r.unit_ r.value (List.length r.samples) (median r.samples) q1 q3

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics rows =
  "{"
  ^ String.concat ", "
      (List.map
         (fun r ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.name (json_number r.value) r.unit_)
         rows)
  ^ "}"

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let words_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
