(* nexsort-gen: generate synthetic XML workloads (§5 of the paper). *)

open Cmdliner

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Run [gen] and write the result to [output].  With [--device] the
   generator streams onto a spec-built device (exercising its stack) and
   the file is written from the device's contents. *)
let emit device metrics output gen =
  let s, stats, dev_io =
    match device with
    | None ->
        let s, stats = Xmlgen.Gen.to_string gen in
        (s, stats, None)
    | Some spec ->
        let dev = Extmem.Device_spec.scratch spec ~name:"gen" ~block_size:4096 in
        let stats = Xmlgen.Gen.to_device dev gen in
        (Extmem.Device.contents dev, stats, Some (Extmem.Io_stats.snapshot (Extmem.Device.stats dev)))
  in
  write_file output s;
  Cli_common.write_metrics metrics
    (let rep = Obs.Report.create ~tool:"nexsort-gen" in
     Obs.Report.add rep "gen"
       (Obs.Json.Obj
          [ ("elements", Obs.Json.Int stats.Xmlgen.Gen.elements);
            ("height", Obs.Json.Int stats.Xmlgen.Gen.height);
            ("bytes", Obs.Json.Int stats.Xmlgen.Gen.bytes) ]);
     (match dev_io with
     | Some io -> Obs.Report.add rep "io" (Obs.Json.Obj [ ("device", Obs.Json.io_stats io) ])
     | None -> ());
     rep);
  Printf.eprintf "wrote %s: %d elements, height %d, %d bytes\n" output
    stats.Xmlgen.Gen.elements stats.Xmlgen.Gen.height stats.Xmlgen.Gen.bytes;
  `Ok ()

let run seed avg_bytes height max_fanout max_elements fanouts company pathological device metrics
    output =
  match (company, fanouts) with
  | _ when pathological ->
      emit device metrics output (fun sink -> Xmlgen.Gen.pathological ~seed ~max_elements sink)
  | true, _ when device <> None ->
      `Error (false, "--device is not supported with --company")
  | true, _ ->
      let pair = Xmlgen.Company.generate ~seed () in
      write_file (output ^ ".personnel.xml") pair.Xmlgen.Company.personnel;
      write_file (output ^ ".payroll.xml") pair.Xmlgen.Company.payroll;
      Cli_common.write_metrics metrics
        (let rep = Obs.Report.create ~tool:"nexsort-gen" in
         Obs.Report.add rep "company"
           (Obs.Json.Obj
              [ ("personnel_bytes", Obs.Json.Int (String.length pair.Xmlgen.Company.personnel));
                ("payroll_bytes", Obs.Json.Int (String.length pair.Xmlgen.Company.payroll)) ]);
         rep);
      Printf.eprintf "wrote %s.personnel.xml and %s.payroll.xml\n" output output;
      `Ok ()
  | false, Some fanouts ->
      emit device metrics output (fun sink -> Xmlgen.Gen.exact_shape ~seed ~avg_bytes ~fanouts sink)
  | false, None ->
      emit device metrics output (fun sink ->
          Xmlgen.Gen.random_shape ~seed ~avg_bytes ~max_elements ~height ~max_fanout sink)

let fanouts_term =
  let parse s =
    try Ok (Some (List.map int_of_string (String.split_on_char ',' s)))
    with Failure _ -> Error (`Msg "expected a comma-separated list of integers")
  in
  Arg.(
    value
    & opt (conv (parse, fun ppf _ -> Format.pp_print_string ppf "<fanouts>")) None
    & info [ "fanouts" ] ~docv:"F1,F2,..."
        ~doc:
          "Exact per-level fan-outs (the paper's custom generator, Table 2).  Overrides \
           $(b,--height)/$(b,--max-fanout).")

let cmd =
  let doc = "generate synthetic XML documents (IBM-generator-style and exact-shape)" in
  let info = Cmd.info "nexsort-gen" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run
        $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
        $ Arg.(
            value & opt int 150
            & info [ "avg-bytes" ] ~docv:"N" ~doc:"Average serialized element size (paper: 150).")
        $ Arg.(value & opt int 4 & info [ "height" ] ~docv:"H" ~doc:"Tree height (random shape).")
        $ Arg.(
            value & opt int 10
            & info [ "max-fanout"; "k" ] ~docv:"K"
                ~doc:"Maximum fan-out; per-element fan-out is uniform in [1, K].")
        $ Arg.(
            value & opt int 100_000
            & info [ "max-elements" ] ~docv:"N" ~doc:"Stop growing the tree at N elements.")
        $ fanouts_term
        $ Arg.(
            value & flag
            & info [ "company" ]
                ~doc:"Generate the Figure 1 personnel/payroll document pair instead.")
        $ Arg.(
            value & flag
            & info [ "pathological" ]
                ~doc:
                  "Generate a fuzzing-style document instead: skewed fan-outs, deep \
                   single-child chains, mixed content, escaped text and colliding ids, up to \
                   $(b,--max-elements) elements.")
        $ Cli_common.device_term
        $ Cli_common.metrics_term
        $ Arg.(
            value & opt string "generated.xml" & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")))

let () = exit (Cmd.eval cmd)
