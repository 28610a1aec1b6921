(* Reproduce the §4.4 emission pipeline: synthesize a 32-bit-data
   generator with md 3 while minimizing coefficient set bits, then emit a
   specialized C implementation (AND/XOR only) and its OCaml counterpart
   to ./generated/.

   Run with: dune exec examples/emit_c.exe *)

let () =
  print_endline "minimizing coefficient set bits for a (49,32) md-3 generator ...";
  let task =
    Synth.Driver.Min_set_bits
      ( {
          Synth.Driver.data_len = 32;
          check_lo = 17;
          check_hi = 17;
          md = 3;
          len1_max = None;
          fixed_bits = [];
        },
        200 )
  in
  (* the walk's last generator, or the best one it verified before its
     budget ran out *)
  let best =
    match Synth.Driver.run ~timeout:60.0 task with
    | Synth.Driver.Setbits steps ->
        Option.map (fun s -> s.Synth.Optimize.generator) (List.nth_opt (List.rev steps) 0)
    | Synth.Driver.Partial { code; verified = true; _ } -> Some code
    | _ -> None
  in
  match best with
  | None -> print_endline "no generator found (unexpected)"
  | Some code ->
      Printf.printf "best generator: %d set bits\n" (Hamming.Code.set_bits code);
      let dir = "generated" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let write name contents =
        let oc = open_out (Filename.concat dir name) in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s/%s (%d bytes)\n" dir name (String.length contents)
      in
      write "fec_encode.c" (Hamming.Emit.c_source ~name:"fec" code);
      write "fec_encode.ml" (Hamming.Emit.ocaml_source ~name:"fec" code);
      print_endline "\ncompile the C version with:  gcc -O3 generated/fec_encode.c -o fec && ./fec";
      (* demonstrate the in-process compiled codec on the same generator *)
      let fast = Hamming.Fastcodec.compile code in
      let start = Unix.gettimeofday () in
      let acc = ref 0 in
      let iterations = 2_000_000 in
      let d = ref 0 in
      for _ = 1 to iterations do
        let w = fast.Hamming.Fastcodec.encode !d in
        acc := !acc lxor w lxor fast.Hamming.Fastcodec.syndrome w;
        d := (!d + 21) land 0xFFFFFFFF
      done;
      let dt = Unix.gettimeofday () -. start in
      Printf.printf "in-process mask codec: %d encode+check in %.3f s (%.1f M ops/s), checksum %d\n"
        iterations dt
        (float_of_int iterations /. dt /. 1e6)
        !acc
