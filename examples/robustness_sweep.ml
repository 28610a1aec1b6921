(* A Figure-4-style robustness sweep: synthesize generators of increasing
   minimum distance for 4-bit data (the §4.2 experiment), then measure
   undetected-error counts on a binary symmetric channel and compare with
   the theoretical P_u.  Reduced word count so the example is fast; the
   bench harness runs the paper-scale version.

   Run with: dune exec examples/robustness_sweep.exe *)

let words = 500_000
let p = 0.1

let () =
  Printf.printf "synthesizing 4-bit-data generators, md 2..6 (minimal check bits)\n\n";
  Printf.printf "%-4s %-6s %-11s %-12s %-12s %-14s\n" "md" "checks" "iterations"
    ">=md flips" "theoretical" "undetected";
  List.iter
    (fun md ->
      match
        Synth.Driver.run ~timeout:120.0
          (Synth.Driver.min_check_len ~data_len:4 ~md ~check_lo:2 ~check_hi:14)
      with
      | Synth.Driver.Codes ([ code ], stats) ->
          let codec = Channel.Montecarlo.codec_of_code code in
          let mc =
            Channel.Montecarlo.run ~codec ~md ~words ~p ~seed:(0xFEC + md)
              (Channel.Montecarlo.uniform_data codec)
          in
          Printf.printf "%-4d %-6d %-11d %-12d %-12.0f %-14d\n" md
            (Hamming.Code.check_len code) stats.Synth.Report.Stats.iterations
            mc.Channel.Montecarlo.flips_ge_md mc.Channel.Montecarlo.expected_flips_ge_md
            mc.Channel.Montecarlo.undetected
      | _ -> Printf.printf "%-4d (synthesis failed)\n" md)
    [ 2; 3; 4; 5; 6 ];
  print_endline "\nas in the paper's Figure 4: undetected errors collapse as md grows,";
  print_endline "while the >=md-flip count tracks the analytic P_u closely."
