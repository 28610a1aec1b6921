(* Quickstart: build the classic Hamming (7,4) code, encode a nibble,
   corrupt it on a simulated channel, and watch the decoder repair it.

   Run with: dune exec examples/quickstart.exe *)

open Gf2

let () =
  (* the paper's Figure 2 generator *)
  let code = Lazy.force Hamming.Catalog.fig2_7_4 in
  Format.printf "Generator G (I | P):@.%a@.@." Hamming.Code.pp code;

  let data = Bitvec.of_string "0011" in
  let codeword = Hamming.Code.encode code data in
  Format.printf "data     = %a@." Bitvec.pp data;
  Format.printf "codeword = %a   (matches the paper's example)@.@." Bitvec.pp codeword;

  (* flip one bit, as a noisy link would *)
  let received = Bitvec.copy codeword in
  Bitvec.flip received 5;
  Format.printf "received = %a   (bit 5 flipped in transit)@." Bitvec.pp received;

  (match Hamming.Code.decode code received with
  | Hamming.Code.Corrected (recovered, position) ->
      Format.printf "decoder: single-bit error at position %d, data recovered = %a@.@."
        position Bitvec.pp recovered
  | Hamming.Code.Valid _ -> print_endline "decoder: no error?!"
  | Hamming.Code.Uncorrectable _ -> print_endline "decoder: uncorrectable?!");

  (* the same machinery, exactly, at line rate: mask-compiled codec *)
  let fast = Hamming.Fastcodec.compile code in
  let w = fast.Hamming.Fastcodec.encode 0b1100 in
  Format.printf "fast codec: encode 0b1100 -> 0b%s, syndrome %d@."
    (Bitvec.to_string (Bitvec.init 7 (fun i -> (w lsr (6 - i)) land 1 = 1)))
    (fast.Hamming.Fastcodec.syndrome w);

  (* how robust is this code on a 10%%-error channel? *)
  let p_u = Hamming.Robustness.undetected_error_probability code ~p:0.1 in
  Format.printf "P_u at p=0.1: %.6f (paper formula, section 2.2)@." p_u;

  (* now synthesize a better one: same data length, minimum distance 4 *)
  print_endline "\nsynthesizing a 4-bit-data generator with minimum distance 4 ...";
  match
    Synth.Driver.run ~timeout:60.0
      (Synth.Driver.min_check_len ~data_len:4 ~md:4 ~check_lo:2 ~check_hi:14)
  with
  | Synth.Driver.Codes ([ code ], stats) ->
      Format.printf "found one with %d check bits after %d CEGIS iterations:@.%a@."
        (Hamming.Code.check_len code) stats.Synth.Report.Stats.iterations
        Hamming.Code.pp code
  | _ -> print_endline "synthesis failed (unexpected)"
