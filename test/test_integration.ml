(* Integration tests: whole-pipeline scenarios crossing library borders.

   - synthesize -> verify -> channel-simulate (the §4.2 loop);
   - design -> composite -> frame -> corrupt -> correct (the deployment
     story);
   - emit C -> compile with gcc -> run against the in-process codec on the
     same sweep (the §4.4 pipeline, when a C compiler is present);
   - concatenated FEC as in 802.3df: inner Hamming (128,120) over the
     bit-stream of an outer KP4 RS(544,514) codeword. *)

let test_synthesize_verify_simulate () =
  match
    Synth.Cegis.synthesize ~timeout:60.0
      { Synth.Cegis.data_len = 8; check_len = 5; min_distance = 3; extra = [] }
  with
  | Synth.Report.Synthesized (code, _) ->
      (* verify on both paths *)
      Alcotest.(check bool) "SAT verify" true
        (Hamming.Distance.sat_has_min_distance_at_least code 3);
      Alcotest.(check bool) "enum verify" true
        (Hamming.Distance.has_min_distance_at_least code 3);
      (* channel simulation must agree with theory within noise *)
      let codec = Channel.Montecarlo.codec_of_code code in
      let r =
        Channel.Montecarlo.run ~codec ~md:3 ~words:100_000 ~p:0.05 ~seed:404
          (Channel.Montecarlo.uniform_data codec)
      in
      let rel =
        Float.abs
          (float_of_int r.Channel.Montecarlo.flips_ge_md
          -. r.Channel.Montecarlo.expected_flips_ge_md)
        /. r.Channel.Montecarlo.expected_flips_ge_md
      in
      Alcotest.(check bool) "within 10% of P_u" true (rel < 0.1);
      Alcotest.(check bool) "undetected below >=md count" true
        (r.Channel.Montecarlo.undetected <= r.Channel.Montecarlo.flips_ge_md)
  | _ -> Alcotest.fail "synthesis failed"

let test_design_frame_correct () =
  (* small weighted design end-to-end, then transport under corruption *)
  let weights = [| 50; 40; 30; 20; 10; 5; 2; 1 |] in
  let g0 = { Synth.Weighted.check_len = 4; min_distance = 3 } in
  let g1 = { Synth.Weighted.check_len = 1; min_distance = 2 } in
  match Synth.Weighted.optimize ~timeout:60.0 ~p:0.1 ~weights g0 g1 with
  | Synth.Report.Unsat_config _ | Synth.Report.Timed_out _ | Synth.Report.Partial _ ->
      Alcotest.fail "no weighted design"
  | Synth.Report.Synthesized (r, _) ->
      let codec =
        Fec_core.Composite.of_mapping
          ~codes:[| fst r.Synth.Weighted.codes; snd r.Synth.Weighted.codes |]
          ~mapping:r.Synth.Weighted.mapping
      in
      Alcotest.(check int) "word len" 8 (Fec_core.Composite.word_len codec);
      let words = Array.init 100 (fun i -> (i * 37) land 0xFF) in
      let frame = Fec_core.Framing.encode codec words in
      (* flip one bit inside the strong part of one codeword *)
      let header =
        4 + 2 + String.length (Fec_core.Registry.describe codec) + 3
      in
      let buf = Bytes.of_string frame in
      Bytes.set buf (header + 5) (Char.chr (Char.code (Bytes.get buf (header + 5)) lxor 4));
      let _, out, report = Fec_core.Framing.decode (Bytes.to_string buf) in
      Alcotest.(check int) "words back" 100 (Array.length out);
      Alcotest.(check bool) "repaired or detected" true
        (report.Fec_core.Framing.corrected + report.Fec_core.Framing.uncorrectable >= 1)

let test_emitted_c_matches_fastcodec () =
  if Sys.command "command -v gcc > /dev/null 2>&1" <> 0 then ()
  else begin
    let code = Hamming.Catalog.shortened ~data_len:16 ~check_len:6 in
    let fast = Hamming.Fastcodec.compile code in
    (* reference checksum over a sweep, from the in-process codec *)
    let n = 100_000 in
    let reference = ref 0 in
    let d = ref 0 in
    for _ = 1 to n do
      let w = fast.Hamming.Fastcodec.encode (!d land 0xFFFF) in
      reference := !reference lxor w lxor fast.Hamming.Fastcodec.syndrome w;
      d := !d + 21
    done;
    (* compile the emitted C with a custom driver running the same sweep *)
    let dir = Filename.temp_file "fecitest" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let gen_c = Filename.concat dir "gen.c" in
    let drv_c = Filename.concat dir "drv.c" in
    let exe = Filename.concat dir "t.exe" in
    let oc = open_out gen_c in
    output_string oc (Hamming.Emit.c_source ~name:"fec" code);
    close_out oc;
    let oc = open_out drv_c in
    output_string oc
      (Printf.sprintf
         "#include <stdint.h>\n#include <stdio.h>\n\
          uint64_t fec_encode(uint64_t);\nuint64_t fec_syndrome(uint64_t);\n\
          int main(void){uint64_t acc=0,d=0;for(int i=0;i<%d;i++){uint64_t \
          w=fec_encode(d&0xFFFF);acc^=w^fec_syndrome(w);d+=21;}\
          printf(\"%%llu\\n\",(unsigned long long)acc);return 0;}\n"
         n);
    close_out oc;
    let gen_o = Filename.concat dir "gen.o" in
    let rc =
      Sys.command
        (Printf.sprintf "gcc -O2 -c -Dmain=unused_generated_main %s -o %s 2>/dev/null"
           gen_c gen_o)
    in
    Alcotest.(check int) "gcc compiles generated code" 0 rc;
    let rc = Sys.command (Printf.sprintf "gcc -O2 %s %s -o %s 2>/dev/null" gen_o drv_c exe) in
    Alcotest.(check int) "gcc links driver" 0 rc;
    let ic = Unix.open_process_in exe in
    let line = input_line ic in
    ignore (Unix.close_process_in ic);
    Alcotest.(check string) "C checksum = OCaml checksum" (string_of_int !reference) line
  end

(* 802.3df-style concatenation: outer KP4 RS(544,514) over 10-bit symbols,
   inner Hamming (128,120) over the serialized bit stream. *)
let test_concatenated_kp4_hamming () =
  let rs = Lazy.force Rs.Reed_solomon.kp4 in
  let inner = Lazy.force Hamming.Catalog.ieee_128_120 in
  let st = Random.State.make [| 802 |] in
  let data = Array.init 514 (fun _ -> Random.State.int st 1024) in
  (* outer encode: 544 symbols = 5440 bits *)
  let outer = Rs.Reed_solomon.encode rs data in
  let bits = Gf2.Bitvec.create (544 * 10) in
  Array.iteri
    (fun i sym ->
      for b = 0 to 9 do
        if (sym lsr (9 - b)) land 1 = 1 then Gf2.Bitvec.set bits ((i * 10) + b) true
      done)
    outer;
  (* inner encode: chop into 120-bit blocks (pad the tail), Hamming-encode *)
  let block_count = (5440 + 119) / 120 in
  let padded = Gf2.Bitvec.create (block_count * 120) in
  Gf2.Bitvec.blit ~src:bits ~src_pos:0 ~dst:padded ~dst_pos:0 ~len:5440;
  let codewords =
    Array.init block_count (fun b ->
        Hamming.Code.encode inner (Gf2.Bitvec.sub padded (b * 120) 120))
  in
  (* channel: flip one random bit in every inner codeword (correctable),
     plus a burst of 12 flips in one block (uncorrectable by the inner
     code, to be mopped up by the outer RS) *)
  let corrupted =
    Array.mapi
      (fun b w ->
        let w' = Gf2.Bitvec.copy w in
        Gf2.Bitvec.flip w' (Random.State.int st 128);
        if b = 3 then
          for _ = 1 to 12 do
            Gf2.Bitvec.flip w' (Random.State.int st 128)
          done;
        w')
      codewords
  in
  (* inner decode: correct where possible, pass data through otherwise *)
  let recovered_bits = Gf2.Bitvec.create (block_count * 120) in
  let uncorrectable_blocks = ref 0 in
  Array.iteri
    (fun b w ->
      let data_bits =
        match Hamming.Code.decode inner w with
        | Hamming.Code.Valid d | Hamming.Code.Corrected (d, _) -> d
        | Hamming.Code.Uncorrectable _ ->
            incr uncorrectable_blocks;
            Hamming.Code.data_of inner w
      in
      Gf2.Bitvec.blit ~src:data_bits ~src_pos:0 ~dst:recovered_bits ~dst_pos:(b * 120)
        ~len:120)
    corrupted;
  (* outer decode: repack symbols and let KP4 fix the residue *)
  let received =
    Array.init 544 (fun i ->
        let acc = ref 0 in
        for b = 0 to 9 do
          acc := (!acc lsl 1) lor (if Gf2.Bitvec.get recovered_bits ((i * 10) + b) then 1 else 0)
        done;
        !acc)
  in
  match Rs.Reed_solomon.decode rs received with
  | Rs.Reed_solomon.Valid d | Rs.Reed_solomon.Corrected (d, _) ->
      Alcotest.(check bool) "payload recovered through both layers" true (d = data)
  | Rs.Reed_solomon.Uncorrectable ->
      Alcotest.fail "outer code failed to absorb the inner residue"

let test_property_file_to_codec () =
  (* a property file drives synthesis; the result round-trips through the
     registry and protects data in a composite *)
  let prop =
    Spec.Parse.prop_file
      "# an 8-bit code with distance 3, as few checks as possible\n\
       len_G = 1\n\
       len_d(G[0]) = 8 &&\n\
       len_c(G[0]) <= 6\n\
       md(G[0]) = 3\n\
       minimal(len_c(G[0]))\n"
  in
  let task = match Synth.Driver.analyze prop with Ok t -> t | Error e -> Alcotest.fail e in
  match Synth.Driver.run ~timeout:60.0 task with
  | Synth.Driver.Codes ([ code ], _) ->
      let descriptor = Fec_core.Registry.describe_code code in
      let code' = Fec_core.Registry.code_of_string descriptor in
      Alcotest.(check bool) "registry round trip" true (Hamming.Code.equal code code');
      let composite =
        Fec_core.Composite.create ~word_len:8 [ (code, List.init 8 Fun.id) ]
      in
      let w = Fec_core.Composite.encode composite 0xA7 in
      Alcotest.(check bool) "composite validates" true
        (Fec_core.Composite.is_valid composite w);
      (match Fec_core.Composite.correct composite (w lxor 16) with
      | Some fixed ->
          Alcotest.(check int) "corrected" 0xA7 (Fec_core.Composite.data_of composite fixed)
      | None -> Alcotest.fail "expected correction")
  | _ -> Alcotest.fail "driver failed"

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "synthesize/verify/simulate" `Quick
            test_synthesize_verify_simulate;
          Alcotest.test_case "weighted design to framed transport" `Quick
            test_design_frame_correct;
          Alcotest.test_case "emitted C matches fast codec" `Quick
            test_emitted_c_matches_fastcodec;
          Alcotest.test_case "concatenated KP4 + Hamming (802.3df style)" `Quick
            test_concatenated_kp4_hamming;
          Alcotest.test_case "property file to protected words" `Quick
            test_property_file_to_codec;
        ] );
    ]
