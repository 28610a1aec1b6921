type float32_design = {
  weights : int array;
  mapping : int array;
  codec : Composite.t;
  sum_w : float;
  elapsed : float;
}

let paper_weights = [| 100; 100; 100; 100; 99; 98; 82; 45; 17; 17; 8; 4; 2; 1; 1; 1 |]

(* Assemble the 32-bit codec: the weighted mapping covers word bits 0..15
   with the two synthesized generators; word bits 16..31 get even parity. *)
let assemble ~mapping ~codes =
  let code0, code1 = codes in
  let upper gi =
    Array.to_list mapping
    |> List.mapi (fun j g -> (j, g))
    |> List.filter (fun (_, g) -> g = gi)
    |> List.map fst
  in
  let parts =
    List.filter
      (fun (_, positions) -> positions <> [])
      [
        (code0, upper 0);
        (code1, upper 1);
        (Hamming.Catalog.parity 16, List.init 16 (fun i -> 16 + i));
      ]
  in
  Composite.create ~word_len:32 parts

let float32_with_weights ?(timeout = 360.0) ?(p = 0.1) weights =
  if Array.length weights <> 16 then
    invalid_arg "Design.float32_with_weights: need exactly 16 weights";
  let start = Unix.gettimeofday () in
  let g0 = { Synth.Weighted.check_len = 5; min_distance = 3 } in
  let g1 = { Synth.Weighted.check_len = 1; min_distance = 2 } in
  match Synth.Weighted.optimize ~timeout ~p ~weights g0 g1 with
  | Synth.Report.Synthesized (r, _) ->
      let codec = assemble ~mapping:r.Synth.Weighted.mapping ~codes:r.Synth.Weighted.codes in
      Some
        {
          weights;
          mapping = r.Synth.Weighted.mapping;
          codec;
          sum_w = r.Synth.Weighted.sum_w;
          elapsed = Unix.gettimeofday () -. start;
        }
  | _ -> None

let float32 ?timeout ?p ?(samples = 50_000) () =
  let profile = Channel.Bitflip.float32_profile ~samples () in
  let weights = Channel.Bitflip.weights_for_upper_bits ~bits:16 profile in
  float32_with_weights ?timeout ?p weights

let halves code_maker =
  lazy
    (Composite.create ~word_len:32
       [
         (code_maker (), List.init 16 Fun.id);
         (code_maker (), List.init 16 (fun i -> 16 + i));
       ])

(* Table 2 row 1: G_1^16 G_1^16 — two even-parity halves. *)
let table2_parity = halves (fun () -> Hamming.Catalog.parity 16)

(* Table 2 row 2: G_6^16 G_6^16 — two (22,16) md-3 halves. *)
let table2_md3 = halves (fun () -> Hamming.Catalog.shortened ~data_len:16 ~check_len:6)

(* Table 2 row 3: G_5^8 G_1^8 G_1^16 with the paper's mapping: upper 8
   bits on the 5-check md-3 code, bits 8..15 on a parity bit, lower 16 on
   a parity bit. *)
let table2_float_specific =
  lazy
    (Composite.create ~word_len:32
       [
         (Hamming.Catalog.shortened ~data_len:8 ~check_len:5, List.init 8 Fun.id);
         (Hamming.Catalog.parity 8, List.init 8 (fun i -> 8 + i));
         (Hamming.Catalog.parity 16, List.init 16 (fun i -> 16 + i));
       ])
