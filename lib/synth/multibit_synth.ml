(* Two error patterns of weight <= e collide on syndromes exactly when
   their symmetric difference (weight <= 2e) is a codeword, so
   "all patterns of weight <= e distinguishable" is equivalent to
   "minimum distance >= 2e + 1".  The synthesis therefore reuses the CEGIS
   core with that distance target; the gain over the paper's §6 manual
   construction comes out of the same loop (e.g. distinguishing 2-bit
   errors at data length 4 needs only 7 check bits, not the hand-crafted
   matrix's 11). *)

let target_md distinguish =
  if distinguish < 1 then
    invalid_arg "Multibit_synth.synthesize: distinguish must be >= 1";
  (2 * distinguish) + 1

let synthesize ?timeout ~data_len ~check_len ~distinguish () =
  let md = target_md distinguish in
  match
    Cegis.synthesize ?timeout
      { Cegis.data_len; check_len; min_distance = md; extra = [] }
  with
  | Report.Synthesized (code, _) as r ->
      (* cross-check the actual multi-bit property, not just the distance;
         a [Partial] candidate is unproven and passes through unchecked *)
      assert (Hamming.Multibit.distinguishes_up_to code distinguish);
      r
  | r -> r

let minimize_check_len ?timeout ~data_len ~distinguish ~check_lo ~check_hi () =
  Driver.run ?timeout
    (Driver.min_check_len ~data_len ~md:(target_md distinguish) ~check_lo ~check_hi)
