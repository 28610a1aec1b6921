type check_result = {
  code : Hamming.Code.t;
  check_len : int;
  stats : Report.Stats.t;
}

(* One configuration attempt of an optimization walk, as a telemetry event. *)
let step_point ~walk ~param outcome =
  if Telemetry.enabled () then
    Telemetry.point "optimize.step"
      ~fields:
        [
          ("walk", Telemetry.str walk);
          ("param", Telemetry.int param);
          ("outcome", Telemetry.str (Report.outcome_kind outcome));
          ( "iterations",
            Telemetry.int (Report.outcome_info outcome).Report.Stats.iterations
          );
        ]

let walk_check_len ?(interrupt = fun () -> false) ?on_round ?(steps = true)
    ~check_lo ~check_hi attempt =
  let rec go c acc =
    if c > check_hi then Report.Unsat_config acc
    else if interrupt () then Report.Timed_out acc
    else begin
      (match on_round with Some f -> f c | None -> ());
      let outcome = attempt c in
      if steps then step_point ~walk:"check_len" ~param:c outcome;
      let acc = Report.Stats.add acc (Report.outcome_info outcome) in
      match outcome with
      | Report.Synthesized (code, _) ->
          Report.Synthesized ({ code; check_len = c; stats = acc }, acc)
      | Report.Unsat_config _ -> go (c + 1) acc
      | Report.Timed_out _ -> Report.Timed_out acc
      | Report.Partial (code, _) ->
          (* the walk's budget died at check length [c], but its session
             saw a near-miss candidate: surface it as the anytime result *)
          Report.Partial ({ code; check_len = c; stats = acc }, acc)
    end
  in
  go check_lo Report.Stats.zero

let minimize_check_len ?timeout ?cex_mode ?verifier ?encoding ?interrupt
    ~data_len ~md ~check_lo ~check_hi () =
  walk_check_len ?interrupt ~check_lo ~check_hi (fun c ->
      Cegis.synthesize ?timeout ?cex_mode ?verifier ?encoding ?interrupt
        { Cegis.data_len; check_len = c; min_distance = md; extra = [] })

type setbits_step = {
  bound : int;
  achieved : int;
  generator : Hamming.Code.t;
  step_stats : Report.Stats.t;
}

let minimize_set_bits ?timeout ?cex_mode ?verifier ?encoding ?interrupt
    ~data_len ~check_len ~md ~start_bound ~stop_bound () =
  let setbit_constraint bound ~entry =
    let bits = ref [] in
    for i = 0 to data_len - 1 do
      for j = 0 to check_len - 1 do
        bits := entry ~row:i ~col:j :: !bits
      done
    done;
    Smtlite.Card.at_most Smtlite.Card.Sequential !bits bound
  in
  let rec go bound acc =
    if bound < stop_bound then List.rev acc
    else
      let problem =
        {
          Cegis.data_len;
          check_len;
          min_distance = md;
          extra = [ setbit_constraint bound ];
        }
      in
      let outcome =
        Cegis.synthesize ?timeout ?cex_mode ?verifier ?encoding ?interrupt
          problem
      in
      step_point ~walk:"set_bits" ~param:bound outcome;
      match outcome with
      | Report.Synthesized (code, stats) ->
          let achieved = Hamming.Code.set_bits code in
          let step = { bound; achieved; generator = code; step_stats = stats } in
          (* tighten strictly below what was achieved *)
          go (achieved - 1) (step :: acc)
      | Report.Unsat_config _ | Report.Timed_out _ | Report.Partial _ ->
          (* the steps already collected are the anytime result of this
             walk: every intermediate generator is returned *)
          List.rev acc
  in
  go start_bound []
