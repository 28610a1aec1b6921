type check_result = { code : Hamming.Code.t; check_len : int }

type objective = Check_len of int | Set_bits | Distance

type step = {
  bound : int;
  achieved : int;
  generator : Hamming.Code.t;
  step_stats : Report.Stats.t;
}

type ending = Boundary | Cut of (int * Hamming.Code.t) option

type walk = { found : step list; ending : ending; totals : Report.Stats.t }

let walk_name = function
  | Check_len _ -> "check_len"
  | Set_bits -> "set_bits"
  | Distance -> "md"

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

let walk ?(interrupt = fun () -> false) ?(on_round = ignore) ?(steps = true)
    ~deadline ~objective ~start attempt =
  let rec go param found totals =
    let past_end =
      match objective with
      | Check_len hi -> param > hi
      | Set_bits -> param < 0
      | Distance -> false
    in
    let left = deadline -. Unix.gettimeofday () in
    if past_end then { found; ending = Boundary; totals }
    else if interrupt () || left <= 0.0 then { found; ending = Cut None; totals }
    else begin
      on_round param;
      let outcome = attempt ~timeout:left param in
      if steps then step_point ~walk:(walk_name objective) ~param outcome;
      let totals = Report.Stats.add totals (Report.outcome_info outcome) in
      match outcome with
      | Report.Synthesized (generator, step_stats) -> (
          let achieved = Hamming.Code.set_bits generator in
          let found = { bound = param; achieved; generator; step_stats } :: found in
          match objective with
          | Check_len _ -> { found; ending = Boundary; totals }
          (* tighten strictly below what was achieved *)
          | Set_bits -> go (achieved - 1) found totals
          | Distance -> go (param + 1) found totals)
      | Report.Unsat_config _ -> (
          match objective with
          | Check_len _ -> go (param + 1) found totals
          | Set_bits | Distance -> { found; ending = Boundary; totals })
      | Report.Timed_out _ -> { found; ending = Cut None; totals }
      | Report.Partial (code, _) -> { found; ending = Cut (Some (param, code)); totals }
    end
  in
  go start [] Report.Stats.zero
