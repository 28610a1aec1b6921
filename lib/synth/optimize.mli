(** Optimization drivers implementing the paper's [minimal]/[maximal]
    pseudo-properties (the outer loop of Algorithm 1). *)

(** Result of minimizing the number of check bits for a target minimum
    distance (the §4.2 / Table 1 experiment). *)
type check_result = {
  code : Hamming.Code.t;
  check_len : int;
  stats : Report.Stats.t;  (** totals across all configurations tried *)
}

(** [walk_check_len ?interrupt ?on_round ?steps ~check_lo ~check_hi
    attempt] is the one check-length walk (the outer loop of Algorithm 1):
    it calls [attempt c] for [c = check_lo, check_lo + 1, ...] until an
    attempt does not come back [Unsat_config], and sums the stats of every
    attempt.  The outcome is

    - [Synthesized (r, totals)]: [r.check_len] is the first — hence
      minimal — synthesizable check length;
    - [Unsat_config totals]: every length up to [check_hi] is refuted;
    - [Timed_out totals]: the budget died with nothing to show, or
      [interrupt] returned [true] before a length was attempted;
    - [Partial (r, totals)]: the budget died at [r.check_len], but the
      search saw the near-miss candidate [r.code] — its true minimum
      distance is {e not} verified to reach the target.

    [on_round] fires with each check length just before it is attempted —
    the checkpoint hook for resuming the walk where it stopped.  With
    [steps] (the default) each attempt emits an [optimize.step] telemetry
    point. *)
val walk_check_len :
  ?interrupt:(unit -> bool) ->
  ?on_round:(int -> unit) ->
  ?steps:bool ->
  check_lo:int ->
  check_hi:int ->
  (int -> (Hamming.Code.t, Report.Stats.t) Report.outcome) ->
  (check_result, Report.Stats.t) Report.outcome

(** [minimize_check_len ?timeout ?cex_mode ?verifier ~data_len ~md
    ~check_lo ~check_hi ()] is {!walk_check_len} over plain CEGIS
    attempts for the target distance [md] (no extra constraints).
    [interrupt] is also polled cooperatively by the CEGIS loops. *)
val minimize_check_len :
  ?timeout:float ->
  ?cex_mode:Cegis.cex_mode ->
  ?verifier:Cegis.verifier_mode ->
  ?encoding:Smtlite.Card.encoding ->
  ?interrupt:(unit -> bool) ->
  data_len:int ->
  md:int ->
  check_lo:int ->
  check_hi:int ->
  unit ->
  (check_result, Report.Stats.t) Report.outcome

(** One step of the §4.4 set-bit minimization walk. *)
type setbits_step = {
  bound : int;  (** the bound that was in force ([len_1 <= bound]) *)
  achieved : int;  (** set bits of the synthesized generator *)
  generator : Hamming.Code.t;
  step_stats : Report.Stats.t;
}

(** [minimize_set_bits ?timeout ... ~data_len ~check_len ~md ~start_bound
    ~stop_bound ()] repeatedly synthesizes generators with a tightening
    bound on the number of coefficient set bits ([minimal(len_1)]),
    exactly as §4.4: every intermediate generator is returned, newest
    (smallest sum) last — the walk is anytime by construction.  Stops on
    UNSAT, on reaching [stop_bound], on timeout, or when [interrupt]
    fires. *)
val minimize_set_bits :
  ?timeout:float ->
  ?cex_mode:Cegis.cex_mode ->
  ?verifier:Cegis.verifier_mode ->
  ?encoding:Smtlite.Card.encoding ->
  ?interrupt:(unit -> bool) ->
  data_len:int ->
  check_len:int ->
  md:int ->
  start_bound:int ->
  stop_bound:int ->
  unit ->
  setbits_step list
