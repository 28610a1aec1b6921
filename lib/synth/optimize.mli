(** Optimization drivers implementing the paper's [minimal]/[maximal]
    pseudo-properties (the outer loop of Algorithm 1). *)

(** The optimize job's answer: the generator at the minimal check length
    for a target minimum distance (the §4.2 / Table 1 experiment). *)
type check_result = { code : Hamming.Code.t; check_len : int }

(** What a walk optimizes: the order it tries parameters in, and where
    its feasible/infeasible boundary lies. *)
type objective =
  | Check_len of int
      (** [minimal(len_c)]: check lengths up to the given last one; stops
          at the first length synthesized *)
  | Set_bits
      (** [minimal(len_1)]: set-bit bounds down, each below the set bits
          of the last generator; stops at the first bound refuted *)
  | Distance
      (** [maximal(md)]: distances up; stops at the first one refuted *)

(** One synthesized attempt of a walk. *)
type step = {
  bound : int;  (** its parameter: check length, set-bit bound or distance *)
  achieved : int;  (** set bits of the generator *)
  generator : Hamming.Code.t;  (** verified *)
  step_stats : Report.Stats.t;
}

(** How a walk stopped. *)
type ending =
  | Boundary
      (** it crossed its objective's boundary, or a [Check_len] walk ran
          past its last length: every parameter it refuted is proved *)
  | Cut of (int * Hamming.Code.t) option
      (** the deadline or the interrupt stopped it first; the parameter
          and near-miss candidate (distance {e not} verified) of the
          attempt it cut, when that attempt refuted one *)

type walk = {
  found : step list;  (** newest — hence best — first *)
  ending : ending;
  totals : Report.Stats.t;  (** summed over every attempt *)
}

(** [walk ?interrupt ?on_round ?steps ~deadline ~objective ~start attempt]
    is the one objective walk: it calls [attempt ~timeout p] for the
    parameters [p] of [objective] from [start], each with only the
    seconds left before the absolute [deadline], until the objective's
    boundary is crossed or the deadline or [interrupt] (both polled
    before every attempt) cuts it.  [on_round] fires with each parameter
    just before it is attempted (the checkpoint hook); with [steps] (the
    default) each attempt emits an [optimize.step] telemetry point naming
    the walk: [check_len], [set_bits] or [md]. *)
val walk :
  ?interrupt:(unit -> bool) ->
  ?on_round:(int -> unit) ->
  ?steps:bool ->
  deadline:float ->
  objective:objective ->
  start:int ->
  (timeout:float -> int -> (Hamming.Code.t, Report.Stats.t) Report.outcome) ->
  walk
