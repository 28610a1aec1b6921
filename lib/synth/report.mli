(** The shared stats/outcome surface of the synthesis stack.

    Every synthesis loop — CEGIS, the portfolio race, the multi-bit and
    optimization drivers — reports its counters in one {!Stats} record (a
    commutative merge monoid under {!Stats.add} with identity
    {!Stats.zero}) and its result in the polymorphic {!outcome}; no
    module declares a private copy of either. *)

module Stats : sig
  (** Cumulative counters of one synthesis run (or a merge of several:
      the optimizers sum across configurations, the portfolio across
      workers and restart rounds). *)
  type t = {
    iterations : int;  (** synthesizer checkSat calls *)
    verifier_calls : int;
    elapsed : float;  (** seconds; under merge this is {e summed} solver
                          time, not wall clock *)
    syn_conflicts : int;
    ver_conflicts : int;
    worker_crashes : int;
        (** unexpected worker exceptions captured by {!Supervisor} (zero
            for sequential runs without fault injection) *)
    worker_restarts : int;
        (** supervised worker restarts performed after crashes *)
    learnt_hist : Telemetry.Metrics.Hist.t;
        (** learnt-clause-size histogram of the synthesizer's solver;
            merges bucket-wise under {!add} (itself a monoid), so the
            portfolio totals aggregate worker histograms exactly *)
  }

  (** The identity of {!add}. *)
  val zero : t

  (** Field-wise sum — associative and commutative, so merge order across
      workers or configurations does not matter. *)
  val add : t -> t -> t

  (** [sum ts] folds {!add} over [ts] starting from {!zero}. *)
  val sum : t list -> t

  val pp : Format.formatter -> t -> unit
  val to_json : t -> Telemetry.Json.t

  (** Flat numeric facts under stable [stats.*] keys (plus learnt-size
      histogram quantiles when populated), the shape the run ledger
      stores for [fecsynth runs trend]. *)
  val to_metrics : t -> (string * float) list
end

(** The one outcome shape: ['res] is the synthesized artifact (a generator
    for the core loop), ['info] the attached diagnostics ({!Stats.t} for
    sequential runs, [Portfolio.report] for races). *)
type ('res, 'info) outcome =
  | Synthesized of 'res * 'info
  | Unsat_config of 'info  (** no artifact satisfies the specification *)
  | Timed_out of 'info
  | Partial of 'res * 'info
      (** anytime result: the budget (deadline, conflict budget or an
          external interrupt) expired before full success, but the search
          had already produced a best-so-far artifact worth returning —
          for the CEGIS loop, the refuted candidate whose verified
          distance bound came closest to the target *)

(** ["synthesized" | "unsat" | "timeout" | "partial"] — the stable wire
    names used in [--stats json] output and telemetry events. *)
val outcome_kind : ('res, 'info) outcome -> string

(** The diagnostics carried by any outcome. *)
val outcome_info : ('res, 'info) outcome -> 'info
