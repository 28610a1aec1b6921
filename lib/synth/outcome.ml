(** What one synthesis job yields.  {!Driver.run} produces it, and the
    session layer re-exports it unchanged ([Fec_session.Session.outcome]),
    so the CLI, the wire protocol and the benchmarks all match on this
    one declaration.  The session layer maps it, together with whether
    the run was interrupted, to the ledger outcome string and the exit
    code. *)

type outcome =
  | Codes of Hamming.Code.t list * Report.Stats.t
      (** fully verified generators meeting the specification, with the
          stats summed over every configuration tried; a cache hit
          carries the original run's stats *)
  | Optimized of Optimize.check_result * Report.Stats.t
      (** the minimal check length found by the optimize job (a
          [minimal(len_c)] walk without pins or a [len_1] bound) *)
  | Setbits of Optimize.step list
      (** a finished [minimal(len_1)] walk's generators, fewest bits last *)
  | Weighted of Weighted.result
  | Partial of {
      code : Hamming.Code.t;
      achieved : int;  (** recomputed true minimum distance *)
      check_len : int option;
          (** the length a [minimal(len_c)] walk stopped at; [None] for a
              task without an objective *)
      verified : bool;
          (** [code] is the best generator a set-bit or [maximal(md)]
              walk verified before it was cut; otherwise it is the cut
              attempt's near-miss candidate *)
      stats : Report.Stats.t;
    }
      (** anytime result: the budget (deadline, interrupt) cut the job
          short.  [code] is the best generator a walk verified, or else
          the cut attempt's closest refuted candidate by refuting-witness
          weight (its distance is below the target) *)
  | Unsat of { reason : string; stats : Report.Stats.t }
      (** proved unsatisfiable: no budget or interrupt cut the search *)
  | Timeout of { reason : string; stats : Report.Stats.t }
      (** the budget expired with no candidate to report *)
