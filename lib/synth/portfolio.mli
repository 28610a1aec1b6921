(** Multicore portfolio CEGIS: race [K] differently-configured workers on
    one synthesis problem, sharing counterexamples.

    Each worker drives its own {!Cegis.session}, in its own domain or
    interleaved with the others in the calling domain, varying the cardinality encoding, counterexample mode, verifier and a
    per-solver random seed (see {!Sat.Solver.set_seed}).  Every learned
    counterexample is published to a mutex-protected shared pool in raw
    witness form; between iterations each worker drains the entries it has
    not yet seen and re-encodes them with its {e own} encoding.  This is
    sound across heterogeneous configurations because a counterexample
    constraint is implied by the specification itself, so importing it can
    only prune candidates that were going to fail verification anyway — and
    for the same reason a single worker reaching [Exhausted] refutes the
    whole configuration.

    The first worker to decide wins; the rest are cancelled cooperatively
    through the solvers' interrupt hooks.  All workers allocate their
    symbolic matrix variables through {!Smtlite.Fresh}'s atomic counter, so
    expression identities are stable no matter how the domains interleave.

    Because CEGIS wall time is heavy-tailed in the solver's random
    trajectory, the race additionally restarts: if no worker decides
    within a (doubling) restart interval, the round is cancelled, every
    worker is reseeded, and a fresh round begins.  The counterexample pool
    survives restarts, so a new round replays {e all} accumulated
    refutations into its fresh sessions before its first candidate —
    restarts trade already-amortized learning for an escape from unlucky
    search trajectories. *)

(** One worker's configuration. *)
type config = {
  label : string;
  cex_mode : Cegis.cex_mode;
  verifier : Cegis.verifier_mode;
  encoding : Smtlite.Card.encoding;
  seed : int option;  (** solver diversification seed; [None] = default *)
}

type worker_stats = {
  config : config;
  stats : Report.Stats.t;
  shared_out : int;  (** distinct counterexamples this worker contributed *)
  shared_in : int;  (** foreign counterexamples it imported *)
  finished : bool;  (** this worker decided the race *)
}

type report = {
  workers : worker_stats list;
      (** one entry per worker per restart round, in round order; restarted
          workers are labelled [w<i>r<round>] *)
  winner : config option;  (** [None] iff the portfolio timed out *)
  wall_clock : float;  (** seconds, whole race *)
  rounds : int;  (** restart rounds run (1 = no restart triggered) *)
  totals : Report.Stats.t;
      (** {!Report.Stats.sum} over workers and rounds; its [elapsed] is
          summed per-worker solver time, not wall clock *)
}

(** [default_configs jobs] is the built-in portfolio: worker 0 is exactly
    the sequential default (so [jobs = 1] reproduces {!Cegis.synthesize}
    bit for bit), later workers vary encoding, verifier, counterexample
    mode and seed. *)
val default_configs : int -> config list

val config_to_string : config -> string

(** [synthesize ?timeout ?jobs ?restart_interval ?scheduler ?configs
    problem] races the portfolio.  With [jobs = 1] the single worker runs
    inline in the calling domain and never restarts (it is the
    deterministic sequential replay).  Otherwise the scheduler decides how
    workers share the machine: [`Domains] spawns one domain per worker,
    [`Interleaved] steps all sessions round-robin (one CEGIS iteration per
    turn) in the calling domain, and [`Auto] (default) picks domains when
    {!Domain.recommended_domain_count} sees spare cores and the
    deterministic interleave otherwise — on a single-core host domains buy
    no parallelism and their scheduling noise makes wall time heavy-tailed.
    Round [r] runs for [restart_interval * 2^r] seconds (default interval
    20 s; [<= 0.] disables restarts) before the race is reseeded — the
    shared counterexample pool carries over, so later rounds start warm.
    [configs], when given, must have exactly [jobs] entries and seeds its
    round 0; restart rounds derive reseeded copies.

    {b Supervision.} Both schedulers step one kind of worker, which takes
    its turns through {!Cegis.turn} (so a solver interrupt no one
    requested, such as an injected fault, retries the step).  Any other
    exception — a crash, including injected {!Fault.Injected} faults — is
    decided by {!Supervisor.on_crash}: the worker restarts with a fresh
    seed and solver state, or gives up after [max_restarts].  The domains
    scheduler sleeps the jittered backoff before a restart; the interleave
    restarts on the worker's next turn, so it stays deterministic.  Both
    emit the same [supervisor.*] points, [portfolio.publish]/[consume]
    counters and [portfolio.worker] fields (a span per domain, a point
    per interleaved worker).  Crash/restart totals surface in
    {!Report.Stats.worker_crashes} / [worker_restarts].  The active
    {!Fault} spec (from [FEC_FAULT_SPEC]) is installed on entry.

    {b Anytime results.} When the race ends without a decision, the
    candidate whose refuting witness had the highest codeword weight — the
    closest miss seen by any worker, round or incarnation — is returned as
    [Partial (code, report)] instead of [Timed_out].  The witness weight
    upper-bounds that candidate's true minimum distance; callers wanting
    the exact distance recompute it.

    [interrupt], polled cooperatively by every worker, ends the whole race
    early (partial results still apply) — this is how Ctrl-C is wired.
    [initial] seeds the shared pool with counterexamples from a previous
    run (see {!Checkpoint}); every worker imports them before its first
    candidate.  [on_cex] fires once per {e distinct} counterexample
    published to the pool, from whichever domain discovered it — it must
    be thread-safe (used for incremental checkpointing).
    @raise Invalid_argument on [jobs < 1] or a length mismatch. *)
val synthesize :
  ?timeout:float ->
  ?jobs:int ->
  ?restart_interval:float ->
  ?scheduler:[ `Auto | `Domains | `Interleaved ] ->
  ?configs:config list ->
  ?interrupt:(unit -> bool) ->
  ?initial:Cegis.cex list ->
  ?on_cex:(Cegis.cex -> unit) ->
  Cegis.problem ->
  (Hamming.Code.t, report) Report.outcome

(** Outcome of a verification race. *)
type verify_outcome =
  | Holds  (** minimum distance is at least the bound *)
  | Refuted of Gf2.Bitvec.t  (** witness data word below the bound *)
  | Unknown  (** every strategy timed out *)

(** [verify_min_distance ?timeout ?jobs code m] races up to [jobs]
    verification strategies (combinatorial enumeration and SAT with
    several cardinality encodings) on "min distance of [code] >= [m]";
    returns the answer, the winning strategy's name and the wall-clock
    seconds. *)
val verify_min_distance :
  ?timeout:float ->
  ?jobs:int ->
  Hamming.Code.t ->
  int ->
  verify_outcome * string * float

(** [pp_report] renders a portfolio report, one line per worker. *)
val pp_report : Format.formatter -> report -> unit

(** [report_to_json] is the machine-readable rendering used by
    [--stats json]. *)
val report_to_json : report -> Telemetry.Json.t
