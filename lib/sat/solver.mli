(** A CDCL (conflict-driven clause learning) SAT solver.

    Features: a flat int-arena clause store, two-watched-literal
    propagation with blocking literals, a dedicated binary-clause
    implication store, first-UIP conflict analysis with clause
    minimization, VSIDS variable activity with phase saving, Luby
    restarts, LBD (glue)-aware learnt-clause database reduction, arena
    compaction, inprocessing (backward subsumption and self-subsuming
    resolution, DRAT-logged), and incremental solving under assumptions.
    See DESIGN.md "Solver internals" for the data layout.

    Typical use: create a solver, allocate variables with {!new_var}, add
    clauses with {!add_clause}, then call {!solve} (possibly many times,
    with different assumptions, adding clauses between calls). *)

type t

type result = Sat | Unsat

(** Cumulative search statistics.  [reduces] counts learnt-database
    reductions, [subsumed]/[strengthened] count clauses removed/shrunk
    by inprocessing, [compactions] counts arena garbage collections. *)
type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  max_learnt_size : int;
  reduces : int;
  subsumed : int;
  strengthened : int;
  compactions : int;
}

(** [create ()] is a fresh solver with no variables or clauses. *)
val create : unit -> t

(** [new_var s] allocates a fresh variable and returns its index. *)
val new_var : t -> int

(** [new_vars s n] allocates [n] fresh variables, returning the first index. *)
val new_vars : t -> int -> int

(** [nvars s] is the number of allocated variables. *)
val nvars : t -> int

(** [nclauses s] is the number of live problem (non-learnt) clauses. *)
val nclauses : t -> int

(** [add_clause s lits] asserts the disjunction of [lits].  Adding the empty
    clause (or a clause that simplifies to it) makes the solver permanently
    unsatisfiable.  May be called between [solve] calls.
    @raise Invalid_argument if a literal mentions an unallocated variable. *)
val add_clause : t -> Lit.t list -> unit

(** [ok s] is [false] iff unsatisfiability has already been established at
    decision level zero (in which case [solve] returns [Unsat] immediately). *)
val ok : t -> bool

(** [solve ?assumptions s] decides satisfiability of the asserted clauses
    under the given assumption literals (default none).  Returns [Sat] with
    a model queryable via {!value} / {!model}, or [Unsat].  After [Sat] the
    solver keeps its assignment (see {!set_resume_min_trail}); clauses
    added next are attached against it, and the next solve with the same
    assumptions repairs it instead of searching from scratch. *)
val solve : ?assumptions:Lit.t list -> t -> result

(** [value s l] is the truth value of [l] in the last model.
    @raise Invalid_argument if the last [solve] did not return [Sat]. *)
val value : t -> Lit.t -> bool

(** [value_var s v] is the truth value of variable [v] in the last model. *)
val value_var : t -> int -> bool

(** [model s] is the last model as a fresh array indexed by variable,
    one entry for each variable allocated when that [solve] ran. *)
val model : t -> bool array

(** [stats s] is the solver's cumulative statistics. *)
val stats : t -> stats

(** [learnt_size_histogram s] is a snapshot of the learnt-clause-size
    histogram (log-bucketed {!Telemetry.Metrics.Hist.t} with exact
    quantiles for sizes below 64).  Cumulative over the solver's
    lifetime; the per-call delta is emitted on every [sat.solve]
    telemetry span, and snapshots merge with
    {!Telemetry.Metrics.Hist.add} (e.g. across portfolio workers). *)
val learnt_size_histogram : t -> Telemetry.Metrics.Hist.t

(** [set_seed s seed] installs a deterministic PRNG that diversifies the
    search: saved phases of existing and future variables are scrambled, and
    ~2% of decisions branch on a random unassigned variable or flip the
    saved phase.  Two solvers with the same seed and the same clause stream
    behave identically; solvers with different seeds explore different parts
    of the search space — the per-worker knob of the portfolio racer.
    Unseeded solvers are bit-for-bit unaffected. *)
val set_seed : t -> int -> unit

(** [set_interrupt s (Some f)] installs a cooperative cancellation check:
    [f] is polled every 64 conflicts and every 1024 decisions, and when it
    returns [true] the solver backtracks to level zero and raises
    {!Interrupted}.  The solver remains usable afterwards (state is intact,
    like a restart).  Used by losing portfolio workers to stop promptly
    once a sibling has won.  [None] removes the check. *)
val set_interrupt : t -> (unit -> bool) option -> unit

(** [interrupt s] is the cancellation check currently installed, so a
    caller can wrap it for one solve and put it back afterwards. *)
val interrupt : t -> (unit -> bool) option

exception Interrupted

(** [set_probe (Some f)] installs a process-global fault-injection probe:
    [f] is invoked with a site name at instrumented points (["sat.solve"]
    at every {!solve} entry; higher layers funnel their own sites — e.g.
    ["ctx.check"] — through {!probe}).  The hook may raise, stall, or
    return normally; exceptions it raises propagate out of the probed
    operation exactly as a real failure would.  Install before spawning
    worker domains; [None] (the default) makes probes free apart from one
    load and branch.  Used by [Synth.Fault] for deterministic resilience
    testing — production code never installs a hook. *)
val set_probe : (string -> unit) option -> unit

(** [probe site] invokes the installed probe hook, if any.  Exposed so
    layers above the solver can add their own probe sites without a second
    registration mechanism. *)
val probe : string -> unit

(** [enable_proof s] starts recording a DRAT proof: every learnt clause is
    logged as an addition, every database reduction as deletions, and a
    level-zero conflict as the empty clause.  Must be called before any
    clause is added.  For an (assumption-free) [Unsat] answer the recorded
    proof certifies unsatisfiability and can be validated with
    {!Drat.check}. *)
val enable_proof : t -> unit

(** [proof s] is the DRAT proof text recorded so far ([None] if
    {!enable_proof} was never called). *)
val proof : t -> string option

(** [original_clauses s] is every clause asserted since {!enable_proof},
    in order — the formula a recorded proof refutes. *)
val original_clauses : t -> Lit.t list list

(** {2 Tuning and introspection}

    Test and benchmark knobs.  Production callers never need these: the
    defaults (geometric learnt-limit growth, inprocessing every 8000
    conflicts) are the tuned configuration. *)

(** [set_reduce_limit s (Some n)] pins the learnt-clause limit to [n]: a
    database reduction runs whenever more than [n] learnt clauses are
    live, and the limit does not grow.  Lets tests force reduction (and
    hence arena churn) aggressively.  [None] restores the default
    adaptive limit. *)
val set_reduce_limit : t -> int option -> unit

(** [set_inprocess_interval s (Some n)] runs the inprocessing pass
    (backward subsumption + self-subsuming resolution, at level 0) every
    [n] conflicts; [None] disables inprocessing entirely. *)
val set_inprocess_interval : t -> int option -> unit

(** [set_resume_min_trail s n]: a [Sat] keeps its assignment for the
    next solve (with the same assumptions) to resume only when it holds
    at least [n] literals; a shorter one is dropped, and the solver
    behaves exactly as one that never keeps a trail.  The default (2000)
    leaves small problems on that from-scratch path; tests set 0 to
    drive every solve through the kept trail. *)
val set_resume_min_trail : t -> int -> unit

(** [compact s] forces an arena compaction: live clauses are copied into
    a fresh arena and every watcher and reason is remapped.  Safe at any
    decision level; a no-op semantically.  Compaction also runs
    automatically when enough of the arena is garbage. *)
val compact : t -> unit

(** [iter_clauses s f] applies [f] to every live stored clause (problem
    and learnt, binaries included), in no particular order.  For tests
    comparing solver state before/after {!compact}. *)
val iter_clauses : t -> (Lit.t list -> unit) -> unit

(** [self_check s] verifies internal invariants: every live clause is
    watched exactly once under each of its first two literals, a
    falsified watch implies the clause is satisfied (valid at
    propagation fixpoints, e.g. after [solve] or [add_clause] returns
    with nothing queued), binary-store symmetry, literal-value
    consistency, and the trail: each variable on it once and exactly
    when assigned, each implied literal at the highest level among its
    reason's other literals (false, and earlier on the trail), each
    reasonless literal above level 0 its level's decision.
    [Error msg] describes the first violation found. *)
val self_check : t -> (unit, string) Stdlib.result
