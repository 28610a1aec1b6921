(** A solver context: SAT solver plus Tseitin translation and an
    assertion stack.

    Expressions are shared globally (see {!Expr}); each context lazily maps
    the expression DAG onto its own solver variables.  Definitional clauses
    are added unconditionally (they are equivalences, valid in any state);
    {e assertions} made after a {!push} are guarded by a fresh selector
    literal, so {!pop} retracts them permanently. *)

type t

type result = Sat | Unsat

exception Timeout

(** Raised out of {!check} when an installed {!set_interrupt} callback
    fires (same exception as {!Sat.Solver.Interrupted}).  The context stays
    usable.  (The implementation rebinds {!Sat.Solver.Interrupted}, so the
    two names denote the same exception.) *)
exception Interrupted

(** [create ?proof ()] is a fresh context; with [~proof:true] the
    underlying solver records a DRAT proof (see {!certificate}). *)
val create : ?proof:bool -> unit -> t

(** [assert_ ctx e] asserts expression [e] at the current stack level. *)
val assert_ : t -> Expr.t -> unit

(** {2 The literal level}

    Callers that build a constraint straight to clauses, with no {!Expr}
    node for it, work on solver literals.  Definitions of fresh literals
    are unguarded, like the Tseitin ones; only what {!at_least} asserts
    is guarded by the current level's selector. *)

(** [lit ctx e] is the literal of [e], its Tseitin translation memoised
    per context on the expression: a second call adds no clause. *)
val lit : t -> Expr.t -> Sat.Lit.t

(** [xor ctx a b] is a fresh literal defined as [a XOR b] by the four
    clauses of both polarities.  It is memoised per context on the
    unordered pair: [xor ctx a b] and [xor ctx b a] return the literal of
    the first call and add no clause. *)
val xor : t -> Sat.Lit.t -> Sat.Lit.t -> Sat.Lit.t

(** [at_least ctx lits k] asserts, at the current level, that at least
    [k] of [lits] are true.  It is a one-sided sequential counter (Sinz,
    CP 2005): about [2k(n-k+1)] clauses over [k(n-k+1)] fresh literals
    for [n] inputs, which imply the bound but do not define the counts.
    [k <= 0] asserts nothing; [k > n] asserts false.  A bound with
    [1 <= k <= n] records one [card.encode] point (encoding
    ["sequential"], op ["at_least"]). *)
val at_least : t -> Sat.Lit.t list -> int -> unit

(** [push ctx] opens a new assertion level. *)
val push : t -> unit

(** [pop ctx] discards all assertions made since the matching [push].
    @raise Invalid_argument if the stack is empty. *)
val pop : t -> unit

(** [level ctx] is the current stack depth. *)
val level : t -> int

(** [check ?deadline ?assumptions ctx] decides satisfiability of all active
    assertions, optionally under extra assumption expressions.
    [deadline] is an absolute {!Unix.gettimeofday} instant, polled where
    the solver polls its interrupt, so it never changes the search; when
    the solver exceeds it, @raise Timeout.  A firing interrupt (or an
    injected fault) still raises {!Interrupted}. *)
val check : ?deadline:float -> ?assumptions:Expr.t list -> t -> result

(** [model_bool ctx e] evaluates [e] in the model of the last [Sat] answer.
    Expression variables that the solver never saw evaluate to [false].
    @raise Invalid_argument if the last [check] was not [Sat]. *)
val model_bool : t -> Expr.t -> bool

(** [model_bv ctx v] evaluates a bit-vector in the last model. *)
val model_bv : t -> Bv.t -> int

(** [enumerate ?limit ctx ~over f] enumerates satisfying assignments
    projected onto the expressions [over]: each distinct valuation of
    [over] is reported once to [f] and then blocked.  Enumeration runs
    inside a [push]/[pop] frame, so the context is unchanged afterwards.
    Returns the number of valuations found (stopping at [limit],
    default unlimited). *)
val enumerate : ?limit:int -> t -> over:Expr.t list -> (bool list -> unit) -> int

(** [solver ctx] exposes the underlying SAT solver (for statistics). *)
val solver : t -> Sat.Solver.t

(** [set_seed ctx seed] diversifies the underlying solver's search
    deterministically (see {!Sat.Solver.set_seed}). *)
val set_seed : t -> int -> unit

(** [set_interrupt ctx f] installs a cooperative cancellation callback on
    the underlying solver; a pending {!check} raises {!Interrupted} soon
    after [f] starts returning [true] (see {!Sat.Solver.set_interrupt}). *)
val set_interrupt : t -> (unit -> bool) option -> unit

(** [certificate ctx] is the asserted CNF together with the recorded DRAT
    proof, when the context was created with [~proof:true].  After an
    assumption-free [Unsat] answer, [Sat.Drat.check] on the pair validates
    the refutation independently of the solver. *)
val certificate : t -> (Sat.Lit.t list list * string) option

(** [stats ctx] is the underlying solver's statistics. *)
val stats : t -> Sat.Solver.stats

(** [learnt_histogram ctx] is the underlying solver's learnt-clause-size
    histogram snapshot (see {!Sat.Solver.learnt_size_histogram}). *)
val learnt_histogram : t -> Telemetry.Metrics.Hist.t
