(** The CEGIS synthesize–verify loop of Algorithm 1 for a fixed
    configuration (data length, check length, target minimum distance).

    The synthesizer solver holds symbolic coefficient-matrix bits plus all
    non-distance constraints and the accumulated counterexamples; the
    verifier checks each candidate's minimum distance and returns a witness
    data word on failure.  Witnesses are turned into new synthesizer
    constraints ("this data word must encode to weight >= md"), which
    generalizes the paper's whole-candidate [makeCex] blocking; the
    original blocking mode is available for the ablation benchmark. *)

type cex_mode =
  | Data_word
      (** learn "codeword of this data word must have weight >= md"
          (small, general counterexamples — §6 "future work" optimization) *)
  | Whole_candidate
      (** block only the exact candidate matrix (the paper's [makeCex]) *)

type verifier_mode =
  | Combinatorial  (** exact enumeration by ascending data weight *)
  | Sat  (** SAT-based verifier, reproducing the paper's methodology *)

(** Stable wire names ("data-word"/"whole-candidate", "comb"/"sat") used in
    CLI flags, [--stats json] output and telemetry events. *)
val cex_mode_name : cex_mode -> string

val verifier_name : verifier_mode -> string

(** Extra synthesizer-side constraints over the symbolic coefficient
    matrix: [entry ~row ~col] is the P-matrix bit variable. *)
type problem = {
  data_len : int;
  check_len : int;
  min_distance : int;
  extra : (entry:(row:int -> col:int -> Smtlite.Expr.t) -> Smtlite.Expr.t) list;
      (** each callback builds one side constraint from the bit variables *)
}

(** A counterexample learned from one failed candidate, in a form that can
    be replayed into {e any} session for the same problem (the portfolio's
    shared pool transports these between workers): the raw witness data, not
    an encoded constraint, so each recipient re-encodes it with its own
    cardinality encoding. *)
type cex =
  | Cex_data of Gf2.Bitvec.t
      (** witness data word whose codeword fell below the distance bound *)
  | Cex_candidate of Hamming.Code.t  (** the blocked candidate itself *)

(** [make_matrix_vars ~data_len ~check_len] draws a fresh block of symbolic
    coefficient-matrix bits from {!Smtlite.Fresh} (whose atomic counter
    makes allocation safe and deterministic across portfolio domains). *)
val make_matrix_vars :
  data_len:int -> check_len:int -> Smtlite.Expr.t array array

(** How much of P's permutation symmetry a session breaks. *)
type symmetry =
  | No_order  (** an [extra] constraint may tell rows or columns apart *)
  | Rows
      (** the rows of P descend lexicographically, last column most
          significant, strictly when [min_distance >= 3] *)
  | Rows_cols
      (** the rows as in [Rows], and the columns descend too, last row
          most significant, not strictly: the double-lex order read from
          the last index *)

(** [griesmer_check_len ~data_len ~min_distance] is the fewest check bits
    the Griesmer bound allows, [sum_(i<k) ceil(md / 2^i) - k]. *)
val griesmer_check_len : data_len:int -> min_distance:int -> int

(** The order {!create_session} puts on P: [No_order] when the problem has
    [extra] constraints, [Rows_cols] when its check length is at most
    {!griesmer_check_len}, and [Rows] above it.  It reads nothing but the
    [problem] record, so a replay of the same problem runs the same
    search.  The [cegis.session] telemetry point carries it as
    [symmetry]: ["none"], ["rows"] or ["rows+cols"]. *)
val symmetry_of_problem : problem -> symmetry

(** A resumable CEGIS run: the synthesizer context plus counters.  One
    {!step} call performs exactly one iteration of Algorithm 1, and
    {!turn} wraps it in the budget and interrupt polls, so callers (the
    sequential driver, the portfolio's workers) own the loop and can
    interleave it with counterexample exchange. *)
type session

(** [create_session ?cex_mode ?verifier ?encoding ?seed ?interrupt ?vars
    problem] prepares a session.  [seed] diversifies the synthesizer's (and
    SAT verifier's) search deterministically; [interrupt] is polled
    cooperatively inside solver search and aborts a pending {!step} with
    {!Smtlite.Ctx.Interrupted} when it returns [true]; [vars] supplies the
    symbolic coefficient-matrix bits (shared across portfolio workers so
    candidates and counterexamples refer to the same expression variables —
    fresh ones are drawn from {!Smtlite.Fresh} otherwise).  A problem
    with no [extra] constraints is symmetric under row and column
    permutations of P, so the session orders P (see {!symmetry}): every
    code has a permutation in that order with the same distance, so
    [Exhausted] still means no code exists.  [initial] counterexamples
    are learned before the first candidate.  The extra constraints, the
    order and [initial] are encoded inside one [cegis.encode] span.
    @raise Invalid_argument on an empty problem or mismatched [vars]. *)
val create_session :
  ?cex_mode:cex_mode ->
  ?verifier:verifier_mode ->
  ?encoding:Smtlite.Card.encoding ->
  ?seed:int ->
  ?interrupt:(unit -> bool) ->
  ?vars:Smtlite.Expr.t array array ->
  ?initial:cex list ->
  problem ->
  session

(** The symbolic coefficient-matrix bits of a session ([data_len] rows of
    [check_len] columns). *)
val matrix_vars : session -> Smtlite.Expr.t array array

(** One CEGIS iteration: solve for a candidate, verify it, learn the
    counterexample on failure. *)
type step_result =
  | Done of Hamming.Code.t  (** candidate passed verification *)
  | Progress of cex  (** candidate refuted; the cex is already learned *)
  | Exhausted  (** synthesizer context is unsatisfiable *)

(** [step ?deadline session] performs one iteration.  [deadline] is an
    absolute instant bounding the solver calls inside this step.
    @raise Smtlite.Ctx.Timeout when the deadline passes mid-step.
    @raise Smtlite.Ctx.Interrupted when the session's interrupt fires. *)
val step : ?deadline:float -> session -> step_result

(** [turn ~deadline session] is one turn of the CEGIS loop, the only way
    a loop drives {!step} ({!synthesize} and every {!Portfolio} worker take
    their turns here).  It answers [None] once the budget is spent
    (the clock is at or past [deadline], before or during the step) or the
    session's interrupt fires, and [Some r] for a completed step.  A
    spurious {!Smtlite.Ctx.Interrupted} — one raised while the interrupt
    does not return [true]: fault injection, stale hooks — re-polls and
    retries the step. *)
val turn : deadline:float -> session -> step_result option

(** [learn session cex] asserts a counterexample produced elsewhere
    (another portfolio worker) into this session, re-encoding it with the
    session's own cardinality encoding. *)
val learn : session -> cex -> unit

(** Statistics of the session so far. *)
val session_stats : session -> Report.Stats.t

(** SAT variables the synthesizer has allocated so far: the matrix bits,
    the symmetry order's and the counterexamples' auxiliary variables. *)
val session_solver_vars : session -> int

(** The synthesizer solver's cumulative search counters. *)
val session_sat_stats : session -> Sat.Solver.stats

(** [session_best session] is the best refuted candidate so far together
    with its verified distance bound: the refuting witness's codeword
    weight, an upper bound on the candidate's minimum distance.  This is
    the anytime result carried by a [Partial] outcome.  [None] until the
    first candidate has been refuted. *)
val session_best : session -> (Hamming.Code.t * int) option

(** [synthesize ?timeout ?cex_mode ?verifier ?encoding ?seed ?interrupt
    ?initial ?on_progress problem] runs the loop.  [timeout] (seconds,
    default 120 as in the paper) bounds the whole call; when it (or a
    genuine [interrupt]) fires and at least one candidate has been refuted,
    the best one is returned as [Partial] rather than discarded.  A
    spurious {!Smtlite.Ctx.Interrupted} retries the step (see {!turn}).
    [initial]
    counterexamples (from a checkpoint) are replayed before the first
    candidate; [on_progress] observes every newly learned counterexample
    (checkpoint writers hook in here).  A loop over {!turn}. *)
val synthesize :
  ?timeout:float ->
  ?cex_mode:cex_mode ->
  ?verifier:verifier_mode ->
  ?encoding:Smtlite.Card.encoding ->
  ?seed:int ->
  ?interrupt:(unit -> bool) ->
  ?initial:cex list ->
  ?on_progress:(session -> cex -> unit) ->
  problem ->
  (Hamming.Code.t, Report.Stats.t) Report.outcome
