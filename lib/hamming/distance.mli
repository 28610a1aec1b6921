(** Minimum-distance computation and checking.

    For a linear code the minimum distance equals the minimum Hamming
    weight over non-zero codewords.  For systematic codes the codeword
    weight is at least the data weight, so the exact search enumerates data
    words by ascending weight and stops as soon as the weight being
    enumerated exceeds the best codeword weight found — making exact
    computation cheap whenever the distance is small, even for long codes
    such as (128,120).

    A SAT-based checker is also provided: it reproduces the paper's
    methodology (the verifier side of §3.2) and cross-checks the
    combinatorial search in tests. *)

(** [min_distance code] is the exact minimum distance.
    @raise Invalid_argument if the code has no data bits. *)
val min_distance : Code.t -> int

(** [has_min_distance_at_least code m] decides [min_distance code >= m]
    without necessarily computing the exact distance (enumerates data words
    of weight < m only). *)
val has_min_distance_at_least : Code.t -> int -> bool

(** [has_min_distance code m] decides [min_distance code = m]. *)
val has_min_distance : Code.t -> int -> bool

(** [counterexample ?interrupt code m] is a non-zero data word whose
    codeword has weight < [m], if one exists — the witness the CEGIS
    verifier feeds back to the synthesizer.  It is the first such word by
    ascending data weight, and within a weight by lexicographic order of
    its set-bit indices.  [interrupt] is polled
    periodically during enumeration; {!Smtlite.Ctx.Interrupted} escapes
    when it returns [true] (used by the portfolio to cancel losers). *)
val counterexample :
  ?interrupt:(unit -> bool) -> Code.t -> int -> Gf2.Bitvec.t option

(** [sat_has_min_distance_at_least ?deadline code m] decides the same
    property by SAT: it asserts the existence of a non-zero data word whose
    codeword weight is below [m] and reports [true] iff the solver answers
    UNSAT.  @raise Smtlite.Ctx.Timeout if the deadline is exceeded. *)
val sat_has_min_distance_at_least : ?deadline:float -> Code.t -> int -> bool

(** [sat_counterexample ?deadline ?interrupt ?encoding ?seed ?conflicts code m]
    is the SAT-side witness search: [Some d] for a data word encoding to
    weight < [m], [None] if the bound holds.

    [encoding] selects the cardinality encoding of the weight bound
    (default {!Smtlite.Card.Sequential}); [seed] diversifies the solver's
    search deterministically; [interrupt] installs a cooperative
    cancellation callback ({!Smtlite.Ctx.Interrupted} escapes when it
    fires); [conflicts] is incremented by the solver conflicts this call
    spent, even when it is cut short by timeout or interruption — the
    portfolio's per-worker verifier accounting relies on this. *)
val sat_counterexample :
  ?deadline:float ->
  ?interrupt:(unit -> bool) ->
  ?encoding:Smtlite.Card.encoding ->
  ?seed:int ->
  ?conflicts:int ref ->
  Code.t ->
  int ->
  Gf2.Bitvec.t option

(** [certified_min_distance_at_least ?deadline code m] decides the bound
    with an auditable outcome: [`Certified proof] carries a DRAT
    refutation of "some non-zero data word encodes below weight [m]",
    already validated by the independent {!Sat.Drat} checker; [`Refuted d]
    carries a concrete witness data word, checkable by re-encoding.
    @raise Failure if the solver emits a proof the checker rejects
    (indicating a solver bug — never observed, and property-tested). *)
val certified_min_distance_at_least :
  ?deadline:float ->
  Code.t ->
  int ->
  [ `Certified of string | `Refuted of Gf2.Bitvec.t ]
