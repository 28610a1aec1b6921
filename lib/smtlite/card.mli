(** Cardinality constraints over lists of Boolean expressions.

    All encodings are pure circuits (see {!Bv}); the Tseitin translation in
    {!Ctx} introduces the auxiliary variables.  The unary [counts] view is
    also exposed so callers can reuse partial-sum outputs across several
    bounds (as the optimization loop of the synthesizer does). *)

type encoding =
  | Naive  (** explicit combinations; only for small inputs, used in tests *)
  | Pairwise
      (** binomial clause set: every (k+1)-subset contains a false member.
          No auxiliary structure, strongest propagation, exponential in
          [k]; only for small bounds *)
  | Sequential  (** sequential counter, O(n·k) gates *)
  | Totalizer  (** totalizer merge tree, good propagation *)
  | Adder  (** binary adder tree + comparator, smallest encoding *)

(** Stable lowercase wire name ("naive", "pairwise", "sequential",
    "totalizer", "adder") used in CLI flags, [--stats json] output and
    telemetry events. *)
val encoding_name : encoding -> string

(** [encode_point enc ~op ~n ~k] records one constraint construction: the
    [card.encode] telemetry point and the [card.encodes]/[card.encode_n]
    metrics.  Every bound below records itself; {!Ctx.at_least}, which
    builds its clauses directly, calls it too. *)
val encode_point : encoding -> op:string -> n:int -> k:int -> unit

(** [counts ?cap enc es] is the unary count vector [o] with
    [o.(i)] true iff at least [i+1] of [es] are true.  With [~cap:c] only
    the first [c] outputs are produced (sufficient to express bounds up to
    [c]).  Not available for [Adder] or [Pairwise] (raises
    [Invalid_argument]). *)
val counts : ?cap:int -> encoding -> Expr.t list -> Expr.t array

(** [at_most enc es k] holds iff at most [k] of [es] are true. *)
val at_most : encoding -> Expr.t list -> int -> Expr.t

(** [at_least enc es k] holds iff at least [k] of [es] are true. *)
val at_least : encoding -> Expr.t list -> int -> Expr.t

(** [exactly enc es k] holds iff exactly [k] of [es] are true. *)
val exactly : encoding -> Expr.t list -> int -> Expr.t

(** [pb_le ~coeffs es k] holds iff [Σ coeffs_i · es_i <= k], for
    non-negative integer coefficients (binary adder encoding).
    @raise Invalid_argument on negative coefficients or length mismatch. *)
val pb_le : coeffs:int list -> Expr.t list -> int -> Expr.t

(** [pb_ge ~coeffs es k] holds iff [Σ coeffs_i · es_i >= k]. *)
val pb_ge : coeffs:int list -> Expr.t list -> int -> Expr.t
