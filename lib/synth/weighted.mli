(** Weighted bit-to-generator mapping synthesis (paper §4.3).

    Given per-bit criticality weights for an [L]-bit word and two generator
    shapes (check length and minimum distance each), assign every bit to
    one of the two generators so as to minimize the paper's objective

    [sum_w = Σ_j w_j · C(len_d(map j) + len_c(map j), md(map j)) · p^{md(map j)}]

    where [len_d(i)] is the number of bits mapped to generator [i].  The
    real-valued objective is scaled to integers and encoded exactly; the
    optimization walks the bound downward from [initial_bound] (the paper
    starts at 1000) until UNSAT proves optimality, then synthesizes both
    generators; a split whose shape is refuted is blocked and the search
    resumes. *)

type gen_shape = { check_len : int; min_distance : int }

type result = {
  mapping : int array;  (** [mapping.(j)] is 0 or 1 *)
  sum_w : float;  (** achieved objective value *)
  counts : int * int;  (** bits mapped to generator 0 / 1 *)
  codes : Hamming.Code.t * Hamming.Code.t;
      (** generators synthesized for the optimal shapes *)
  iterations : int;  (** solver queries, including the generator CEGIS *)
  elapsed : float;
}

(** [optimize ?timeout ?p ?initial_bound ?interrupt ~weights g0 g1] runs
    the search within [timeout] seconds (default 360) for the mapping and
    both generators.  [p] is the channel bit-error probability (default
    0.1, as in the paper); weights are non-negative integers.  The outcome
    is never [Partial]: a cut search is [Timed_out], and [Unsat_config]
    means no split within [initial_bound] admits both shapes.
    @raise Invalid_argument on empty weights or non-positive shapes. *)
val optimize :
  ?timeout:float ->
  ?p:float ->
  ?initial_bound:float ->
  ?interrupt:(unit -> bool) ->
  weights:int array ->
  gen_shape ->
  gen_shape ->
  (result, Report.Stats.t) Report.outcome

(** [sum_w_of ~p ~weights ~mapping g0 g1] evaluates the objective for a
    concrete mapping (exposed for tests and reporting). *)
val sum_w_of :
  p:float -> weights:int array -> mapping:int array -> gen_shape -> gen_shape -> float
