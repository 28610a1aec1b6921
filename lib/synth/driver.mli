(** Front end: normalize a property-language specification into one of the
    supported synthesis tasks and run it.

    Supported specification shapes (all the paper's experiments):
    - single generator with fixed [len_d], a [len_c] value or interval,
      an [md] target, optional [len_1] bounds and fixed-entry constraints,
      optionally [minimal(len_c(G[0]))] — §4.2 / Table 1;
    - the same with [minimal(len_1(G[0]))] — §4.4 / Figures 5-6;
    - the same with [maximal(md(G[0]))] and a fixed [len_c];
    - two generators with fixed shapes plus [minimal(sum_w)] and weights
      supplied out-of-band — §4.3 / Table 2. *)

type task =
  | Fixed of single  (** synthesize one generator, no objective *)
  | Min_check_len of single  (** minimize [len_c] within its interval *)
  | Min_set_bits of single * int
      (** minimize [len_1] starting from the given bound *)
  | Max_distance of single
      (** grow the minimum distance as far as the configuration allows
          ([maximal(md(G[0]))] with fixed [len_c]) *)
  | Weighted_mapping of Weighted.gen_shape * Weighted.gen_shape
      (** minimize [sum_w] over bit-to-generator mappings *)

and single = {
  data_len : int;
  check_lo : int;
  check_hi : int;
  md : int;
  len1_max : int option;
  fixed_bits : (int * int * bool) list;
      (** coefficient-matrix entries pinned by [G[0](r,c) = 0/1] (column
          index relative to the whole generator, as in the language) *)
}

(** [min_check_len ~data_len ~md ~check_lo ~check_hi] is the plain
    [minimal(len_c)] task (the §4.2 / Table 1 walk, and the optimize
    job): no pins and no [len_1] bound.  {!run} answers it with
    [Codes [code]] at the minimal length ([Hamming.Code.check_len code]),
    [Unsat] when every length up to [check_hi] is refuted, or
    [Partial]/[Timeout] when the budget cuts the walk. *)
val min_check_len : data_len:int -> md:int -> check_lo:int -> check_hi:int -> task

(** [analyze prop] classifies a specification, or explains why it is
    outside the supported fragment. *)
val analyze : Spec.Ast.prop -> (task, string) Stdlib.result

include module type of struct
  include Outcome
end

(** The specification is outside the supported fragment, or a required
    out-of-band input (weights) is missing. *)
exception Unsupported of string

(** [run ?timeout ?weights ?p ?jobs ?on_report ?interrupt ?initial ?on_cex
    ?on_round task] executes an analyzed task within [timeout] seconds
    (default 120) for the whole job, or raises {!Unsupported}.  [weights]
    are required for weighted tasks, which share the budget and
    [interrupt] between the mapping search and both generators.

    A single-generator task is one {!Optimize.walk}: [Fixed] and
    [Min_check_len] walk check lengths up from [check_lo] (raised to the
    shortest length holding every pinned entry) to [check_hi] (only
    [Fixed] emits no [optimize.step] points), [Min_set_bits] walks the
    set-bit bound down and [Max_distance] the distance up.  Each attempt
    is sequential CEGIS or, with [jobs], a {!Portfolio} race whose report
    goes to [on_report]; stats are summed over every attempt.  [Unsat]
    means the walk's own attempts refuted every parameter it tried; a
    walk the deadline or [interrupt] cut short answers [Partial] with its
    best verified generator ([verified]) or else its near-miss candidate,
    [Timeout] with neither.  [initial] replays checkpointed
    counterexamples into every attempt they fit; [on_cex] observes every
    counterexample newly learned; [on_round] sees every parameter just
    before it is attempted — checkpoint writers hook in here.  Both
    [initial] and [on_cex] apply only to attempts at the task's own [md]:
    a [Max_distance] attempt above it neither replays nor reports any. *)
val run :
  ?timeout:float ->
  ?weights:int array ->
  ?p:float ->
  ?jobs:int ->
  ?on_report:(Portfolio.report -> unit) ->
  ?interrupt:(unit -> bool) ->
  ?initial:Cegis.cex list ->
  ?on_cex:(Cegis.cex -> unit) ->
  ?on_round:(int -> unit) ->
  task ->
  outcome
