(** Front end: normalize a property-language specification into one of the
    supported synthesis tasks and run it.

    Supported specification shapes (all the paper's experiments):
    - single generator with fixed [len_d], a [len_c] value or interval,
      an [md] target, optional [len_1] bounds and fixed-entry constraints,
      optionally [minimal(len_c(G[0]))] — §4.2 / Table 1;
    - the same with [minimal(len_1(G[0]))] — §4.4 / Figures 5-6;
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
    ?on_round task] executes an analyzed task, or raises {!Unsupported}.
    [weights] are required for weighted tasks.  [jobs] switches
    single-generator synthesis to the {!Portfolio} racing [jobs] worker
    configurations; [on_report] receives the portfolio report of each
    synthesis call (other task shapes run sequentially regardless).

    [Fixed] and [Min_check_len] tasks share one check-length walk
    ({!Optimize.walk_check_len}) from [check_lo] (raised to the shortest
    length holding every pinned entry) to [check_hi]; the outcome's stats
    are summed over every length tried.  Only a [Min_check_len] walk
    emits [optimize.step] points.

    [interrupt] is polled cooperatively inside solver search; when it
    returns [true] the run winds down and reports [Partial] if any
    candidate was refuted, [Timeout] otherwise.  [initial] replays
    checkpointed counterexamples before the first candidate (witnesses
    that do not fit a configuration being attempted are skipped for that
    configuration); [on_cex] observes every newly learned counterexample
    and [on_round] every check length just before it is attempted —
    checkpoint writers hook in here.  [initial], [on_cex] and [on_round]
    are honoured by the single-generator task shapes; objective walks
    accept [interrupt] only. *)
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
