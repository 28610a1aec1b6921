(** Offline analysis of NDJSON telemetry traces and bench baselines.

    The write side ({!Telemetry}, {!Sink}) only emits; this module reads
    traces back and answers the questions the paper's evaluation needs:
    where does synthesis wall time go ({!report}), what does the span
    tree look like as a flamegraph ({!flame}), and did a change regress a
    metric beyond a threshold ({!diff}).  All entry points take file
    {e content} strings, never paths. *)

(** {1 Parsing} *)

type parsed = {
  events : Sink.event list;  (** in file order *)
  truncated : bool;
      (** the final line had no newline terminator and did not parse — an
          interrupted write, tolerated by dropping it *)
}

(** [of_string content] parses one event per line.  A malformed
    newline-terminated line is real corruption: [Error "line N: ..."]. *)
val of_string : string -> (parsed, string) result

(** {1 Validation ([fecsynth trace check])} *)

type check = {
  total : int;
  counts : ((string * string) * int) list;
      (** per-[(kind, name)] event tallies, sorted *)
  check_truncated : bool;
  unbalanced_spans : int;
      (** span ids opened but never closed, plus ends without a begin *)
  out_of_order : int;
      (** events whose timestamp regresses within their worker stream
          beyond a small cross-domain reordering slack *)
  unknown_fields : int;
      (** events carrying a custom field this build does not recognize —
          written by a newer fecsynth.  Tolerated (the payload is kept),
          surfaced as a warning by [trace check], never an error. *)
  unknown_field_names : string list;  (** the unrecognized keys, sorted *)
}

val check : parsed -> check

(** {1 Slices and the span tree} *)

(** Request ids present in the trace with their event counts, busiest
    first.  Daemon traces interleave many requests across worker domains;
    the ambient span context ({!Telemetry.with_context}) stamps every
    event with its request id, so one submit can be sliced back out. *)
val request_ids : parsed -> (string * int) list

type span = {
  id : int;
  name : string;
  parent : int option;
  t0 : float;
  dur : float;
  self : float;  (** [dur] minus the summed durations of direct children *)
  still_open : bool;
      (** no end event in the slice: [dur] runs to the slice's last
          timestamp *)
  begin_fields : Sink.fields;
  end_fields : Sink.fields;  (** [[]] for a span still open *)
}

(** The one begin/end pairing behind {!report} and {!flame}: completed
    spans in completion order, then spans still open at the end of the
    trace (a killed run) in begin order, extended to its last timestamp.
    Self-times are filled in. *)
val spans : parsed -> span list

(** {1 Per-phase wall-time attribution ([fecsynth trace report])} *)

type phase = { phase : string; total_s : float; calls : int }

type report = {
  request : string option;  (** the sliced request id, [None] for the whole trace *)
  events : int;
  wall_s : float;  (** last slice timestamp minus first *)
  queue_wait_s : float;
      (** request slices only (else [0]): first event of the slice (the
          admission point) to its first span *)
  busy_s : float;
      (** summed root-span durations; exceeds [wall_s] when worker
          domains overlap *)
  open_spans : int;  (** spans still open at the slice end, extended to it *)
  attributed_s : float;
      (** wall time covered by root spans (spans whose parent is not in
          the slice) plus queue wait, as an interval union: never exceeds
          [wall_s] *)
  unattributed_s : float;  (** [wall_s - attributed_s] *)
  attributed_pct : float;
  iterations : int;
  phases : phase list;
      (** named phases sorted by total self-time, descending.  SAT solver
          self-time is split into [sat.propagate]/[sat.analyze]/
          [sat.restart]/[sat.other] when the trace carries the solver's
          inner-loop timing fields; [ctx.check] self-time appears as
          [smtlite.encode], [cegis.iteration] driver overhead as
          [cegis.loop], [portfolio.worker] self-time as
          [portfolio.idle], a request's queue wait as [queue.wait].
          Totals can exceed the wall when worker domains overlap. *)
  sat_totals : (string * int) list;
      (** decisions/propagations/conflicts/restarts summed over solver
          calls *)
  slowest : (int * float * (string * float) list) list;
      (** the [top] slowest iterations: number, duration, direct children
          merged by name (slowest first) *)
}

(** [report ?request ?top p] attributes the wall time of the whole trace
    or, with [request], of the events stamped with that id — the same
    computation on a smaller slice, plus the request's queue wait.
    [None] only when [request] never appears in the trace. *)
val report : ?request:string -> ?top:int -> parsed -> report option

(** {1 Runtime lens ([fecsynth trace report] "runtime" section)} *)

(** Per-domain mutator/GC/wait split recovered from the runtime lens's
    [runtime.gc] interval points (see {!Telemetry.Runtime}). *)
type runtime_domain = {
  rt_domain : int;
  rt_covered_s : float;
      (** summed interval seconds: wall time the lens observed on this
          domain *)
  rt_minor_s : float;
  rt_major_s : float;
  rt_wait_s : float;  (** condition-wait (idle) seconds *)
  rt_mutator_s : float;  (** covered minus GC minus wait *)
  rt_minor_n : int;
  rt_major_n : int;
  rt_alloc_words : int;
}

type runtime_section = {
  rt_domains : runtime_domain list;  (** sorted by domain index *)
  rt_gc_s : float;  (** minor + major seconds over all domains *)
  rt_total_mutator_s : float;
  rt_total_wait_s : float;
  rt_pauses : int;  (** over-threshold pause points in the slice *)
  rt_max_pause_s : float;
  rt_covered_pct : float;
      (** best per-domain coverage against the slice's wall clock *)
}

(** [runtime ?request p] aggregates the lens's interval points — sliced
    to one request when [request] is given — into the report's
    "runtime" section; [None] when the trace carries no runtime lens
    data (the lens was off). *)
val runtime : ?request:string -> parsed -> runtime_section option

(** {1 Folded stacks ([fecsynth trace flame])} *)

(** [(stack, self µs)] pairs, stack names joined with [';'], sorted by
    stack — the folded format consumed by flamegraph.pl and speedscope.
    Runtime-lens GC pause points fold in as leaf frames under the
    innermost covering span (their µs deducted from that span's self),
    or as root frames when no span covers them. *)
val flame : parsed -> (string * int) list

val flame_to_string : parsed -> string

(** {1 Metric diffing ([fecsynth trace diff])} *)

type source = Trace | Bench

val source_name : source -> string

(** Scalar metrics of a trace: per-span-name total seconds and counts,
    counter totals, point counts, and overall [wall_s]. *)
val metrics_of_trace : parsed -> (string * float) list

(** Scalar metrics of a parsed BENCH_*.json object:
    [experiment/instance/{wall_s,iterations,conflicts}]. *)
val metrics_of_bench : Json.t -> ((string * float) list, string) result

(** Auto-detects the flavor: a JSON object with an ["instances"] array is
    a bench file, anything else must parse as an NDJSON trace. *)
val metrics_of_string :
  string -> ((string * float) list * source, string) result

type delta = { key : string; va : float; vb : float; pct : float }

type diff = {
  shared : int;
  only_a : int;  (** [List.length removed] *)
  only_b : int;  (** [List.length added] *)
  added : string list;
      (** metric keys present only in [b] (the candidate), sorted *)
  removed : string list;
      (** metric keys present only in [a] (the baseline), sorted *)
  regressions : delta list;
      (** shared metrics that grew by more than [threshold] percent from
          [a] to [b] (a zero baseline growing counts as infinite),
          worst first *)
  improvements : delta list;  (** shrank by more than [threshold] percent *)
}

(** [diff ~threshold a b] compares metric lists; metrics present on only
    one side are never judged against the threshold, but are reported by
    name in [added]/[removed] so a disappearing metric can't hide a
    regression silently. *)
val diff : threshold:float -> (string * float) list -> (string * float) list -> diff
