(** Zero-dependency structured tracing and metrics.

    One process-global sink (default: none) receives {!Sink.event}s from
    instrumented code.  The cardinal design constraint is
    {e overhead-when-disabled}: every instrumentation entry point first
    performs a single atomic load ({!enabled}) and returns immediately when
    no sink is installed, so hot paths (the SAT solver, the CEGIS loop) can
    stay instrumented unconditionally.  Field lists are only constructed
    after that check when call sites use the [if enabled] idiom or the
    closure-based {!span}.

    Spans nest: each domain keeps its own current-span stack (domain-local
    storage), so concurrent portfolio workers get correct parent edges
    without cross-domain interference.  Events may interleave arbitrarily
    across domains in sink order; ids are process-unique. *)

module Json = Json
module Sink = Sink

(** Typed counters/gauges/histograms with Prometheus exposition; updates
    are gated on the same {!enabled} probe. *)
module Metrics = Metrics

(** In-memory flight recorder: bounded per-domain rings of recent events,
    dumped as a postmortem NDJSON tail when a worker is reaped or a crash
    record is journaled.  Same single-atomic-load guard when disabled. *)
module Flight = Flight

(** Runtime-observability lens over OCaml's [Runtime_events] ring:
    GC-pause histograms, allocation counters and per-domain utilization
    gauges in the metrics registry, plus [runtime.*] trace points (with
    request correlation) through the installed sink.  Same
    single-atomic-load guard when the lens is not started. *)
module Runtime = Runtime

(** Offline NDJSON trace analytics: validation, per-phase wall-time
    attribution, folded flamegraph stacks, and trace/bench diffing. *)
module Analyze = Analyze

(** Live single-line TTY progress rendering, fed by events. *)
module Progress = Progress

(** Build identity (version, git describe, compiler, features) shared by
    [fecsynth version] and every run-ledger entry. *)
module Buildinfo = Buildinfo

(** Persistent cross-run history: the append-only NDJSON ledger behind
    the [fecsynth runs] family, plus its trend analytics. *)
module Ledger = Ledger

(** The self-contained HTML dashboard over the run ledger. *)
module Html = Html

(** {1 Sink installation} *)

(** [enabled ()] is [true] iff a sink is installed — the single-load fast
    path guard. *)
val enabled : unit -> bool

(** [with_sink s f] installs [s] around [f ()], restores the previous sink
    afterwards (also on exception), and flushes [s]. *)
val with_sink : Sink.t -> (unit -> 'a) -> 'a

(** {1 Field construction shorthands} *)

val int : int -> Sink.value
val float : float -> Sink.value
val str : string -> Sink.value
val bool : bool -> Sink.value

(** {1 Instrumentation points} *)

(** [now ()] is seconds since the telemetry epoch (process start). *)
val now : unit -> float

(** A span in progress.  When telemetry was disabled at {!begin_span} time
    the span is inert and {!end_span} is a no-op. *)
type span

(** [begin_span ?fields name] opens a span, emits [Span_begin], and pushes
    it on this domain's span stack (becoming the parent of nested spans). *)
val begin_span : ?fields:Sink.fields -> string -> span

(** [end_span ?fields sp] pops and emits [Span_end] with the measured
    duration.  [fields] typically carry results computed inside the span
    (solver result, statistics deltas). *)
val end_span : ?fields:Sink.fields -> span -> unit

(** [span ?fields name f] wraps [f ()] in a span, ending it on any exit
    (including exceptions).  When disabled this is just [f ()]. *)
val span : ?fields:Sink.fields -> string -> (unit -> 'a) -> 'a

(** [counter ?fields name n] emits a counter increment of [n]. *)
val counter : ?fields:Sink.fields -> string -> int -> unit

(** [gauge ?fields name v] emits a point-in-time level. *)
val gauge : ?fields:Sink.fields -> string -> float -> unit

(** [point ?fields name] emits an instantaneous event. *)
val point : ?fields:Sink.fields -> string -> unit

(** {1 Ambient span context}

    Request-scoped correlation for the serve daemon: fields installed
    with {!with_context} are stamped onto every event this domain emits
    (spans, counters, gauges, points), after the event's own fields so
    explicit fields win association lookups.  The context is
    domain-local and does {e not} cross [Domain.spawn] by itself —
    spawn sites capture {!current_context} in the parent and reinstall
    it inside the child (see [Synth.Portfolio]).  The disabled fast
    path is untouched: context is only consulted after {!enabled}. *)

(** [with_context fields f] runs [f ()] with [fields] prepended to this
    domain's ambient context, restoring the previous context on any
    exit. *)
val with_context : Sink.fields -> (unit -> 'a) -> 'a

(** [current_context ()] is this domain's ambient context, innermost
    first — capture it before [Domain.spawn] and reinstall it in the
    child. *)
val current_context : unit -> Sink.fields
