(** Typed metrics registry behind the telemetry enable-guard.

    A process-global registry of named counters, gauges and log-bucketed
    histograms.  Registration ({!counter}/{!gauge}/{!histogram}) is cheap
    and idempotent and normally happens once at module-init time; updates
    ({!incr}/{!set}/{!observe}) first perform the {e same} single atomic
    load as {!Telemetry.enabled} and return immediately — allocating
    nothing — when no sink is installed, so hot paths (the SAT inner
    loop) can feed the registry unconditionally.

    Reads are never gated: a CLI can inspect or {!expose} whatever
    accumulated while a sink was live.

    Histograms are HDR-style log-linear: values in [0, 64) get one exact
    bucket each, larger values land in 32 sub-buckets per power-of-two
    range, so quantiles are exact for small values and within a 1/32
    relative error on heavy tails.  Quantiles use the nearest-rank rule
    (rank ⌈q·N⌉) over bucket lower bounds, matching an exact sorted-array
    reference for values below 64. *)

(** {1 Immutable histogram snapshots} *)

module Hist : sig
  (** A canonical immutable snapshot: structural equality ([=]) is
      semantic equality, so snapshots can live inside records compared
      with [=] (e.g. the stats merge-monoid tests). *)
  type t

  val zero : t

  (** Pointwise merge — associative and commutative with identity
      {!zero}, making [t] a commutative monoid. *)
  val add : t -> t -> t

  (** [sub a b] is the per-bucket delta between a later cumulative
      snapshot [a] and an earlier one [b] of the same histogram.  The
      delta's min/max are approximated by surviving bucket bounds. *)
  val sub : t -> t -> t

  (** Functional observe (O(buckets) copy — use {!Histogram} to
      accumulate in hot code). *)
  val observe : t -> int -> t

  val of_list : int list -> t
  val count : t -> int

  (** Sum of observed values (negative observations clamp to 0). *)
  val sum : t -> int

  val min_value : t -> int option
  val max_value : t -> int option
  val equal : t -> t -> bool

  (** [quantile h q] is the nearest-rank q-quantile (rank [⌈q·N⌉],
      clamped to [1..N]) as the lower bound of the bucket holding that
      rank; [None] when empty. *)
  val quantile : t -> float -> int option

  (** Non-empty buckets as [(lower, upper_exclusive, count)] in
      increasing order. *)
  val buckets : t -> (int * int * int) list

  (** Non-empty buckets as ["lower:count,..."] — the compact form shipped
      as a span field. *)
  val to_csv : t -> string

  val to_json : t -> Json.t
  val pp : Format.formatter -> t -> unit
end

(** {1 Mutable accumulator} *)

(** An unsynchronized accumulator for single-owner hot paths (one per
    solver instance).  Take {!Histogram.snapshot}s to merge or compare. *)
module Histogram : sig
  type t

  val create : unit -> t
  val observe : t -> int -> unit
  val snapshot : t -> Hist.t
end

(** {1 The named registry} *)

type counter
type gauge
type histogram

(** Find-or-create; [help] is kept for exposition.  [labels] name one
    series within the metric family (e.g. [("worker", "0")] for
    per-worker gauges): the same base name with different label sets
    yields independent values sharing one [# TYPE] block in {!expose}.
    Label order is canonicalized, so the same pairs in any order alias
    the same series.  Raises [Invalid_argument] if the series is already
    registered with a different type. *)
val counter : ?help:string -> ?labels:(string * string) list -> string -> counter

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string -> ?labels:(string * string) list -> string -> histogram

(** [incr c n] adds [n] when telemetry is enabled; a single atomic load
    and nothing else when disabled. *)
val incr : counter -> int -> unit

(** [set g v] stores the gauge level when telemetry is enabled. *)
val set : gauge -> float -> unit

(** [observe h v] records one histogram observation (under the metric's
    own mutex) when telemetry is enabled. *)
val observe : histogram -> int -> unit

val counter_value : counter -> int
val gauge_value : gauge -> float
val histogram_value : histogram -> Hist.t

type sample = Counter of int | Gauge of float | Histogram of Hist.t

(** All registered metrics with their current values, sorted by name. *)
val dump : unit -> (string * sample) list

(** {1 Prometheus text exposition} *)

(** Metric names sanitized to [[A-Za-z_][A-Za-z0-9_]*] (dots become
    underscores). *)
val sanitize : string -> string

(** [series_key ?labels name] is the registry key for one series: the
    base name plus the canonical label block ([name{k="v",...}], pairs
    sorted, values escaped) — the shape {!dump} reports. *)
val series_key : ?labels:(string * string) list -> string -> string

(** Like {!sanitize} for full series keys: sanitizes the base name and
    leaves the (already canonical) label block intact. *)
val sanitize_key : string -> string

(** [expose ()] renders the registry in Prometheus text format:
    [# TYPE] lines, cumulative [_bucket{le="..."}] / [_sum] / [_count]
    series for histograms, plus non-standard [_min]/[_max] lines so the
    output parses back losslessly. *)
val expose : unit -> string

(** [parse_exposition s] parses {!expose}-format text back into
    [(sanitized_series_key, sample)] pairs sorted by key — labeled
    series come back as [name{k="v",...}] with the label block
    re-canonicalized.  Inverse of {!expose} up to name sanitization. *)
val parse_exposition : string -> ((string * sample) list, string) result

(** {1 Periodic-flush sink}

    [flush_sink ~min_interval write] is a {!Sink.t} that re-renders
    {!expose} through [write] at most every [min_interval] seconds
    (default 1.0), piggybacking on event traffic — no background thread.
    A final render happens on [flush].  Compose with other sinks via
    {!Sink.tee}. *)
val flush_sink : ?min_interval:float -> (string -> unit) -> Sink.t
