(** Persistent cross-run history: the append-only NDJSON ledger behind
    the [fecsynth runs] family.

    Every synth/optimize/bench invocation appends one compact, versioned
    record — UTC timestamp (supplied by the caller), build info, CLI
    config, stats, outcome, key metrics, wall time, exit status — to
    [<dir>/runs.ndjson].  Appends are a single [O_APPEND] write of one
    complete line (atomic for whole records under concurrent writers on
    local filesystems); whole-file artifacts elsewhere in the stack keep
    the tmp+rename discipline.  The reader tolerates a truncated
    non-newline-terminated tail like {!Analyze.of_string}, rejects
    malformed newline-terminated lines, and skips-but-counts records
    written by a {e newer} format version. *)

(** The record format version this build writes (and the newest it can
    read). *)
val format_version : int

type entry = {
  version : int;
  ts : string;  (** caller-supplied UTC timestamp, ISO-8601 with [Z] *)
  subcommand : string;
  problem : string;  (** the spec / code descriptor / experiment list *)
  outcome : string;
      (** ["synthesized"], ["partial"], ["timeout"], ["unsat"],
          ["interrupted"], ["verified"], ["refuted"], ["ok"], ["error"],
          ["crash"], ... — failures are first-class data *)
  exit_code : int;
  cache_hit : bool;
      (** the run was answered from the session result cache; serialized
          only when [true], so pre-cache records and readers round-trip
          unchanged *)
  wall_s : float;
  build : Buildinfo.t;
  config : (string * string) list;
  metrics : (string * float) list;
      (** flat numeric facts; always includes [wall_s] for trends *)
  stats : Json.t option;  (** the full structured stats object *)
}

(** [utc_timestamp ?at ()] renders [at] (default: now) as
    [YYYY-MM-DDTHH:MM:SSZ]. *)
val utc_timestamp : ?at:float -> unit -> string

val to_json : entry -> Json.t

type reject = [ `Future of int | `Malformed of string ]

(** Decode one record; [`Future v] for records written by format version
    [v > format_version]. *)
val of_json : Json.t -> (entry, reject) result

(** One compact NDJSON line, no trailing newline. *)
val render : entry -> string

(** {1 Reading} *)

type loaded = {
  entries : entry list;  (** in append order, oldest first *)
  truncated : bool;
      (** the final line had no newline terminator and did not decode —
          an interrupted append, tolerated by dropping it *)
  skipped_future : int;  (** records from a newer format version *)
}

(** [of_string content] parses ledger file content; [Error "line N: ..."]
    on a malformed newline-terminated line. *)
val of_string : string -> (loaded, string) result

(** [load ~dir] reads [<dir>/runs.ndjson]; a missing file is an empty
    ledger, not an error. *)
val load : dir:string -> (loaded, string) result

(** {1 Writing} *)

(** [$FEC_LEDGER_DIR] when set and non-empty, else [.fecsynth/ledger]. *)
val default_dir : unit -> string

(** [file ~dir] is [<dir>/runs.ndjson]. *)
val file : dir:string -> string

(** [append ~dir e] creates [dir] as needed and appends one line.
    @raise Failure (or a [Unix.Unix_error]) on I/O failure. *)
val append : dir:string -> entry -> unit

(** [repair_tail ~dir] truncates a torn (non-newline-terminated) final
    line left by a crash mid-append, so the next append cannot glue a
    fresh record onto it and corrupt the file.  Returns [true] iff
    something was truncated.  A missing file is a no-op. *)
val repair_tail : dir:string -> bool

(** [scavenge ~dir] is the crash-safe-restart sweep: repairs the torn
    tail, then recovers the in-flight journal — every pending record
    writes a would-be ["crash"] record under [<dir>/inflight/] (at
    {!start}, or at {!journal} when deferred) and {!finish} removes it, so a journal file whose owning pid is dead marks a run
    killed mid-flight (SIGKILL, power loss).  Each such record is
    appended to the ledger as a first-class ["crash"] entry and its
    journal deleted.  Returns [(recovered, tail_repaired)]. *)
val scavenge : dir:string -> int * bool

(** A run being recorded: {!start} captures the wall clock and identity
    up front, {!finish} appends exactly one record.  The CLI keeps one
    pending record per process and finishes it with ["crash"] from an
    [at_exit] hook when no explicit outcome was recorded. *)
type pending

(** [start ?dir ?journaled ...] begins a pending record.  With
    [~journaled:false] it writes no in-flight journal until {!journal}
    is called, so a run killed before then leaves no ["crash"] record. *)
val start :
  ?dir:string ->
  ?journaled:bool ->
  ts:string ->
  subcommand:string ->
  problem:string ->
  config:(string * string) list ->
  build:Buildinfo.t ->
  unit ->
  pending

(** [journal p] writes [p]'s in-flight journal if [p] has none yet and
    is not finished; a no-op otherwise. *)
val journal : pending -> unit

(** Idempotent: only the first [finish] appends.  [wall_s] is measured
    from {!start} and prepended to [metrics].  A ledger I/O failure is
    reported as a warning on stderr, never raised — history must not
    break the command it records. *)
val finish :
  ?stats:Json.t ->
  ?metrics:(string * float) list ->
  ?cache_hit:bool ->
  pending ->
  outcome:string ->
  exit_code:int ->
  unit

(** {1 Trend analytics ([fecsynth runs trend])} *)

(** Nearest-rank quantile (rank [⌈q·N⌉]) over a float list, consistent
    with {!Metrics.Hist.quantile}; [None] on an empty list. *)
val quantile : float list -> float -> float option

type series = {
  s_cmd : string;
  s_problem : string;
  s_metric : string;
  points : (string * float) list;  (** [(ts, value)], oldest first *)
}

(** Per-(subcommand, problem, metric-key) series over the entries, in
    first-appearance order.  [metric] matches by substring; [subcommand]
    filters exactly, [problem] by substring. *)
val series :
  ?subcommand:string ->
  ?problem:string ->
  metric:string ->
  entry list ->
  series list

type trend = {
  t_series : series;
  n : int;
  last : float;
  p50 : float;
  p95 : float;
  lo : float;
  hi : float;
  pct_vs_baseline : float option;
      (** latest point vs the median of all prior points, in percent
          ([infinity] when a zero baseline grows — the {!Analyze.diff}
          convention); [None] with fewer than two points *)
  regression : bool;  (** [pct_vs_baseline > threshold] *)
}

(** @raise Invalid_argument on an empty series (never produced by
    {!series}). *)
val trend : threshold:float -> series -> trend
