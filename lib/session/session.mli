(** The synthesis session layer: one typed request/response API over
    everything a run needs — spec analysis, portfolio setup, checkpoint
    writing, result caching, warm starts, ledger recording, telemetry
    routing, interrupt handling.

    {!run_sync} executes one request in the calling thread; {!Manager}
    multiplexes many concurrent requests over worker domains with a
    bounded admission queue (the [fecsynth serve] engine).  The CLI
    [synth]/[optimize] subcommands are thin clients of {!run_sync}:
    argument parsing and the text rendering stay in the binary;
    everything behavioral, and the JSON answer object that the CLI and
    the daemon both print ({!result_fields}), lives here.

    Both jobs run through one staged pipeline: record start, analyze
    (an [Optimize] job is a [minimal(len_c)] task without pins or a
    [len_1] bound), cache lookup, resume/warm start/checkpoint writer,
    solve ({!Synth.Driver.run}), record.  Only the ledger problem and
    config entries and the wrapping of an optimize answer as
    [Optimized] depend on the job. *)

(** {1 Requests} *)

type job =
  | Synth of {
      prop : string;  (** property text, or [@file] *)
      weights : int array option;
      portfolio : bool;
      jobs : int;
    }
  | Optimize of { data_len : int; md : int; check_lo : int; check_hi : int }

type request = {
  job : job;
  timeout : float;
  checkpoint : string option;  (** write a resumable checkpoint here *)
  resume : string option;  (** resume from this checkpoint *)
  cache : bool;  (** consult/populate the content-addressed result cache *)
  cache_dir : string option;  (** default: {!Cache.default_dir} *)
  no_ledger : bool;
  ledger_dir : string option;  (** default: [Ledger.default_dir] *)
  subcommand : string;  (** ledger [cmd] field: ["synth"], ["serve"], … *)
  trace : string option;
  metrics : string option;
  progress : bool;
  runtime_lens : bool;
      (** start the {!Telemetry.Runtime} lens for this run (one-shot CLI
          [--runtime-lens]): {!run_sync} owns start/stop when no lens is
          already live, the ledger record gains [gc.*] trend metrics
          (pause p99s, total pause seconds, allocated megawords), and
          the trace carries [runtime.*] points.  Under a daemon the
          process-wide lens is left alone. *)
  extra_metrics : (string * float) list;
      (** caller-stamped facts appended to the run's ledger metrics on
          every finish path (cache hits included) — the serve daemon
          records its admission-time [serve.queue_depth] here *)
  request_id : string option;
      (** wire correlation id minted at admission by the serve daemon.
          When present, the worker installs it as ambient span context
          ({!Telemetry.with_context}) so every telemetry event of the
          run carries a [request] field, and the ledger record keeps it
          in its config block. *)
}

(** A request with everything but the job defaulted: 120 s timeout, no
    checkpointing, cache off, ledger on, no observers; [subcommand] is
    ["synth"] or ["optimize"] per the job. *)
val default_request : job -> request

(** {1 Results} *)

(** What a resumed run started from (for the CLI's resume banner). *)
type resumed = { cex_count : int; prior_iterations : int; start_check : int }

(** The job outcome, declared once in {!Synth.Outcome} and shared with
    {!Synth.Driver.run}. *)
include module type of struct
  include Synth.Outcome
end

type result = {
  outcome : outcome;
  cache_hit : bool;
  interrupted : bool;  (** SIGINT or {!run_sync}'s [cancel] fired *)
  resumed : resumed option;
  report : Synth.Portfolio.report option;  (** last portfolio report *)
  wall_s : float;
  exit_code : int;  (** from {!verdict} *)
}

(** {1 The answer} *)

(** The exit codes a run ends with besides 0: the CLI contract, and the
    [exit_code] of every {!result}. *)
val exit_unsat : int

val exit_timeout : int
val exit_partial : int
val exit_interrupted : int

(** [verdict outcome ~interrupted] is the one outcome rule: the ledger
    outcome string and the exit code.  Verified answers are
    [synthesized]/0; [Unsat] is [unsat]/{!exit_unsat}; an interrupted
    [Partial] or [Timeout] is [interrupted]/{!exit_interrupted}, an
    uninterrupted one [partial]/{!exit_partial} or
    [timeout]/{!exit_timeout}. *)
val verdict : outcome -> interrupted:bool -> string * int

(** The answer object's fields, in order: the one JSON rendering of a
    result, shared by the CLI's [--stats json] (which adds [command] and
    [portfolio]) and the daemon's replies.  ["outcome"] names the
    constructor ([synthesized] for [Codes] and [Optimized],
    [setbits_walk], [weighted], [partial], [unsat], [timeout]; an
    interrupt shows in ["interrupted"] and ["exit_code"], not in the
    name), then the constructor's own fields, then ["stats"] when the
    outcome carries stats, then ["cache_hit"], ["interrupted"],
    ["exit_code"] and ["wall_s"].  A code is
    [{block_len, data_len, matrix}]. *)
val result_fields : result -> (string * Telemetry.Json.t) list

(** The CLI's text rendering of a result, one form per outcome.  A cut
    answer reads [interrupted: REASON] or [timeout: REASON]; an
    interrupted [Timeout]'s reason says where the run stood, for
    example [before the first candidate]. *)
val answer_text : result -> string

(** [load_prop spec] parses a property given inline or as [@FILE].
    @raise Sys_error when the file cannot be read. *)
val load_prop : string -> Spec.Ast.prop

(** The request is structurally invalid (checkpointing a multi-generator
    task, a spec outside the supported fragment, …).  The run's ledger
    record is finished as [error]/124 before this is raised. *)
exception Invalid_request of string

(** {1 Interrupts} *)

(** Install the CLI SIGINT protocol: first Ctrl-C requests a cooperative
    wind-down, the second aborts at once ({!exit_interrupted}).  Servers do {e not}
    install this — they get their own drain handling. *)
val install_sigint : unit -> unit

(** The process-wide wind-down flag set by the first SIGINT. *)
val interrupted : unit -> bool

(** {1 Running} *)

(** [run_sync ?on_report ?cancel request] executes the request to
    completion in the calling thread, owning the ledger record, the
    checkpoint writer, cache lookup/population and telemetry routing.
    [cancel] is a per-request cooperative stop composed with the global
    SIGINT flag.  The exit code and the ledger outcome follow from the
    outcome and whether the run was interrupted ({!verdict}).  Parse and
    I/O failures finish the ledger record as [error]/2 and re-raise for
    the caller's error rendering. *)
val run_sync :
  ?on_report:(Synth.Portfolio.report -> unit) ->
  ?cancel:bool Atomic.t ->
  request ->
  result

(** {1 Concurrent sessions} *)

module Manager : sig
  (** A bounded pool of worker domains executing sessions concurrently —
      the multiplexing core of [fecsynth serve]. *)

  type t
  type id = int

  type status =
    | Queued
    | Running
    | Done of result
    | Failed of string  (** the run raised; message is the rendering *)
    | Cancelled  (** cancelled while still queued *)
    | Timed_out  (** its deadline passed; see {!tend} *)

  (** Live per-worker detail for the [stats]/[metrics] wire ops and
      [fecsynth top]. *)
  type worker_info = {
    wi_worker : int;
    wi_state : [ `Idle | `Running | `Condemned ];
    wi_since_s : float;  (** seconds spent in the current state *)
    wi_request : string option;  (** request id being served, if any *)
    wi_session : id option;
  }

  (** [create ~workers ~max_queue ?grace ?policy ?on_reap ()] starts
      [workers] domains.  At most [max_queue] requests may be queued
      (excluding running ones); admission beyond that is refused.
      [grace] (default 1 s) is the post-deadline slack a running session
      gets to wind down cooperatively before its worker is reaped.
      [policy] governs both worker crash supervision and reap/
      replacement backoff (default: {!Synth.Supervisor.default_policy}
      with generous restarts, suited to a long-running daemon).
      [on_reap] fires outside the manager lock after each worker is
      condemned — the serve daemon dumps the flight recorder there.
      [on_settle] fires every time a session reaches a final status, from
      whichever thread settled it (a worker domain, or the caller of
      {!tend}/{!cancel}), with the manager lock held: it must be quick
      and must not call back into the manager — the serve daemon writes
      one byte to a self-pipe there to wake its event loop. *)
  val create :
    workers:int ->
    max_queue:int ->
    ?grace:float ->
    ?policy:Synth.Supervisor.policy ->
    ?on_reap:(worker:int -> request_id:string option -> unit) ->
    ?on_settle:(unit -> unit) ->
    unit ->
    t

  (** How many settled sessions stay queryable: once more have settled,
      the oldest is forgotten and {!status} answers [None] for it.
      Sessions still queued or running are always kept. *)
  val retained : int

  (** [submit ?deadline_s t request] enqueues and returns the session
      id, or [Error `Backpressure] when the admission queue is full.
      [deadline_s] is a relative deadline; {!tend} enforces it.  Updates
      the [serve.queue_depth] gauge. *)
  val submit :
    ?deadline_s:float -> t -> request -> (id, [ `Backpressure ]) Stdlib.result

  (** [tend t] enforces deadlines; the serve loop calls it every tick.
      A queued session past its deadline settles as [Timed_out].  A
      running one is cancelled cooperatively at the deadline; past
      deadline + grace its worker domain is {e reaped} — condemned,
      abandoned (domains cannot be killed; a stuck one becomes a
      zombie that never blocks shutdown) and replaced by a fresh
      supervised worker after a jittered backoff — and the session
      settles as [Timed_out].  Bumps [serve.worker_reaped]. *)
  val tend : t -> unit

  (** [status t id] is the session's status and the request id it was
      submitted with, or [None] for an id never admitted or already out
      of the retention window. *)
  val status : t -> id -> (status * string option) option

  (** [cancel t id] requests a cooperative stop: a queued session is
      dropped, a running one winds down as interrupted. *)
  val cancel : t -> id -> bool

  (** Number of sessions queued but not yet running. *)
  val queue_depth : t -> int

  (** Whether any session is queued or running. *)
  val busy : t -> bool

  (** Sessions admitted since creation, forgotten ones included. *)
  val admitted : t -> int

  (** Workers reaped (condemned and replaced) since creation. *)
  val reaped : t -> int

  (** Snapshot of every worker ever spawned (condemned ones included),
      sorted by worker id. *)
  val workers : t -> worker_info list

  (** [drain t] stops admission, waits for every queued and running
      session to settle, and joins the workers. *)
  val drain : t -> unit
end
