(** The serve wire protocol: newline-delimited JSON over a Unix socket.

    Each client line is one request object selected by its ["op"] field;
    each response is one object with ["ok"] first.  Local file paths
    (checkpoints, traces) are deliberately not exposed over the wire —
    the daemon's own configuration decides where cache, ledger and
    metrics live.

    Requests:
    - [{"op":"ping"}]
    - [{"op":"submit","spec":PROP,...}] or
      [{"op":"submit","optimize":{"data_len":K,"md":D,"check_lo":A,"check_hi":B},...}]
      with optional [timeout], [weights], [portfolio], [jobs], [cache],
      [await] (submit-and-wait in one round trip) and [deadline_ms] (the
      manager answers [{"state":"timeout"}] once it passes)
    - [{"op":"status","id":N}] / [{"op":"await","id":N}] /
      [{"op":"cancel","id":N}]
    - [{"op":"stats"}] — queue depth, drain status and per-worker
      detail (state, seconds in state, request id being served)
    - [{"op":"metrics"}] — the same live snapshot plus the full
      Prometheus text exposition under ["exposition"] (what the HTTP
      [/metrics] endpoint serves); [fecsynth top] polls this
    - [{"op":"shutdown"}] — drain and exit

    The answer object (under ["session"]["result"], see {!status_to_json}):
    - [{"outcome":"synthesized","codes":[C],"stats":S,...}] for a
      synth answer; an optimize answer adds ["check_len"] before
      ["codes"]
    - [{"outcome":"setbits_walk","steps":[{"bound","achieved","code":C,"stats":S}],"stats":S,...}]
    - [{"outcome":"weighted","mapping","sum_w","split","iterations","elapsed_s","codes":[C0,C1],...}]
    - [{"outcome":"partial","achieved_md","verified","codes":[C],"check_len"?,"stats":S,...}]
    - [{"outcome":"unsat"|"timeout","reason","stats"?,...}]

    where [C] is [{"block_len","data_len","matrix"}] and [S] the
    {!Synth.Report.Stats} object; every answer ends with ["cache_hit"],
    ["interrupted"], ["exit_code"] and ["wall_s"].  An interrupted run
    keeps its outcome name and shows the interrupt as
    ["interrupted":true] and exit code {!Session.exit_interrupted}.

    Error responses may carry a machine-readable ["kind"] alongside the
    human ["error"] text: [bad_frame] (unparseable JSON; the server
    closes the connection), [oversized] (frame longer than the server
    limit; closed), [torn_frame] (EOF splitting a frame; closed),
    [backpressure] (admission queue full), [draining] (shutdown in
    progress), [unknown_id].  A well-formed frame carrying a bad request
    object (e.g. a submit with neither spec nor optimize) is answered
    without a kind and the connection stays open. *)

type command =
  | Ping
  | Submit of {
      request : Session.request;
      await : bool;
      deadline_s : float option;
    }
  | Status of int
  | Await of int
  | Cancel of int
  | Stats
  | Metrics
  | Shutdown

(** [command_of_json ~defaults j] decodes one request line; [defaults]
    is the server's request template (cache policy, ledger/cache
    directories, subcommand) that submit fields override. *)
val command_of_json :
  defaults:Session.request ->
  Telemetry.Json.t ->
  (command, string) Stdlib.result

(** A session's state: [{"state":"queued"|"running"|"cancelled"|"timeout"}],
    [{"state":"failed","error":MSG}], or [{"state":"done","result":R}]
    where [R] is the answer object of {!Session.result_fields} — the
    same object [synth]/[optimize --stats json] print, less their
    [command] and [portfolio] keys.  [submit --await], [status] and
    [await] replies carry it under ["session"]. *)
val status_to_json : Session.Manager.status -> Telemetry.Json.t

(** One response line (with trailing newline): [ok fields] has
    ["ok":true] first, [error msg] is [{"ok":false,"error":msg}], with
    ["kind"] included when given. *)
val ok : (string * Telemetry.Json.t) list -> string

val error : ?kind:string -> string -> string
