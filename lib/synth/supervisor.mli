(** Crash supervision for synthesis workers.

    Production SAT portfolios treat solver workers as crashable; this
    module gives the portfolio the same failure model.  {!run} executes a
    worker body and converts unexpected exceptions — a [Stack_overflow], a
    logic bug, an injected {!Fault.Injected} — into supervised restarts
    with jittered exponential backoff, instead of letting them escape
    through [Domain.join] and destroy the whole race.  Cooperative
    cancellation ({!Smtlite.Ctx.Timeout} / {!Smtlite.Ctx.Interrupted} by
    default) passes through untouched.

    Backoff jitter is deterministic in [(policy.seed, label, attempt)], so
    seeded resilience trials reproduce exactly. *)

type policy = {
  max_restarts : int;  (** crashes beyond this give up (default 3) *)
  backoff_base : float;  (** first-restart delay, seconds (default 0.01) *)
  backoff_max : float;  (** delay ceiling, seconds (default 0.5) *)
  jitter : float;
      (** relative jitter width: delay is scaled by
          [1 + jitter * (u - 0.5)], [u] uniform in [0, 1) (default 0.5) *)
  seed : int;  (** jitter determinism key (default 0) *)
}

val default_policy : policy

(** [backoff_delay policy ~label ~attempt] is the jittered exponential
    delay before restart [attempt] — deterministic in
    [(policy.seed, label, attempt)].  Exposed so other supervision layers
    (the session manager's worker reaping, retrying wire clients) share
    one backoff discipline. *)
val backoff_delay : policy -> label:string -> attempt:int -> float

(** [on_crash policy ~label ~attempt e] is the one crash rule, shared by
    {!run} and the portfolio's stepped workers: incarnation [attempt]
    (counting from 0) of worker [label] raised [e].  It emits a
    [supervisor.crash] point, then either answers [Some delay] — restart
    after [delay] seconds ({!backoff_delay}), emitting
    [supervisor.restart] — or, once [policy.max_restarts] restarts are
    spent, [None] — give up, emitting [supervisor.giveup].  All three
    points carry [worker = label]. *)
val on_crash : policy -> label:string -> attempt:int -> exn -> float option

(** Outcome of a supervised run: the body's value (or, after giving up,
    the last captured exception) plus crash/restart totals — these feed
    {!Report.Stats.worker_crashes} / [worker_restarts]. *)
type 'a run = {
  result : ('a, exn) Stdlib.result;
  crashes : int;  (** unexpected exceptions captured *)
  restarts : int;  (** restarts performed ([crashes - 1] when giving up) *)
}

(** [run ?policy ?label ?is_cancellation body] calls [body ~attempt:0] and
    restarts it with an incremented attempt index after each captured
    crash, sleeping the backoff delay in between; {!on_crash} decides
    each crash, so it gives up after [policy.max_restarts] restarts.
    Exceptions for which [is_cancellation] holds are re-raised to the
    caller unchanged.
    Telemetry: {!on_crash}'s points, labelled with [label]. *)
val run :
  ?policy:policy ->
  ?label:string ->
  ?is_cancellation:(exn -> bool) ->
  (attempt:int -> 'a) ->
  'a run
