(** The [fecsynth serve] daemon: a long-lived process multiplexing
    concurrent synthesis sessions over a Unix-domain socket.

    One single-threaded event loop owns the socket (accept, per-client
    frame buffering, buffered non-blocking response writing); the actual
    synthesis runs on {!Session.Manager} worker domains with a bounded
    admission queue.  Every request is recorded in the run ledger
    (subcommand ["serve"], stamped with the admission-time queue depth)
    and answered from the content-addressed result cache when possible.

    Fault tolerance:
    - the loop never blocks on a peer — slow readers overflow a bounded
      output buffer and are dropped, idle and half-open connections are
      reaped, malformed/oversized/torn frames get one typed error and
      the connection is closed;
    - per-request deadlines are enforced from the tick via
      {!Session.Manager.tend}: cooperative cancel at the deadline, and
      past [grace] the stuck worker is reaped and replaced, so the wire
      answers [timeout] instead of hanging;
    - startup is crash-safe: a stale socket left by a killed daemon is
      probed with a ping and taken over iff dead, orphaned cache temp
      files are swept, the ledger's torn tail is repaired and its
      in-flight journal becomes ["crash"] records; a [<socket>.pid]
      pidfile is maintained for operators.  The sweeps and the metrics
      file follow the durable-file rules of {!Durable} (DESIGN.md,
      "Durable files").

    Shutdown is a drain: SIGTERM, SIGINT or a [shutdown] request stop
    admission, let in-flight sessions finish (answering their waiters),
    then exit cleanly.  The [FEC_FAULT_SPEC] probe sites ["wire.read"],
    ["wire.write"], ["cache.read"], ["cache.write"] and
    ["manager.worker"] are honoured for resilience testing; injected
    wire faults cost the affected connection, never the daemon. *)

type config = {
  socket : string;
  workers : int;  (** session worker domains *)
  max_queue : int;  (** admission bound; beyond it, submits are refused *)
  grace : float;
      (** post-deadline wind-down slack before a worker is reaped
          (default 1 s) *)
  idle_timeout : float;
      (** idle-connection reap threshold in seconds; [0] disables
          (default 300 s; clients awaiting a session are exempt) *)
  max_frame : int;  (** request frame byte limit (default 1 MiB) *)
  max_out : int;
      (** per-connection output buffer bound (default 4 MiB) *)
  cache : bool;  (** default cache policy for requests (they can opt out) *)
  cache_dir : string option;
  no_ledger : bool;
  ledger_dir : string option;
  metrics : string option;
      (** Prometheus exposition file, rewritten whole ({!Durable.write})
          about once a second for the daemon's whole lifetime (covers
          [session.cache_*], [serve.queue_depth] and
          [serve.worker_reaped]) *)
  metrics_port : int option;
      (** when set, an HTTP listener on [127.0.0.1:port] served from the
          same select loop: [GET /metrics] returns the live Prometheus
          exposition (with per-worker labeled gauges refreshed at scrape
          time), [GET /healthz] a JSON health summary whose [status]
          flips to ["draining"] during shutdown.  The listener stays
          open through the drain. *)
  trace : string option;
      (** NDJSON telemetry trace of the daemon's entire lifetime; every
          event of a served run is stamped with its [request] id, so
          [fecsynth trace report --request] can slice one submit back
          out *)
  flight_dir : string option;
      (** where reap/crash postmortems land (default: the socket's
          directory) *)
  flight_capacity : int;
      (** per-domain flight-recorder ring size (default 512 events) *)
  runtime_lens : bool;
      (** start the {!Telemetry.Runtime} lens for the daemon's lifetime
          (default on): [gc_*] and [domain_util] series on [/metrics],
          [runtime.*] points — request-correlated via worker ring
          beacons — in the trace and the flight ring *)
}

val default_config : socket:string -> config

(** [run config] serves until drained.  Raises [Failure] when the socket
    cannot be bound or a live daemon already owns it. *)
val run : config -> unit
