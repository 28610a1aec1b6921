(** Run-ledger recording for sessions.

    Each session run obtains a {!token} from {!start} and settles it with
    {!finish}; a process-wide [at_exit] hook (installed lazily, on the
    first recording start) settles any token still pending when the
    process dies — an uncaught exception, a library [exit] — as a
    ["crash"], so failures are first-class ledger data.

    Opting out is absolute: when the run is started with [~no_ledger:true]
    or [FEC_NO_LEDGER=1] is set, {!start} returns an inert token, no
    [at_exit] hook is installed on its behalf, and the hook — if some
    earlier recording run installed it — re-checks the environment at
    fire time, so an opted-out process can never create the ledger
    directory, not even on the crash path.

    Tokens are independent, so a long-lived server can record many
    concurrent sessions; the registry is mutex-protected. *)

type token

(** [enabled ?no_ledger ()] is [false] iff recording is opted out via the
    flag or [FEC_NO_LEDGER=1]. *)
val enabled : ?no_ledger:bool -> unit -> bool

(** [start ?no_ledger ?dir ?journaled ~subcommand ~problem ~config ()]
    begins a pending ledger record (or returns an inert token when opted
    out).  [~journaled:false] defers its in-flight crash journal to
    {!journal} (see {!Telemetry.Ledger.start}). *)
val start :
  ?no_ledger:bool ->
  ?dir:string ->
  ?journaled:bool ->
  subcommand:string ->
  problem:string ->
  config:(string * string) list ->
  unit ->
  token

(** [journal token] writes a deferred in-flight journal; a no-op for
    inert tokens and for records already journaled or finished. *)
val journal : token -> unit

(** [finish ?stats ?metrics ?cache_hit token ~outcome ~exit_code ()]
    appends the record.  Idempotent; inert tokens are a no-op. *)
val finish :
  ?stats:Telemetry.Json.t ->
  ?metrics:(string * float) list ->
  ?cache_hit:bool ->
  token ->
  outcome:string ->
  exit_code:int ->
  unit ->
  unit
