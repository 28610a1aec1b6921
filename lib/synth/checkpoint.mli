(** On-disk checkpoints of a synthesis session.

    A checkpoint captures the reusable state of an interrupted run: the
    counterexample pool (raw witnesses, so any configuration or encoding
    can re-learn them), the best generator found so far with its verified
    distance bound, the optimization bound in force, and the iteration
    count reached.

    The payload is versioned line records in a {!Durable} sealed envelope,
    written whole by {!Durable.write} (DESIGN.md, "Durable files"): readers
    only ever see complete checkpoints, and a truncated or bit-flipped file
    is reported as {!Corrupt} — a damaged checkpoint is never silently
    trusted. *)

(** Current on-disk format version. *)
val version : int

type t = {
  data_len : int;  (** [k] of the problem the state belongs to *)
  check_len : int;  (** [c] of the problem *)
  min_distance : int;  (** target [md] of the problem *)
  iterations : int;  (** CEGIS iterations completed when saved *)
  opt_bound : int option;
      (** for [optimize]: best (smallest feasible) check length so far *)
  best : (Hamming.Code.t * int) option;
      (** best candidate so far and its verified distance lower bound *)
  cexes : Cegis.cex list;  (** counterexample pool, oldest first *)
}

type error =
  | Io of string  (** the file cannot be read (missing, permissions…) *)
  | Corrupt of string  (** CRC or structural validation failed *)
  | Version_mismatch of int  (** written by an incompatible version *)

val error_to_string : error -> string

(** [code_to_line code] renders a generator on one line, rows joined with
    [';'] ({!Hamming.Code.of_string} reads it back); the cache stores
    generators the same way. *)
val code_to_line : Hamming.Code.t -> string

(** [save ~path t] writes [t] to [path] whole ({!Durable.write}). *)
val save : path:string -> t -> unit

(** [load ~path] reads and validates a checkpoint.  Validation covers the
    CRC, the format version, record structure, and that every stored
    witness fits the declared problem dimensions. *)
val load : path:string -> (t, error) result

(** [matches_problem t p] is [true] iff [t] was saved for problem [p]
    (same [data_len], [check_len], [min_distance]).  Resuming against a
    different problem must be refused by the caller. *)
val matches_problem : t -> Cegis.problem -> bool

(** Incremental, thread-safe checkpoint writer.

    A [Writer.w] accumulates state via [record_*] calls (safe from any
    domain) and rewrites the checkpoint file at most once per
    [min_interval] seconds, plus on {!Writer.flush}.  Each write is the
    same atomic save as {!save}. *)
module Writer : sig
  type w

  (** [create ~path ~data_len ~check_len ~min_distance ()] makes a writer
      targeting [path].  [min_interval] (seconds, default 0.25) throttles
      rewrites. *)
  val create :
    ?min_interval:float ->
    path:string ->
    data_len:int ->
    check_len:int ->
    min_distance:int ->
    unit ->
    w

  (** Append a counterexample to the pool. *)
  val record_cex : w -> Cegis.cex -> unit

  (** Record a candidate with verified distance bound [bound]; kept only
      if it beats the current best. *)
  val record_best : w -> Hamming.Code.t -> int -> unit

  (** Record the optimization bound (best feasible check length). *)
  val record_bound : w -> int -> unit

  (** Record the CEGIS iteration count reached. *)
  val record_iterations : w -> int -> unit

  (** Write pending state to disk now (used on exit/interrupt). *)
  val flush : w -> unit

  (** The writer's current accumulated state. *)
  val snapshot : w -> t
end
