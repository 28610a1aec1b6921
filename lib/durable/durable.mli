(** Durable files: the rules every on-disk artifact of fecsynth is
    written, read and swept by (DESIGN.md, "Durable files").  A stored
    answer or checkpoint is exactly the bytes that were written, or it is
    refused.

    - {!write}: a whole file goes to [<path>.tmp.<pid>] and is renamed
      onto [path], so a reader sees the old file or the new one, never a
      torn one.
    - {!seal} / {!unseal}: a CRC-32 envelope, so a file that is not the
      bytes written (cut short, bit-flipped) is refused, never trusted.
    - {!sweep}: files whose owner pid is dead are removed; a live owner
      marks work in flight and is left alone.
    - {!mkdir_p}: the one way a durable file's directory is made.

    No write is fsynced: a crash may lose the last write, never corrupt
    one silently. *)

(** [mkdir_p dir] creates [dir] and any missing parents (mode [0o755]).
    @raise Unix.Unix_error when a directory cannot be made. *)
val mkdir_p : string -> unit

(** [read path] is the whole content of [path].  @raise Sys_error *)
val read : string -> string

(** [write path text] writes [text] to [<path>.tmp.<pid>] and renames it
    onto [path].  A failed write removes the temp file and re-raises.
    [~torn:true] models a crash between the write and the rename: half
    of [text] lands in the temp file, which stays behind for {!sweep},
    and [path] is untouched.  @raise Sys_error *)
val write : ?torn:bool -> string -> string -> unit

(** [tmp_owner name] is the writing pid of a temp file name that {!write}
    makes ([<name>.tmp.<pid>]), [None] for any other name. *)
val tmp_owner : string -> int option

(** [seal ~magic ~version body] is the header line [<magic> <version>],
    then [body] (which ends in a newline), then the trailer line
    [crc <8 hex digits>] holding the CRC-32 of every byte before it. *)
val seal : magic:string -> version:int -> string -> string

type error =
  | Truncated  (** no [crc] trailer line: the text was cut short *)
  | Bad_crc  (** the trailer is not the CRC of the bytes before it *)
  | Wrong_magic  (** the header line does not name [magic] *)
  | Version of int  (** the header names this other format version *)

(** [unseal ~magic ~version text] is [Ok body] when [text] is
    [seal ~magic ~version body].  It checks, in order, the trailer, the
    CRC, the magic and the version, and answers the first that fails. *)
val unseal : magic:string -> version:int -> string -> (string, error) result

(** [owner_alive pid] is [false] only when no process [pid] exists.  A
    pid we may not signal (EPERM) is alive, and so is a non-positive
    one, which names no single process. *)
val owner_alive : int -> bool

(** [sweep ~dir ~owner ()] removes every file of [dir] whose [owner]
    (the pid its name carries, [None] for files it does not own) is not
    {!owner_alive}, visiting names in sorted order, and returns how many
    it removed.  [salvage path] runs first on each such file, to keep
    what it holds.  A missing directory sweeps nothing. *)
val sweep :
  ?salvage:(string -> unit) ->
  dir:string ->
  owner:(string -> int option) ->
  unit ->
  int
