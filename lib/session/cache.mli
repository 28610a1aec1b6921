(** Persistent content-addressed result cache.

    Proven synthesis results are stored one file per canonical key digest
    ([<dir>/<md5>.entry]), each one JSON object in a {!Durable} sealed
    envelope written by {!Durable.write} (DESIGN.md, "Durable files") — a
    reader never sees a torn entry, and a truncated or bit-flipped one is
    treated as a miss (then recomputed and overwritten), never trusted.

    Every entry embeds the full canonical key string; {!lookup} compares
    it against the requested key, so a digest collision degrades to a
    miss rather than serving a wrong generator.  On top of the CRC, a
    hit's generator is cheaply re-verified (exact minimum-distance
    enumeration for small data lengths) before it is returned: the cache
    can hand out {e only} results that still prove their own certificate.

    Near-miss warm starts: alongside result entries the cache keeps
    counterexample pools ([<md5>.pool]) in the {!Synth.Checkpoint} format.
    A miss collects every pool whose problem dimensions (data length,
    distance target) match the request and replays it into the fresh
    search — refutations are implied by the specification, so importing
    them from any prior run of a compatible spec is sound. *)

(** Current on-disk entry format version. *)
val version : int

type entry = {
  key : string;  (** canonical spec string, the collision guard *)
  created : string;  (** UTC timestamp of the original run *)
  code : Hamming.Code.t;  (** the proven generator *)
  check_len : int;
  md : int;  (** the distance bound the original run proved *)
  verified_md : int;  (** exact minimum distance at store time *)
  iterations : int;  (** of the original (cold) run *)
  elapsed : float;  (** seconds of the original (cold) run *)
}

(** [$FEC_CACHE_DIR] when set and non-empty, else [.fecsynth/cache]. *)
val default_dir : unit -> string

(** [store ~dir ~digest entry] atomically writes the entry, creating
    [dir] as needed.  I/O failures are reported as a warning on stderr,
    never raised — caching must not break the run it records. *)
val store : dir:string -> digest:string -> entry -> unit

(** [lookup ~dir ~digest ~key] returns the entry iff the file exists,
    passes its CRC, stores exactly [key], and its generator re-verifies.
    Any failure is a miss.  Bumps the [session.cache_hit] /
    [session.cache_miss] metrics.  Probes the ["cache.read"] fault site. *)
val lookup : dir:string -> digest:string -> key:string -> entry option

(** {1 Crash recovery}

    A crash (or an injected ["cache.write"] torn write) between temp-file
    write and rename leaves an orphaned [*.tmp.<pid>] file; the
    destination entry is never affected.  [scavenge] sweeps orphans whose
    writing pid is dead ({!Durable.sweep}) — live pids mark writes in
    flight and are left alone — and bumps the [session.cache_scavenged]
    metric.  Returns the number removed; a missing directory sweeps
    nothing. *)

val scavenge : dir:string -> int

(** [scavenge_once ~dir] runs {!scavenge} the first time each directory
    is seen in this process and is a no-op afterwards — the open-time
    hook used by the session layer and the serve daemon. *)
val scavenge_once : dir:string -> int

type verdict = {
  ok_entries : int;  (** entries that parse and pass their CRC *)
  corrupt : string list;  (** entry files failing CRC/structure *)
  orphan_tmp : string list;  (** dead-writer temp files awaiting sweep *)
}

(** [verify ~dir] audits every [.entry] file (full CRC + structural
    parse, no re-verification of the generator) and lists scavengeable
    temp files; the chaos harness asserts both lists empty after a
    kill/restart cycle. *)
val verify : dir:string -> verdict

(** [save_pool ~dir ~digest ~data_len ~check_len ~md cexes] persists a
    counterexample pool for warm starts (atomic, best-effort). *)
val save_pool :
  dir:string ->
  digest:string ->
  data_len:int ->
  check_len:int ->
  md:int ->
  Synth.Cegis.cex list ->
  unit

(** [warm_start ~dir ~data_len ~md] is the concatenation of every stored
    pool matching the problem dimensions (capped, oldest entries first);
    corrupt pools are skipped. *)
val warm_start : dir:string -> data_len:int -> md:int -> Synth.Cegis.cex list
