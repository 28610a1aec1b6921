(* The content-addressed result store.  An entry is one JSON object in a
   {!Durable} sealed envelope; a pool is a {!Synth.Checkpoint}.  Both are
   written by {!Durable.write} and their orphaned temp files swept by
   {!Durable.sweep} (DESIGN.md, "Durable files"). *)

module J = Telemetry.Json

let version = 1

type entry = {
  key : string;
  created : string;
  code : Hamming.Code.t;
  check_len : int;
  md : int;
  verified_md : int;
  iterations : int;
  elapsed : float;
}

let default_dir () =
  match Sys.getenv_opt "FEC_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat ".fecsynth" "cache"

let m_hit = Telemetry.Metrics.counter "session.cache_hit"
let m_miss = Telemetry.Metrics.counter "session.cache_miss"
let m_scavenged = Telemetry.Metrics.counter "session.cache_scavenged"

let entry_to_json e =
  J.Obj
    [
      ("key", J.Str e.key);
      ("created", J.Str e.created);
      ("code", J.Str (Synth.Checkpoint.code_to_line e.code));
      ("check_len", J.Int e.check_len);
      ("md", J.Int e.md);
      ("verified_md", J.Int e.verified_md);
      ("iterations", J.Int e.iterations);
      ("elapsed", J.Float e.elapsed);
    ]

let entry_of_json j =
  let str k = Option.bind (J.member k j) J.to_string_opt in
  let int k = Option.bind (J.member k j) J.to_int in
  match (str "key", str "created", str "code") with
  | Some key, Some created, Some code_line -> (
      match
        ( int "check_len",
          int "md",
          int "verified_md",
          int "iterations",
          (* a sealed entry whose code is not a generator matrix is a
             miss like any other malformed field *)
          try Some (Hamming.Code.of_string code_line)
          with Invalid_argument _ -> None )
      with
      | Some check_len, Some md, Some verified_md, Some iterations, Some code ->
          Some
            {
              key;
              created;
              code;
              check_len;
              md;
              verified_md;
              iterations;
              elapsed =
                Option.value
                  (Option.bind (J.member "elapsed" j) J.to_float)
                  ~default:0.0;
            }
      | _ -> None)
  | _ -> None

let magic = "fecsynth-cache"

let render e =
  Durable.seal ~magic ~version (J.to_string (entry_to_json e) ^ "\n")

let entry_file ~dir ~digest = Filename.concat dir (digest ^ ".entry")
let pool_file ~dir ~digest = Filename.concat dir (digest ^ ".pool")

(* A torn-write injection models a crash between writing the temp file
   and renaming it into place: the rename never happens, and the orphan
   is left for {!scavenge}.  The destination entry is untouched. *)
let store ~dir ~digest e =
  try
    Durable.mkdir_p dir;
    let torn = Synth.Fault.probe_write "cache.write" = `Torn in
    Durable.write ~torn (entry_file ~dir ~digest) (render e)
  with Sys_error msg | Failure msg ->
    Printf.eprintf "fecsynth: warning: cannot write cache entry: %s\n%!" msg

(* Any deviation from a sealed one-line entry is a miss, never an error. *)
let parse content =
  match Durable.unseal ~magic ~version content with
  | Ok body -> (
      match String.split_on_char '\n' body with
      | [ payload; "" ] -> (
          match J.of_string payload with
          | exception J.Parse_error _ -> None
          | j -> entry_of_json j)
      | _ -> None)
  | Error _ -> None

(* Small data lengths admit exact re-verification by enumeration — the
   entry's certificate is re-proved on every hit.  Past that the CRC and
   stored canonical key are the integrity story. *)
let reverify_limit = 14

let lookup ~dir ~digest ~key =
  Synth.Fault.probe "cache.read";
  let path = entry_file ~dir ~digest in
  let found =
    if not (Sys.file_exists path) then None
    else
      match parse (Durable.read path) with
      | exception Sys_error _ -> None
      | Some e
        when e.key = key
             && (Hamming.Code.data_len e.code > reverify_limit
                || Hamming.Distance.min_distance e.code >= e.md) ->
          Some e
      | Some _ | None -> None
  in
  (match found with
  | Some _ -> Telemetry.Metrics.incr m_hit 1
  | None -> Telemetry.Metrics.incr m_miss 1);
  found

(* ---------- crash recovery ---------- *)

let orphan_tmp name =
  match Durable.tmp_owner name with
  | Some pid -> not (Durable.owner_alive pid)
  | None -> false

let scavenge ~dir =
  let removed = Durable.sweep ~dir ~owner:Durable.tmp_owner () in
  if removed > 0 then Telemetry.Metrics.incr m_scavenged removed;
  removed

let scavenged_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let scavenge_lock = Mutex.create ()

let scavenge_once ~dir =
  let fresh =
    Mutex.lock scavenge_lock;
    let f = not (Hashtbl.mem scavenged_dirs dir) in
    if f then Hashtbl.replace scavenged_dirs dir ();
    Mutex.unlock scavenge_lock;
    f
  in
  if fresh then scavenge ~dir else 0

type verdict = {
  ok_entries : int;
  corrupt : string list;  (** .entry files failing CRC/structure *)
  orphan_tmp : string list;  (** dead-writer temp files awaiting sweep *)
}

let verify ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> { ok_entries = 0; corrupt = []; orphan_tmp = [] }
  | names ->
      Array.sort compare names;
      let ok = ref 0 and bad = ref [] and tmp = ref [] in
      Array.iter
        (fun name ->
          if orphan_tmp name then tmp := name :: !tmp
          else if Filename.check_suffix name ".entry" then
            match parse (Durable.read (Filename.concat dir name)) with
            | exception Sys_error _ -> bad := name :: !bad
            | Some _ -> incr ok
            | None -> bad := name :: !bad)
        names;
      { ok_entries = !ok; corrupt = List.rev !bad; orphan_tmp = List.rev !tmp }

(* ---------- warm-start pools (Checkpoint format) ---------- *)

let save_pool ~dir ~digest ~data_len ~check_len ~md cexes =
  if cexes <> [] then
    try
      Durable.mkdir_p dir;
      Synth.Checkpoint.save
        ~path:(pool_file ~dir ~digest)
        {
          Synth.Checkpoint.data_len;
          check_len;
          min_distance = md;
          iterations = 0;
          opt_bound = None;
          best = None;
          cexes;
        }
    with Sys_error msg | Failure msg ->
      Printf.eprintf "fecsynth: warning: cannot write cache pool: %s\n%!" msg

let warm_cap = 512

let warm_start ~dir ~data_len ~md =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      let acc = ref [] and n = ref 0 in
      Array.iter
        (fun name ->
          if !n < warm_cap && Filename.check_suffix name ".pool" then
            match Synth.Checkpoint.load ~path:(Filename.concat dir name) with
            | Ok t
              when t.Synth.Checkpoint.data_len = data_len
                   && t.Synth.Checkpoint.min_distance = md ->
                List.iter
                  (fun cex ->
                    if !n < warm_cap then begin
                      acc := cex :: !acc;
                      incr n
                    end)
                  t.Synth.Checkpoint.cexes
            | Ok _ | Error _ -> ())
        names;
      List.rev !acc
