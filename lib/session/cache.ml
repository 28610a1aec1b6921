(* The content-addressed result store.  Envelope format:

     fecsynth-cache 1
     <one JSON object>
     crc <8 hex digits>

   where the CRC-32 covers every byte up to and including the payload
   line's newline.  The durability discipline matches Checkpoint: temp
   file in the destination directory, then an atomic rename. *)

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

(* one-line code rendering, same convention as Checkpoint *)
let code_to_line code =
  String.map
    (fun c -> if c = '\n' then ';' else c)
    (Hamming.Code.to_string code)

let code_of_line line =
  Hamming.Code.of_string
    (String.map (fun c -> if c = ';' then '\n' else c) line)

let entry_to_json e =
  J.Obj
    [
      ("key", J.Str e.key);
      ("created", J.Str e.created);
      ("code", J.Str (code_to_line e.code));
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
        (int "check_len", int "md", int "verified_md", int "iterations")
      with
      | Some check_len, Some md, Some verified_md, Some iterations ->
          Some
            {
              key;
              created;
              code = code_of_line code_line;
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

let render e =
  let body =
    Printf.sprintf "fecsynth-cache %d\n%s\n" version
      (J.to_string (entry_to_json e))
  in
  body ^ Printf.sprintf "crc %08lX\n" (Zip.Crc32.digest body)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let entry_file ~dir ~digest = Filename.concat dir (digest ^ ".entry")
let pool_file ~dir ~digest = Filename.concat dir (digest ^ ".pool")

(* A torn-write injection models a crash between writing the temp file
   and renaming it into place: half the payload lands in the tmp file,
   the rename never happens, and the orphan is left for {!scavenge}.
   The destination entry is untouched either way — that is the whole
   point of the tmp+rename discipline. *)
let atomic_write path text =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match Synth.Fault.probe_write "cache.write" with
  | `Torn ->
      let oc = open_out_bin tmp in
      output_string oc (String.sub text 0 (String.length text / 2));
      close_out oc
  | `Full ->
      let oc = open_out_bin tmp in
      output_string oc text;
      close_out oc;
      Sys.rename tmp path

let store ~dir ~digest e =
  try
    mkdir_p dir;
    atomic_write (entry_file ~dir ~digest) (render e)
  with Sys_error msg | Failure msg ->
    Printf.eprintf "fecsynth: warning: cannot write cache entry: %s\n%!" msg

(* Structural + CRC validation; any deviation is a miss, never an error. *)
let parse content =
  match String.split_on_char '\n' content with
  | [ header; payload; trailer; "" ] -> (
      let body = header ^ "\n" ^ payload ^ "\n" in
      match String.split_on_char ' ' trailer with
      | [ "crc"; hex ]
        when (try Int32.of_string ("0x" ^ hex) = Zip.Crc32.digest body
              with _ -> false) -> (
          match String.split_on_char ' ' header with
          | [ "fecsynth-cache"; v ] when int_of_string_opt v = Some version
            -> (
              match J.of_string payload with
              | exception J.Parse_error _ -> None
              | j -> entry_of_json j)
          | _ -> None)
      | _ -> None)
  | _ -> None

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
      match parse (In_channel.with_open_bin path In_channel.input_all) with
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

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* [name] is an orphaned temp file iff it carries a ".tmp.<pid>" suffix
   whose writer is dead — a live pid means the write is in flight right
   now, so leave it alone. *)
let orphan_tmp name =
  let infix = ".tmp." in
  let nl = String.length name and il = String.length infix in
  let rec find i =
    if i + il > nl then None
    else if String.sub name i il = infix then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i -> (
      match int_of_string_opt (String.sub name (i + il) (nl - i - il)) with
      | Some pid -> not (pid_alive pid)
      | None -> false)

let scavenge ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let removed = ref 0 in
      Array.iter
        (fun name ->
          if orphan_tmp name then begin
            (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
            incr removed
          end)
        names;
      if !removed > 0 then Telemetry.Metrics.incr m_scavenged !removed;
      !removed

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
            match parse
                (In_channel.with_open_bin (Filename.concat dir name)
                   In_channel.input_all) with
            | exception Sys_error _ -> bad := name :: !bad
            | Some _ -> incr ok
            | None -> bad := name :: !bad)
        names;
      { ok_entries = !ok; corrupt = List.rev !bad; orphan_tmp = List.rev !tmp }

(* ---------- warm-start pools (Checkpoint format) ---------- *)

let save_pool ~dir ~digest ~data_len ~check_len ~md cexes =
  if cexes <> [] then
    try
      mkdir_p dir;
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
