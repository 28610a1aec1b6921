(* Persistent cross-run history: every synth/optimize/bench invocation
   appends one compact, versioned NDJSON record to a local ledger
   directory, and the [fecsynth runs] family reads it back for listing,
   diffing and trend detection.

   Durability discipline mirrors the rest of the stack, with one twist:
   whole-file artifacts (the HTML dashboard, checkpoints) use tmp+rename,
   but the ledger is an append-only log shared by concurrent processes —
   a rename would race and drop whole histories.  Appends are instead a
   single O_APPEND write of one complete line, which POSIX keeps atomic
   on local filesystems for these sizes, so two processes finishing at
   once interleave whole records, never bytes.  The reader tolerates a
   truncated non-newline-terminated tail exactly like {!Analyze} does
   (a crash mid-append loses only that record), errors on any malformed
   newline-terminated line, and skips-but-counts records whose format
   version is newer than this build understands. *)

let format_version = 1

type entry = {
  version : int;
  ts : string;  (* caller-supplied UTC timestamp, ISO-8601 Z *)
  subcommand : string;
  problem : string;
  outcome : string;
  exit_code : int;
  cache_hit : bool;  (* answered from the result cache, not a fresh run *)
  wall_s : float;
  build : Buildinfo.t;
  config : (string * string) list;
  metrics : (string * float) list;
  stats : Json.t option;
}

(* ---------- timestamps ---------- *)

let utc_timestamp ?at () =
  let t = match at with Some t -> t | None -> Unix.gettimeofday () in
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* ---------- record (de)serialization ---------- *)

let to_json e =
  Json.Obj
    ([
       ("v", Json.Int e.version);
       ("ts", Json.Str e.ts);
       ("cmd", Json.Str e.subcommand);
       ("problem", Json.Str e.problem);
       ("outcome", Json.Str e.outcome);
       ("exit", Json.Int e.exit_code);
     ]
    (* only emitted when true, so pre-cache records stay byte-identical
       and pre-cache readers (which ignore unknown keys) stay compatible *)
    @ (if e.cache_hit then [ ("cache_hit", Json.Bool true) ] else [])
    @ [
       ("wall_s", Json.Float e.wall_s);
       ("build", Buildinfo.to_json e.build);
       ("config", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.config));
       ( "metrics",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.metrics) );
     ]
    @ match e.stats with Some s -> [ ("stats", s) ] | None -> [])

type reject = [ `Future of int | `Malformed of string ]

let of_json j : (entry, reject) result =
  match Option.bind (Json.member "v" j) Json.to_int with
  | None -> Error (`Malformed "missing v")
  | Some v when v > format_version -> Error (`Future v)
  | Some v -> (
      let str k = Option.bind (Json.member k j) Json.to_string_opt in
      let num k = Option.bind (Json.member k j) Json.to_float in
      match (str "ts", str "cmd", str "outcome") with
      | Some ts, Some subcommand, Some outcome ->
          Ok
            {
              version = v;
              ts;
              subcommand;
              problem = Option.value (str "problem") ~default:"";
              outcome;
              exit_code =
                Option.value
                  (Option.bind (Json.member "exit" j) Json.to_int)
                  ~default:0;
              cache_hit =
                (match Json.member "cache_hit" j with
                | Some (Json.Bool b) -> b
                | _ -> false);
              wall_s = Option.value (num "wall_s") ~default:0.0;
              build =
                (match Json.member "build" j with
                | Some b -> Buildinfo.of_json b
                | None -> Buildinfo.of_json Json.Null);
              config =
                (match Json.member "config" j with
                | Some (Json.Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun s -> (k, s)) (Json.to_string_opt v))
                      kvs
                | _ -> []);
              metrics =
                (match Json.member "metrics" j with
                | Some (Json.Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun f -> (k, f)) (Json.to_float v))
                      kvs
                | _ -> []);
              stats = Json.member "stats" j;
            }
      | _ -> Error (`Malformed "missing ts/cmd/outcome"))

let render e = Json.to_string (to_json e)

(* ---------- reading ---------- *)

type loaded = { entries : entry list; truncated : bool; skipped_future : int }

let of_string content =
  let ends_with_newline =
    String.length content = 0 || content.[String.length content - 1] = '\n'
  in
  let lines =
    match List.rev (String.split_on_char '\n' content) with
    | "" :: rest -> List.rev rest
    | rest -> List.rev rest
  in
  let n_lines = List.length lines in
  let truncated = ref false and skipped = ref 0 in
  let rec go acc line_no = function
    | [] ->
        Ok
          {
            entries = List.rev acc;
            truncated = !truncated;
            skipped_future = !skipped;
          }
    | "" :: rest -> go acc (line_no + 1) rest
    | line :: rest -> (
        (* same damage model as Analyze.of_string: only a malformed final
           line with no newline terminator (an interrupted append) is
           tolerated; malformed mid-file lines are real corruption *)
        let malformed msg =
          if line_no = n_lines && not ends_with_newline then begin
            truncated := true;
            go acc (line_no + 1) rest
          end
          else Error (Printf.sprintf "line %d: %s" line_no msg)
        in
        match Json.of_string line with
        | exception Json.Parse_error msg -> malformed msg
        | j -> (
            match of_json j with
            | Ok e -> go (e :: acc) (line_no + 1) rest
            | Error (`Future _) ->
                incr skipped;
                go acc (line_no + 1) rest
            | Error (`Malformed msg) -> malformed msg))
  in
  go [] 1 lines

(* ---------- filesystem ---------- *)

let default_dir () =
  match Sys.getenv_opt "FEC_LEDGER_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat ".fecsynth" "ledger"

let file ~dir = Filename.concat dir "runs.ndjson"

let append ~dir e =
  Durable.mkdir_p dir;
  let line = render e ^ "\n" in
  let fd =
    Unix.openfile (file ~dir)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.of_string line in
      let n = Unix.write fd b 0 (Bytes.length b) in
      if n <> Bytes.length b then failwith "short ledger write")

let load ~dir =
  let path = file ~dir in
  if not (Sys.file_exists path) then
    Ok { entries = []; truncated = false; skipped_future = 0 }
  else of_string (Durable.read path)

(* A SIGKILL mid-append leaves the file without a final newline.  The
   reader tolerates that, but the *next* append would glue its record to
   the torn tail and turn a tolerated truncation into mid-file garbage —
   so crash-safe restart truncates back to the last complete line
   first. *)
let repair_tail ~dir =
  let path = file ~dir in
  if not (Sys.file_exists path) then false
  else
    match Durable.read path with
    | exception Sys_error _ -> false
    | content ->
        let n = String.length content in
        if n = 0 || content.[n - 1] = '\n' then false
        else begin
          let keep =
            match String.rindex_opt content '\n' with
            | Some i -> i + 1
            | None -> 0
          in
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> Unix.ftruncate fd keep);
          true
        end

(* ---------- pending records (start / finish) ---------- *)

type pending = {
  p_dir : string;
  p_t0 : float;
  p_ts : string;
  p_cmd : string;
  p_problem : string;
  p_config : (string * string) list;
  p_build : Buildinfo.t;
  mutable p_recorded : bool;
  mutable p_journal : string option;  (* in-flight crash journal file *)
}

(* ---------- the in-flight journal ----------

   The at_exit crash hook covers uncaught exceptions, but a SIGKILL (or
   power loss) gives no exit path at all.  So a pending record also
   writes one small journal file — a complete would-be "crash" ledger
   line — under <dir>/inflight/, named <pid>.<seq>; finishing the record
   removes it.  {!start} writes it at once unless told to defer, and
   {!journal} writes a deferred one.  A session run defers it until it
   starts solving: a file created and unlinked for every served cache
   hit made the hit's latency follow the file system's state from one
   run to the next.  {!scavenge}, run at daemon startup, appends any journal
   whose owning pid is dead to the ledger and deletes it: in-flight work
   of a killed process becomes first-class crash history on next start. *)

let journal_dir dir = Filename.concat dir "inflight"
let journal_seq = Atomic.make 0

let crash_entry p =
  {
    version = format_version;
    ts = p.p_ts;
    subcommand = p.p_cmd;
    problem = p.p_problem;
    outcome = "crash";
    exit_code = 2;
    cache_hit = false;
    wall_s = 0.0;
    build = p.p_build;
    config = p.p_config;
    metrics = [];
    stats = None;
  }

let journal p =
  if p.p_journal = None && not p.p_recorded then
    try
      let dir = journal_dir p.p_dir in
      Durable.mkdir_p dir;
      let path =
        Filename.concat dir
          (Printf.sprintf "%d.%d" (Unix.getpid ())
             (Atomic.fetch_and_add journal_seq 1))
      in
      let oc = open_out_bin path in
      output_string oc (render (crash_entry p) ^ "\n");
      close_out oc;
      p.p_journal <- Some path
    with Sys_error _ | Unix.Unix_error _ -> ()

let journal_finish p =
  match p.p_journal with
  | None -> ()
  | Some path ->
      p.p_journal <- None;
      (try Sys.remove path with Sys_error _ -> ())

(* a journal is named <pid>.<seq> *)
let journal_owner name =
  match String.index_opt name '.' with
  | Some i -> int_of_string_opt (String.sub name 0 i)
  | None -> None

let scavenge ~dir =
  let repaired = repair_tail ~dir in
  let recovered = ref 0 in
  (* a dead owner's in-flight record becomes crash history; a torn
     journal (killed mid-journal-write) is just deleted — its run never
     got far enough to matter *)
  let salvage path =
    match of_json (Json.of_string (String.trim (Durable.read path))) with
    | exception (Sys_error _ | Json.Parse_error _) -> ()
    | Error _ -> ()
    | Ok e -> (
        try
          append ~dir e;
          incr recovered
        with _ -> ())
  in
  ignore (Durable.sweep ~salvage ~dir:(journal_dir dir) ~owner:journal_owner ());
  (!recovered, repaired)

let start ?dir ?(journaled = true) ~ts ~subcommand ~problem ~config ~build () =
  let p =
    {
      p_dir = (match dir with Some d -> d | None -> default_dir ());
      p_t0 = Unix.gettimeofday ();
      p_ts = ts;
      p_cmd = subcommand;
      p_problem = problem;
      p_config = config;
      p_build = build;
      p_recorded = false;
      p_journal = None;
    }
  in
  if journaled then journal p;
  p

(* Idempotent, and never lets a ledger failure break the command it is
   recording: the history is diagnostics, not the result. *)
let finish ?stats ?(metrics = []) ?(cache_hit = false) p ~outcome ~exit_code =
  if not p.p_recorded then begin
    p.p_recorded <- true;
    journal_finish p;
    let wall = Unix.gettimeofday () -. p.p_t0 in
    let e =
      {
        version = format_version;
        ts = p.p_ts;
        subcommand = p.p_cmd;
        problem = p.p_problem;
        outcome;
        exit_code;
        cache_hit;
        wall_s = wall;
        build = p.p_build;
        config = p.p_config;
        metrics = ("wall_s", wall) :: metrics;
        stats;
      }
    in
    try append ~dir:p.p_dir e
    with exn ->
      Printf.eprintf "fecsynth: warning: could not append to run ledger %s: %s\n%!"
        (file ~dir:p.p_dir) (Printexc.to_string exn)
  end

(* ---------- trend analytics ---------- *)

let quantile values q =
  match List.sort Float.compare values with
  | [] -> None
  | sorted ->
      let n = List.length sorted in
      (* nearest rank ⌈q·N⌉, consistent with Metrics.Hist.quantile *)
      let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
      Some (List.nth sorted (rank - 1))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

type series = {
  s_cmd : string;
  s_problem : string;
  s_metric : string;
  points : (string * float) list;  (* (ts, value), oldest first *)
}

let series ?subcommand ?problem ~metric entries =
  let tbl : (string * string * string, (string * float) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  List.iter
    (fun e ->
      let keep =
        (match subcommand with Some c -> e.subcommand = c | None -> true)
        && match problem with Some p -> contains ~sub:p e.problem | None -> true
      in
      if keep then
        List.iter
          (fun (k, v) ->
            if contains ~sub:metric k then begin
              let key = (e.subcommand, e.problem, k) in
              if not (Hashtbl.mem tbl key) then order := key :: !order;
              Hashtbl.replace tbl key
                ((e.ts, v)
                :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
            end)
          e.metrics)
    entries;
  List.rev_map
    (fun ((c, p, k) as key) ->
      {
        s_cmd = c;
        s_problem = p;
        s_metric = k;
        points = List.rev (Hashtbl.find tbl key);
      })
    !order

type trend = {
  t_series : series;
  n : int;
  last : float;
  p50 : float;
  p95 : float;
  lo : float;
  hi : float;
  pct_vs_baseline : float option;
      (* latest point vs the median of all prior points; None with < 2 *)
  regression : bool;
}

let trend ~threshold s =
  let values = List.map snd s.points in
  let n = List.length values in
  if n = 0 then invalid_arg "Ledger.trend: empty series";
  let last = List.nth values (n - 1) in
  let p50 = Option.get (quantile values 0.5) in
  let p95 = Option.get (quantile values 0.95) in
  let lo = List.fold_left Float.min infinity values in
  let hi = List.fold_left Float.max neg_infinity values in
  let prior = List.filteri (fun i _ -> i < n - 1) values in
  let pct_vs_baseline =
    match quantile prior 0.5 with
    | None -> None
    | Some base ->
        (* the same zero-baseline convention as Analyze.diff *)
        Some
          (if base = 0.0 && last = 0.0 then 0.0
           else if base = 0.0 then infinity
           else (last -. base) /. base *. 100.0)
  in
  {
    t_series = s;
    n;
    last;
    p50;
    p95;
    lo;
    hi;
    pct_vs_baseline;
    regression =
      (match pct_vs_baseline with Some p -> p > threshold | None -> false);
  }
