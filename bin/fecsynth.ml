(* fecsynth: command-line front end to the FEC synthesis framework.

   Subcommands:
   - synthesis: synth, optimize (one run path, one answer renderer);
   - the daemon and its clients: serve, submit, call, top, cache;
   - codes: verify, certify, distance, analyze, emit, robustness;
   - tools: smt, trace, runs, version.
   Codes are given as Registry descriptors (e.g. "shortened:120:8",
   "parity:16", "matrix:1000101-0100110-0010111-0001011") or as
   "@file" pointing at a generator-matrix text file; properties inline
   or as "@file" too. *)

open Cmdliner

(* The session layer runs synth/optimize jobs and owns their outcome
   rule, exit codes, answer object and SIGINT handling. *)
module Session = Fec_session.Session

let load_code spec =
  if String.length spec > 0 && spec.[0] = '@' then
    Hamming.Code.of_string
      (In_channel.with_open_bin
         (String.sub spec 1 (String.length spec - 1))
         In_channel.input_all)
  else Fec_core.Registry.code_of_string spec

let synth_exits =
  Cmdliner.Cmd.Exit.defaults
  @ [
      Cmdliner.Cmd.Exit.info Session.exit_unsat
        ~doc:"the specification is unsatisfiable.";
      Cmdliner.Cmd.Exit.info Session.exit_timeout
        ~doc:"the time budget expired with nothing to report.";
      Cmdliner.Cmd.Exit.info Session.exit_partial
        ~doc:
          "the budget expired first; a walk's best verified generator, or \
           else the best unverified candidate, was reported.";
      Cmdliner.Cmd.Exit.info Session.exit_interrupted
        ~doc:
          "interrupted by SIGINT after flushing traces, checkpoints and \
           partial results.";
    ]

(* ---------- common arguments ---------- *)

let code_arg =
  let doc = "Code descriptor (e.g. shortened:120:8) or @FILE with matrix rows." in
  Arg.(required & opt (some string) None & info [ "c"; "code" ] ~docv:"CODE" ~doc)

let prop_arg =
  let doc = "Property in the Figure-3 language, or @FILE." in
  Arg.(required & opt (some string) None & info [ "p"; "prop" ] ~docv:"PROP" ~doc)

let timeout_arg =
  let doc =
    "Budget in seconds for the whole job: every configuration an \
     objective walk tries shares it."
  in
  Arg.(value & opt float 120.0 & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc)

let checkpoint_arg =
  let doc =
    "Write a resumable checkpoint (counterexample pool, best candidate, \
     optimization bound) to $(docv), refreshed as the search progresses. \
     Writes are atomic: a reader or a resumed run never sees a torn file."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume from a checkpoint written by $(b,--checkpoint). The pool of \
     counterexamples is replayed before the first candidate, so the search \
     restarts ahead of where it began. A corrupt, truncated or mismatched \
     checkpoint is rejected, never trusted."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

module J = Telemetry.Json

(* ---------- synth ---------- *)

let weights_conv =
  let parse s =
    try Ok (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
    with _ -> Error (`Msg "weights must be comma-separated integers")
  in
  Arg.conv (parse, fun fmt w ->
      Format.pp_print_string fmt
        (String.concat "," (Array.to_list (Array.map string_of_int w))))

let cache_arg =
  let doc =
    "Consult and populate the content-addressed result cache: a \
     semantically identical specification synthesized before is answered \
     instantly with the same proven generator, and counterexample pools \
     from compatible cached runs warm-start fresh searches."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let cache_dir_arg =
  let doc =
    "Result cache directory (default: .fecsynth/cache, or FEC_CACHE_DIR)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* The one run path of synth and optimize: run the request, render its
   answer as text or as [{"command"} + the answer object + "portfolio"],
   and exit with the answer's code. *)
let run_session fmt request =
  Session.install_sigint ();
  let on_report report =
    if fmt = Output.Text then Format.printf "%a" Synth.Portfolio.pp_report report
  in
  match Session.run_sync ~on_report request with
  | exception Session.Invalid_request msg -> `Error (false, msg)
  | result ->
      (match (result.Session.resumed, fmt) with
      | Some r, Output.Text ->
          Printf.printf
            "resumed from checkpoint: %d counterexamples, %d prior iterations%s\n"
            r.cex_count r.prior_iterations
            (match request.Session.job with
            | Session.Optimize _ ->
                Printf.sprintf ", starting at check length %d" r.start_check
            | Session.Synth _ -> "")
      | _ -> ());
      Output.result fmt
        ~text:(fun () -> print_string (Session.answer_text result))
        ~json:(fun () ->
          (("command", J.Str request.Session.subcommand)
          :: Session.result_fields result)
          @
          match result.Session.report with
          | Some r -> [ ("portfolio", Synth.Portfolio.report_to_json r) ]
          | None -> []);
      if result.Session.exit_code = 0 then `Ok ()
      else exit result.Session.exit_code

let synth_cmd =
  let weights =
    let doc = "Per-bit criticality weights for weighted (sum_w) synthesis." in
    Arg.(value & opt (some weights_conv) None & info [ "w"; "weights" ] ~docv:"W,W,..." ~doc)
  in
  let portfolio =
    let doc = "Race a portfolio of differently-configured CEGIS workers." in
    Arg.(value & flag & info [ "portfolio" ] ~doc)
  in
  let jobs =
    let doc = "Number of portfolio workers (implies --portfolio for K > 1)." in
    Arg.(value & opt int 4 & info [ "j"; "jobs" ] ~docv:"K" ~doc)
  in
  let run prop_spec timeout weights portfolio jobs checkpoint resume cache
      cache_dir trace metrics progress runtime_lens no_ledger fmt =
    if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else
      run_session fmt
        {
          (Session.default_request
             (Session.Synth { prop = prop_spec; weights; portfolio; jobs }))
          with
          Session.timeout;
          checkpoint;
          resume;
          cache;
          cache_dir;
          no_ledger;
          trace;
          metrics;
          progress;
          runtime_lens;
        }
  in
  let doc = "Synthesize generators from a property specification (CEGIS)." in
  Cmd.v (Cmd.info "synth" ~doc ~exits:synth_exits)
    Term.(
      ret
        (const run $ prop_arg $ timeout_arg $ weights $ portfolio $ jobs
       $ checkpoint_arg $ resume_arg $ cache_arg $ cache_dir_arg
       $ Output.trace_arg $ Output.metrics_arg $ Output.progress_arg
       $ Output.runtime_lens_arg $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- optimize ---------- *)

let optimize_cmd =
  let data_len_arg =
    let doc = "Number of data bits." in
    Arg.(required & opt (some int) None & info [ "k"; "data-len" ] ~docv:"K" ~doc)
  in
  let md_arg =
    let doc = "Target minimum distance." in
    Arg.(
      required & opt (some int) None & info [ "m"; "min-distance" ] ~docv:"MD" ~doc)
  in
  let lo_arg =
    let doc = "Smallest check length to try." in
    Arg.(value & opt int 1 & info [ "check-lo" ] ~docv:"C" ~doc)
  in
  let hi_arg =
    let doc = "Largest check length to try." in
    Arg.(value & opt int 16 & info [ "check-hi" ] ~docv:"C" ~doc)
  in
  let run data_len md check_lo check_hi timeout checkpoint resume cache
      cache_dir trace metrics progress runtime_lens no_ledger fmt =
    if data_len < 1 || md < 1 || check_lo < 1 || check_hi < check_lo then
      `Error
        (false, "need data-len >= 1, min-distance >= 1, 1 <= check-lo <= check-hi")
    else
      run_session fmt
        {
          (Session.default_request
             (Session.Optimize { data_len; md; check_lo; check_hi }))
          with
          Session.timeout;
          checkpoint;
          resume;
          cache;
          cache_dir;
          no_ledger;
          trace;
          metrics;
          progress;
          runtime_lens;
        }
  in
  let doc =
    "Minimize the check length for a target minimum distance (the Table 1 \
     walk), with checkpoint/resume support."
  in
  Cmd.v (Cmd.info "optimize" ~doc ~exits:synth_exits)
    Term.(
      ret
        (const run $ data_len_arg $ md_arg $ lo_arg $ hi_arg $ timeout_arg
       $ checkpoint_arg $ resume_arg $ cache_arg $ cache_dir_arg
       $ Output.trace_arg $ Output.metrics_arg $ Output.progress_arg
       $ Output.runtime_lens_arg $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- serve / submit / call ---------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the synthesis daemon." in
  Arg.(
    value
    & opt string (Filename.concat ".fecsynth" "serve.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers_arg =
    let doc = "Worker domains executing sessions concurrently." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Bounded admission queue: submits beyond $(docv) queued sessions are \
       refused with a backpressure error."
    in
    Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let no_cache_arg =
    let doc =
      "Disable the content-addressed result cache (served requests may \
       still opt in individually with the wire cache flag)."
    in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let grace_arg =
    let doc =
      "Post-deadline wind-down slack in seconds: a session past its \
       deadline is first cancelled cooperatively, and past the grace its \
       worker is reaped and replaced."
    in
    Arg.(value & opt float 1.0 & info [ "grace" ] ~docv:"SECS" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Reap connections idle for more than $(docv) seconds (0 disables; \
       clients awaiting a session are exempt)."
    in
    Arg.(value & opt float 300.0 & info [ "idle-timeout" ] ~docv:"SECS" ~doc)
  in
  let metrics_port_arg =
    let doc =
      "Serve live observability over HTTP on 127.0.0.1:$(docv), from the \
       daemon's own event loop: GET /metrics returns the Prometheus text \
       exposition (with per-worker labeled gauges), GET /healthz a JSON \
       health summary that flips to \"draining\" during shutdown."
    in
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let serve_trace_arg =
    let doc =
      "Write an NDJSON telemetry trace of the daemon's whole lifetime to \
       $(docv); every served run's events are stamped with its request id \
       (slice with $(b,fecsynth trace report --request))."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let flight_dir_arg =
    let doc =
      "Directory for flight-recorder postmortems (default: the socket's \
       directory).  When a stuck worker is reaped or the daemon crashes, \
       the most recent telemetry events are dumped there as \
       postmortem-<pid>-<seq>.ndjson."
    in
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR" ~doc)
  in
  let flight_capacity_arg =
    let doc = "Flight-recorder ring capacity per worker domain, in events." in
    Arg.(value & opt int 512 & info [ "flight-capacity" ] ~docv:"N" ~doc)
  in
  let no_runtime_lens_arg =
    let doc =
      "Disable the Runtime_events lens (on by default in serve mode): \
       without it /metrics loses the gc_* and domain_util series and the \
       trace its runtime.* events."
    in
    Arg.(value & flag & info [ "no-runtime-lens" ] ~doc)
  in
  let run socket workers max_queue grace idle_timeout no_cache cache_dir
      metrics no_ledger metrics_port trace flight_dir flight_capacity
      no_runtime_lens =
    if workers < 1 || max_queue < 1 then
      `Error (false, "need --workers >= 1 and --max-queue >= 1")
    else if grace < 0.0 || idle_timeout < 0.0 then
      `Error (false, "need --grace >= 0 and --idle-timeout >= 0")
    else if
      match metrics_port with Some p -> p < 1 || p > 65535 | None -> false
    then `Error (false, "need 1 <= --metrics-port <= 65535")
    else if flight_capacity < 1 then
      `Error (false, "need --flight-capacity >= 1")
    else begin
      let config =
        {
          (Fec_session.Server.default_config ~socket) with
          Fec_session.Server.workers;
          max_queue;
          grace;
          idle_timeout;
          cache = not no_cache;
          cache_dir;
          no_ledger;
          metrics;
          metrics_port;
          trace;
          flight_dir;
          flight_capacity;
          runtime_lens = not no_runtime_lens;
        }
      in
      Fec_session.Server.run config;
      `Ok ()
    end
  in
  let doc =
    "Run a long-lived synthesis daemon: newline-delimited JSON requests \
     over a Unix socket, multiplexed across worker domains, answered from \
     the result cache when possible, every request recorded in the run \
     ledger.  Startup is crash-safe (stale-socket takeover, orphaned \
     cache/ledger recovery); request deadlines are enforced by reaping \
     stuck workers.  SIGTERM drains: in-flight sessions finish, then the \
     daemon exits."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ workers_arg $ max_queue_arg $ grace_arg
       $ idle_timeout_arg $ no_cache_arg $ cache_dir_arg $ Output.metrics_arg
       $ Output.no_ledger_arg $ metrics_port_arg $ serve_trace_arg
       $ flight_dir_arg $ flight_capacity_arg $ no_runtime_lens_arg))

let retries_arg =
  let doc =
    "Retry the whole exchange up to $(docv) more times after a connection \
     failure, with jittered exponential backoff.  Sound because \
     resubmission is content-addressed: a retry after a lost reply lands \
     on the result cache."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let connect_timeout_arg =
  let doc = "Bound each connection attempt to $(docv) seconds." in
  Arg.(
    value
    & opt (some float) None
    & info [ "connect-timeout" ] ~docv:"SECS" ~doc)

let submit_cmd =
  let no_wait_arg =
    let doc = "Return the session id immediately instead of awaiting the result." in
    Arg.(value & flag & info [ "no-wait" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Server-side deadline in milliseconds: past it the daemon answers \
       state \"timeout\" and reaps the worker if it will not wind down."
    in
    Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let no_cache_arg =
    let doc = "Ask the daemon to bypass the result cache for this request." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let portfolio_arg =
    let doc = "Race a portfolio of differently-configured CEGIS workers." in
    Arg.(value & flag & info [ "portfolio" ] ~doc)
  in
  let jobs_arg =
    let doc = "Number of portfolio workers." in
    Arg.(value & opt int 4 & info [ "j"; "jobs" ] ~docv:"K" ~doc)
  in
  let run socket prop_spec timeout portfolio jobs no_cache no_wait deadline
      retries connect_timeout =
    let request =
      J.Obj
        ([
           ("op", J.Str "submit");
           ("spec", J.Str prop_spec);
           ("timeout", J.Float timeout);
           ("portfolio", J.Bool portfolio);
           ("jobs", J.Int jobs);
           ("cache", J.Bool (not no_cache));
           ("await", J.Bool (not no_wait));
         ]
        @
        match deadline with
        | Some ms -> [ ("deadline_ms", J.Int ms) ]
        | None -> [])
    in
    let response =
      Fec_session.Client.with_retries ~retries ?connect_timeout ~socket
        (fun t -> Fec_session.Client.rpc t request)
    in
    print_endline (J.to_string response);
    match J.member "ok" response with
    | Some (J.Bool true) -> `Ok ()
    | _ -> exit 1
  in
  let doc =
    "Submit one specification to a running $(b,fecsynth serve) daemon and \
     print the JSON response (by default, awaiting the result).  An @FILE \
     spec is resolved by the daemon against its working directory."
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ prop_arg $ timeout_arg $ portfolio_arg
       $ jobs_arg $ no_cache_arg $ no_wait_arg $ deadline_arg $ retries_arg
       $ connect_timeout_arg))

let call_cmd =
  let request_arg =
    let doc = "One JSON request object (e.g. '{\"op\":\"ping\"}')." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)
  in
  let run socket request retries connect_timeout =
    match J.of_string request with
    | exception J.Parse_error msg -> `Error (false, "bad request: " ^ msg)
    | j ->
        let response =
          Fec_session.Client.with_retries ~retries ?connect_timeout ~socket
            (fun t -> Fec_session.Client.rpc t j)
        in
        print_endline (J.to_string response);
        (match J.member "ok" response with
        | Some (J.Bool true) -> `Ok ()
        | _ -> exit 1)
  in
  let doc =
    "Send one raw wire-protocol request to a running $(b,fecsynth serve) \
     daemon and print the JSON response (ping, status, await, cancel, \
     stats, shutdown)."
  in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ request_arg $ retries_arg
       $ connect_timeout_arg))

(* ---------- top: live daemon view ---------- *)

let top_cmd =
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let once_arg =
    let doc = "Poll once, print one snapshot, exit." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let json_arg =
    let doc = "Emit one JSON object per poll instead of the TTY view." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let get_int k j =
    match Option.bind (J.member k j) J.to_int with Some v -> v | None -> 0
  in
  let get_float k j =
    match Option.bind (J.member k j) J.to_float with Some v -> v | None -> 0.0
  in
  let get_bool k j =
    match J.member k j with Some (J.Bool b) -> b | _ -> false
  in
  let get_str k j = Option.bind (J.member k j) J.to_string_opt in
  let counters j =
    match Option.bind (J.member "exposition" j) J.to_string_opt with
    | None -> []
    | Some text -> (
        match Telemetry.Metrics.parse_exposition text with
        | Ok kvs -> kvs
        | Error _ -> [])
  in
  let counter_of kvs name =
    match List.assoc_opt name kvs with
    | Some (Telemetry.Metrics.Counter n) -> n
    | _ -> 0
  in
  let gauge_of kvs name =
    match List.assoc_opt name kvs with
    | Some (Telemetry.Metrics.Gauge v) -> v
    | _ -> 0.0
  in
  let rate now prev dt = if dt <= 0.0 then 0.0 else float_of_int (now - prev) /. dt in
  let si v =
    if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
    else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
    else Printf.sprintf "%.0f" v
  in
  (* one poll rendered as text lines; rates come from the previous poll *)
  let render ~socket j kvs ~props_s ~iters_s ~gc =
    let hits = counter_of kvs "session_cache_hit" in
    let misses = counter_of kvs "session_cache_miss" in
    let hit_rate =
      if hits + misses = 0 then "-"
      else
        Printf.sprintf "%.0f%% (%d/%d)"
          (100.0 *. float_of_int hits /. float_of_int (hits + misses))
          hits (hits + misses)
    in
    let head =
      [
        Printf.sprintf "fecsynth top — %s" socket;
        Printf.sprintf "queue %-4d sessions %-5d reaped %-3d draining %s"
          (get_int "queue_depth" j) (get_int "sessions" j)
          (get_int "reaped" j)
          (if get_bool "draining" j then "yes" else "no");
        Printf.sprintf "cache hits %-14s props/s %-8s iters/s %s" hit_rate
          (si props_s) (si iters_s);
        (* runtime-lens GC line: dashes when the daemon runs --no-runtime-lens *)
        (match gc with
        | None -> "gc alloc/s -          %gc -      last major -"
        | Some (alloc_s, gc_pct, last_major_s) ->
            Printf.sprintf "gc alloc/s %-10s %%gc %-6s last major %.2fms"
              (si alloc_s)
              (Printf.sprintf "%.1f%%" gc_pct)
              (last_major_s *. 1e3));
        "";
        Printf.sprintf "%-7s %-10s %9s  %s" "worker" "state" "age_s" "request";
      ]
    in
    let workers =
      match J.member "workers" j with
      | Some (J.List ws) ->
          List.map
            (fun w ->
              Printf.sprintf "%-7d %-10s %9.1f  %s" (get_int "worker" w)
                (Option.value (get_str "state" w) ~default:"?")
                (get_float "since_s" w)
                (Option.value (get_str "request" w) ~default:"-"))
            ws
      | _ -> []
    in
    head @ workers
  in
  let run socket interval once json retries connect_timeout =
    if interval <= 0.0 then `Error (false, "need --interval > 0")
    else begin
      let poll () =
        Fec_session.Client.with_retries ~retries ?connect_timeout ~socket
          (fun t ->
            Fec_session.Client.rpc t (J.Obj [ ("op", J.Str "metrics") ]))
      in
      let tty =
        (not json) && (Unix.isatty Unix.stdout || Sys.getenv_opt "FEC_FORCE_TTY" = Some "1")
      in
      let prev = ref None in
      (* (time, props, iters, alloc_words, gc_pause_us) of the last poll *)
      let last_height = ref 0 in
      let frame () =
        let j = poll () in
        match J.member "ok" j with
        | Some (J.Bool true) ->
            let kvs = counters j in
            let now = Unix.gettimeofday () in
            let props = counter_of kvs "sat_propagations" in
            let iters = counter_of kvs "cegis_iterations" in
            let have_gc = List.mem_assoc "gc_allocated_words_total" kvs in
            let alloc = counter_of kvs "gc_allocated_words_total" in
            let pause_us = counter_of kvs "gc_pause_us_total" in
            let last_major = gauge_of kvs "gc_last_major_pause_s" in
            let props_s, iters_s, alloc_s, gc_pct =
              match !prev with
              | None -> (0.0, 0.0, 0.0, 0.0)
              | Some (t0, p0, i0, a0, pu0) ->
                  let dt = now -. t0 in
                  ( rate props p0 dt,
                    rate iters i0 dt,
                    rate alloc a0 dt,
                    if dt <= 0.0 then 0.0
                    else float_of_int (pause_us - pu0) /. 1e4 /. dt )
            in
            prev := Some (now, props, iters, alloc, pause_us);
            let gc =
              if have_gc then Some (alloc_s, gc_pct, last_major) else None
            in
            if json then begin
              let jout =
                match j with
                | J.Obj fields ->
                    J.Obj
                      (fields
                      @ [
                          ( "gc",
                            J.Obj
                              [
                                ("present", J.Bool have_gc);
                                ("alloc_words_total", J.Int alloc);
                                ("pause_us_total", J.Int pause_us);
                                ("last_major_pause_s", J.Float last_major);
                                ("alloc_words_per_s", J.Float alloc_s);
                                ("gc_pct", J.Float gc_pct);
                              ] );
                        ])
                | other -> other
              in
              print_endline (J.to_string jout)
            end
            else begin
              let lines = render ~socket j kvs ~props_s ~iters_s ~gc in
              if tty && !last_height > 0 then
                Printf.printf "\027[%dA\027[J" !last_height;
              List.iter print_endline lines;
              last_height := List.length lines;
              flush stdout
            end;
            true
        | _ ->
            Printf.eprintf "fecsynth top: %s\n%!"
              (match get_str "error" j with
              | Some e -> e
              | None -> "daemon answered without ok");
            false
      in
      let ok = frame () in
      if once then if ok then `Ok () else `Error (false, "poll failed")
      else begin
        let rec go () =
          Unix.sleepf interval;
          if frame () then go () else `Error (false, "daemon went away")
        in
        if ok then go () else `Error (false, "poll failed")
      end
    end
  in
  let doc =
    "Live view of a running $(b,fecsynth serve) daemon, polled over the \
     wire $(b,metrics) op: queue depth, per-worker state/age/request, \
     cache hit rate, propagations and iterations per second, plus a GC \
     line from the runtime lens (allocation rate, %gc of wall, last \
     major pause; dashes under $(b,--no-runtime-lens)).  On a TTY the \
     view redraws in place; $(b,--once) prints a single snapshot, \
     $(b,--json) machine-readable polls (with a parsed $(b,gc) object)."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ interval_arg $ once_arg $ json_arg
       $ retries_arg $ connect_timeout_arg))

(* ---------- cache maintenance ---------- *)

let cache_cmd =
  let dir_of cache_dir =
    match cache_dir with
    | Some d -> d
    | None -> Fec_session.Cache.default_dir ()
  in
  let cache_verify_cmd =
    let run cache_dir =
      let dir = dir_of cache_dir in
      let v = Fec_session.Cache.verify ~dir in
      List.iter
        (fun name -> Printf.printf "corrupt:  %s\n" name)
        v.Fec_session.Cache.corrupt;
      List.iter
        (fun name -> Printf.printf "orphan:   %s\n" name)
        v.Fec_session.Cache.orphan_tmp;
      Printf.printf "verified: %d entries ok, %d corrupt, %d orphaned tmp\n"
        v.Fec_session.Cache.ok_entries
        (List.length v.Fec_session.Cache.corrupt)
        (List.length v.Fec_session.Cache.orphan_tmp);
      if v.Fec_session.Cache.corrupt = [] then `Ok () else exit 1
    in
    let doc =
      "Audit every cache entry (structure + CRC) and list orphaned temp \
       files; exits 1 when any entry is corrupt."
    in
    Cmd.v (Cmd.info "verify" ~doc) Term.(ret (const run $ cache_dir_arg))
  in
  let cache_scavenge_cmd =
    let run cache_dir =
      let dir = dir_of cache_dir in
      let n = Fec_session.Cache.scavenge ~dir in
      Printf.printf "scavenged: %d orphaned file(s)\n" n;
      `Ok ()
    in
    let doc =
      "Sweep orphaned temp files left by crashed writers (files whose \
       writing pid is dead); live writes are left alone."
    in
    Cmd.v (Cmd.info "scavenge" ~doc) Term.(ret (const run $ cache_dir_arg))
  in
  let doc = "inspect and repair the content-addressed result cache" in
  Cmd.group (Cmd.info "cache" ~doc) [ cache_verify_cmd; cache_scavenge_cmd ]

(* ---------- verify ---------- *)

let verify_cmd =
  let method_arg =
    let doc = "Distance-checking method: sat (the paper's) or enum." in
    Arg.(value & opt (enum [ ("sat", `Sat); ("enum", `Enum) ]) `Sat & info [ "method" ] ~doc)
  in
  let run code_spec prop_spec method_ trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"verify"
      ~problem:(code_spec ^ " |= " ^ prop_spec)
      ~config:
        [ ("method", match method_ with `Sat -> "sat" | `Enum -> "enum") ]
      ();
    let code = load_code code_spec in
    let prop = Session.load_prop prop_spec in
    (* md claims go through the dedicated checker so the SAT path is used *)
    let env = Spec.Eval.env_of_code code in
    let start = Unix.gettimeofday () in
    let holds =
      Output.with_trace trace (fun () ->
          match (prop, method_) with
          | Spec.Ast.Cmp (Spec.Ast.Eq, Spec.Ast.Func (Spec.Ast.Md, _), Spec.Ast.Int m), `Sat ->
              (Synth.Verify.min_distance_exactly ~method_:Synth.Verify.Sat code m).Synth.Verify.holds
          | Spec.Ast.Cmp (Spec.Ast.Ge, Spec.Ast.Func (Spec.Ast.Md, _), Spec.Ast.Int m), `Sat ->
              (Synth.Verify.min_distance_at_least ~method_:Synth.Verify.Sat code m).Synth.Verify.holds
          | _ -> (Synth.Verify.property env prop).Synth.Verify.holds)
    in
    let elapsed = Unix.gettimeofday () -. start in
    Output.ledger_finish
      ~metrics:[ ("stats.elapsed_s", elapsed) ]
      ~outcome:(if holds then "verified" else "refuted")
      ~exit_code:(if holds then 0 else 1)
      ();
    Output.result fmt
      ~text:(fun () ->
        Printf.printf "%s (%.2f s)\n" (if holds then "VERIFIED" else "REFUTED") elapsed)
      ~json:(fun () ->
        [
          ("command", J.Str "verify");
          ("holds", J.Bool holds);
          ("elapsed_s", J.Float elapsed);
        ]);
    if holds then `Ok () else exit 1
  in
  let doc = "Verify a property of a concrete generator." in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      ret
        (const run $ code_arg $ prop_arg $ method_arg $ Output.trace_arg
       $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- distance ---------- *)

let distance_cmd =
  let run code_spec trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"distance" ~problem:code_spec
      ~config:[] ();
    let code = load_code code_spec in
    let md, pu =
      Output.with_trace trace (fun () ->
          ( Hamming.Distance.min_distance code,
            Hamming.Robustness.undetected_error_probability code ~p:0.1 ))
    in
    Output.result fmt
      ~text:(fun () ->
        Printf.printf
          "(%d,%d) generator: minimum distance %d, %d set bits, P_u(p=0.1) = %.3e\n"
          (Hamming.Code.block_len code) (Hamming.Code.data_len code)
          md (Hamming.Code.set_bits code) pu)
      ~json:(fun () ->
        [
          ("command", J.Str "distance");
          ("block_len", J.Int (Hamming.Code.block_len code));
          ("data_len", J.Int (Hamming.Code.data_len code));
          ("min_distance", J.Int md);
          ("set_bits", J.Int (Hamming.Code.set_bits code));
          ("p_undetected_at_0.1", J.Float pu);
        ]);
    Output.ledger_finish
      ~metrics:[ ("min_distance", float_of_int md) ]
      ~outcome:"ok" ~exit_code:0 ();
    `Ok ()
  in
  let doc = "Compute the exact minimum distance of a generator." in
  Cmd.v (Cmd.info "distance" ~doc)
    Term.(
      ret
        (const run $ code_arg $ Output.trace_arg $ Output.no_ledger_arg
       $ Output.stats_arg))

(* ---------- analyze ---------- *)

let analyze_cmd =
  let format_arg =
    let doc = "Data format to profile: float32 or int32." in
    Arg.(value & opt (enum [ ("float32", `F32); ("int32", `I32) ]) `F32 & info [ "format" ] ~doc)
  in
  let samples_arg =
    let doc = "Monte-Carlo samples for the float profile." in
    Arg.(value & opt int 100_000 & info [ "samples" ] ~doc)
  in
  let run format samples trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"analyze"
      ~problem:(match format with `F32 -> "float32" | `I32 -> "int32")
      ~config:[ ("samples", string_of_int samples) ]
      ();
    let profile =
      Output.with_trace trace (fun () ->
          match format with
          | `F32 -> Channel.Bitflip.float32_profile ~samples ()
          | `I32 -> Channel.Bitflip.int32_profile ())
    in
    let norm = Channel.Bitflip.normalize profile in
    let weights =
      match format with
      | `F32 -> Some (Channel.Bitflip.weights_for_upper_bits ~bits:16 profile)
      | `I32 -> None
    in
    Output.result fmt
      ~text:(fun () ->
        print_endline "bit  normalized-avg-error  non-numeric";
        Array.iteri
          (fun i v ->
            Printf.printf "%2d   %-20.6g %d\n" i v
              profile.Channel.Bitflip.non_numeric.(i))
          norm;
        match weights with
        | Some w ->
            Printf.printf "\nsuggested upper-16 weights: %s\n"
              (String.concat "," (Array.to_list (Array.map string_of_int w)))
        | None -> ())
      ~json:(fun () ->
        [
          ("command", J.Str "analyze");
          ("format", J.Str (match format with `F32 -> "float32" | `I32 -> "int32"));
          ( "normalized_avg_error",
            J.List (Array.to_list (Array.map (fun v -> J.Float v) norm)) );
          ( "non_numeric",
            J.List
              (Array.to_list
                 (Array.map
                    (fun n -> J.Int n)
                    profile.Channel.Bitflip.non_numeric)) );
        ]
        @
        match weights with
        | Some w ->
            [
              ( "suggested_upper16_weights",
                J.List (Array.to_list (Array.map (fun v -> J.Int v) w)) );
            ]
        | None -> []);
    Output.ledger_finish ~outcome:"ok" ~exit_code:0 ();
    `Ok ()
  in
  let doc = "Per-bit numeric-error profile of a data format (paper Figure 1)." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ format_arg $ samples_arg $ Output.trace_arg
       $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- emit ---------- *)

let emit_cmd =
  let lang_arg =
    let doc = "Output language: c or ocaml." in
    Arg.(value & opt (enum [ ("c", `C); ("ocaml", `OCaml) ]) `C & info [ "lang" ] ~doc)
  in
  let out_arg =
    let doc = "Output file (stdout if omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run code_spec lang out trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"emit" ~problem:code_spec
      ~config:[ ("lang", match lang with `C -> "c" | `OCaml -> "ocaml") ]
      ();
    let code = load_code code_spec in
    let source =
      Output.with_trace trace (fun () ->
          match lang with
          | `C -> Hamming.Emit.c_source code
          | `OCaml -> Hamming.Emit.ocaml_source code)
    in
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc source;
        close_out oc);
    Output.result fmt
      ~text:(fun () ->
        match out with
        | None -> print_string source
        | Some path ->
            Printf.printf "wrote %s (%d bytes)\n" path (String.length source))
      ~json:(fun () ->
        [
          ("command", J.Str "emit");
          ("lang", J.Str (match lang with `C -> "c" | `OCaml -> "ocaml"));
          ("bytes", J.Int (String.length source));
        ]
        @ (match out with
          | Some path -> [ ("output", J.Str path) ]
          | None -> [ ("source", J.Str source) ]));
    Output.ledger_finish ~outcome:"ok" ~exit_code:0 ();
    `Ok ()
  in
  let doc = "Emit a specialized encode/check implementation for a generator." in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(
      ret
        (const run $ code_arg $ lang_arg $ out_arg $ Output.trace_arg
       $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- smt ---------- *)

let smt_cmd =
  let file_arg =
    let doc = "SMT-LIB v2 script (Boolean fragment); '-' reads stdin." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"smt" ~problem:file ~config:[]
      ();
    let script =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin file In_channel.input_all
    in
    match Output.with_trace trace (fun () -> Smtlite.Smtlib.run_to_string script) with
    | out ->
        Output.result fmt
          ~text:(fun () -> if out <> "" then print_endline out)
          ~json:(fun () ->
            [
              ("command", J.Str "smt");
              ( "answers",
                J.List
                  (List.filter_map
                     (fun l -> if l = "" then None else Some (J.Str l))
                     (String.split_on_char '\n' out)) );
            ]);
        Output.ledger_finish ~outcome:"ok" ~exit_code:0 ();
        `Ok ()
    | exception Smtlite.Smtlib.Error msg ->
        Output.ledger_finish ~outcome:"error" ~exit_code:124 ();
        `Error (false, msg)
  in
  let doc = "Run an SMT-LIB v2 script on the built-in Boolean solver." in
  Cmd.v (Cmd.info "smt" ~doc)
    Term.(
      ret
        (const run $ file_arg $ Output.trace_arg $ Output.no_ledger_arg
       $ Output.stats_arg))

(* ---------- certify ---------- *)

let certify_cmd =
  let md_arg =
    let doc = "Minimum-distance bound to certify." in
    Arg.(required & opt (some int) None & info [ "m"; "min-distance" ] ~docv:"MD" ~doc)
  in
  let out_arg =
    let doc = "Write the DRAT certificate to FILE." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run code_spec md out trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"certify"
      ~problem:(Printf.sprintf "%s md>=%d" code_spec md)
      ~config:[] ();
    let code = load_code code_spec in
    let start = Unix.gettimeofday () in
    match
      Output.with_trace trace (fun () ->
          Hamming.Distance.certified_min_distance_at_least code md)
    with
    | `Certified proof ->
        let elapsed = Unix.gettimeofday () -. start in
        let steps = List.length (Sat.Drat.parse proof) in
        Output.ledger_finish
          ~metrics:
            [ ("stats.elapsed_s", elapsed); ("proof_steps", float_of_int steps) ]
          ~outcome:"certified" ~exit_code:0 ();
        (match out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc proof;
            close_out oc);
        Output.result fmt
          ~text:(fun () ->
            Printf.printf
              "CERTIFIED md >= %d (%.2f s); DRAT proof: %d steps, validated by the \
               independent checker\n"
              md elapsed steps;
            match out with
            | None -> ()
            | Some path -> Printf.printf "certificate written to %s\n" path)
          ~json:(fun () ->
            [
              ("command", J.Str "certify");
              ("certified", J.Bool true);
              ("min_distance", J.Int md);
              ("elapsed_s", J.Float elapsed);
              ("proof_steps", J.Int steps);
            ]
            @ match out with Some p -> [ ("output", J.Str p) ] | None -> []);
        `Ok ()
    | `Refuted witness ->
        Output.ledger_finish ~outcome:"refuted" ~exit_code:1 ();
        Output.result fmt
          ~text:(fun () ->
            Printf.printf
              "REFUTED: data word %s encodes to codeword weight %d < %d\n"
              (Gf2.Bitvec.to_string witness)
              (Gf2.Bitvec.popcount (Hamming.Code.encode code witness))
              md)
          ~json:(fun () ->
            [
              ("command", J.Str "certify");
              ("certified", J.Bool false);
              ("min_distance", J.Int md);
              ("witness", J.Str (Gf2.Bitvec.to_string witness));
              ( "witness_weight",
                J.Int (Gf2.Bitvec.popcount (Hamming.Code.encode code witness)) );
            ]);
        exit 1
  in
  let doc = "Certify a minimum-distance bound with a validated DRAT proof." in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(
      ret
        (const run $ code_arg $ md_arg $ out_arg $ Output.trace_arg
       $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- robustness ---------- *)

let robustness_cmd =
  let words_arg =
    let doc = "Number of random data words." in
    Arg.(value & opt int 1_000_000 & info [ "words" ] ~doc)
  in
  let p_arg =
    let doc = "Channel bit-error probability." in
    Arg.(value & opt float 0.1 & info [ "error-prob" ] ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed." in
    Arg.(value & opt int 0xFEC & info [ "seed" ] ~doc)
  in
  let run code_spec words p seed trace no_ledger fmt =
    Output.ledger_start ~no_ledger ~subcommand:"robustness" ~problem:code_spec
      ~config:
        [
          ("words", string_of_int words);
          ("error_prob", string_of_float p);
          ("seed", string_of_int seed);
        ]
      ();
    let code = load_code code_spec in
    let md, r =
      Output.with_trace trace (fun () ->
          let md = Hamming.Distance.min_distance code in
          let codec = Channel.Montecarlo.codec_of_code code in
          ( md,
            Channel.Montecarlo.run ~codec ~md ~words ~p ~seed
              (Channel.Montecarlo.uniform_data codec) ))
    in
    Output.result fmt
      ~text:(fun () ->
        Printf.printf
          "words %d  p %.3f  md %d\n>=md flips: %d (theory %.0f)\nundetected: %d\n"
          words p md r.Channel.Montecarlo.flips_ge_md
          r.Channel.Montecarlo.expected_flips_ge_md
          r.Channel.Montecarlo.undetected)
      ~json:(fun () ->
        [
          ("command", J.Str "robustness");
          ("words", J.Int words);
          ("error_prob", J.Float p);
          ("min_distance", J.Int md);
          ("flips_ge_md", J.Int r.Channel.Montecarlo.flips_ge_md);
          ( "expected_flips_ge_md",
            J.Float r.Channel.Montecarlo.expected_flips_ge_md );
          ("undetected", J.Int r.Channel.Montecarlo.undetected);
        ]);
    Output.ledger_finish
      ~metrics:
        [
          ("undetected", float_of_int r.Channel.Montecarlo.undetected);
          ("flips_ge_md", float_of_int r.Channel.Montecarlo.flips_ge_md);
        ]
      ~outcome:"ok" ~exit_code:0 ();
    `Ok ()
  in
  let doc = "Monte-Carlo robustness of a generator on a binary symmetric channel." in
  Cmd.v (Cmd.info "robustness" ~doc)
    Term.(
      ret
        (const run $ code_arg $ words_arg $ p_arg $ seed_arg $ Output.trace_arg
       $ Output.no_ledger_arg $ Output.stats_arg))

(* ---------- trace family: check / report / flame / diff ---------- *)

module An = Telemetry.Analyze

let load_parsed file =
  match An.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok p -> Ok p
  | Error msg -> Error ("invalid trace: " ^ msg)

let trace_file_arg =
  let doc = "NDJSON telemetry trace (as written by --trace)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let trace_check_run file fmt =
  match load_parsed file with
  | Error msg -> `Error (false, msg)
  | Ok p ->
      let c = An.check p in
      if c.An.check_truncated then
        Printf.eprintf
          "fecsynth: warning: final trace line is truncated (interrupted \
           write); ignored after %d complete events\n%!"
          c.An.total;
      if c.An.unbalanced_spans > 0 then
        Printf.eprintf
          "fecsynth: warning: %d unbalanced span(s) (begin without end, or \
           end without begin)\n%!"
          c.An.unbalanced_spans;
      if c.An.out_of_order > 0 then
        Printf.eprintf
          "fecsynth: warning: %d event(s) go back in time within their \
           worker stream\n%!"
          c.An.out_of_order;
      (* unknown fields are a vocabulary mismatch (a trace from a newer
         fecsynth), not corruption: warn, keep the payload, never fail *)
      if c.An.unknown_fields > 0 then
        Printf.eprintf
          "fecsynth: warning: %d event(s) carry field(s) unknown to this \
           build (%s); tolerated\n%!"
          c.An.unknown_fields
          (String.concat ", " c.An.unknown_field_names);
      Output.result fmt
        ~text:(fun () ->
          Printf.printf "ok: %d events\n" c.An.total;
          List.iter
            (fun ((kind, name), n) ->
              Printf.printf "%-10s %-24s %d\n" kind name n)
            c.An.counts)
        ~json:(fun () ->
          [
            ("command", J.Str "trace-check");
            ("events", J.Int c.An.total);
            ("truncated_tail", J.Bool c.An.check_truncated);
            ("unbalanced_spans", J.Int c.An.unbalanced_spans);
            ("out_of_order", J.Int c.An.out_of_order);
            ("unknown_fields", J.Int c.An.unknown_fields);
            ( "unknown_field_names",
              J.List (List.map (fun s -> J.Str s) c.An.unknown_field_names) );
            ( "counts",
              J.List
                (List.map
                   (fun ((kind, name), n) ->
                     J.Obj
                       [
                         ("kind", J.Str kind);
                         ("name", J.Str name);
                         ("count", J.Int n);
                       ])
                   c.An.counts) );
          ]);
      `Ok ()

let trace_check_doc =
  "Validate an NDJSON telemetry trace: every line must parse and carry \
   ts/kind/name; prints per-(kind, name) event counts.  Warns about a \
   truncated final line (interrupted write), unbalanced spans and \
   out-of-order timestamps."

let trace_check_sub =
  Cmd.v
    (Cmd.info "check" ~doc:trace_check_doc)
    Term.(ret (const trace_check_run $ trace_file_arg $ Output.stats_arg))

let trace_report_cmd =
  let top_arg =
    let doc = "Detail the $(docv) slowest CEGIS iterations." in
    Arg.(value & opt int 3 & info [ "top" ] ~docv:"N" ~doc)
  in
  let request_arg =
    let doc =
      "Report on the events of a serve-daemon trace stamped with request \
       id $(docv): the same sections as the whole-trace report, plus the \
       request's queue wait (admission to first span)."
    in
    Arg.(value & opt (some string) None & info [ "request" ] ~docv:"ID" ~doc)
  in
  (* the "runtime" section (mutator vs GC split from the runtime lens),
     shared by the whole-trace and per-request reports; absent when the
     trace carries no lens data *)
  let runtime_text rt =
    Printf.printf "\nruntime:     %.1f%% of wall observed by the GC lens\n"
      rt.An.rt_covered_pct;
    Printf.printf "  mutator:   %.3fs\n" rt.An.rt_total_mutator_s;
    Printf.printf "  gc:        %.3fs (%d pause event%s, max %.2fms)\n"
      rt.An.rt_gc_s rt.An.rt_pauses
      (if rt.An.rt_pauses = 1 then "" else "s")
      (rt.An.rt_max_pause_s *. 1e3);
    Printf.printf "  wait:      %.3fs\n" rt.An.rt_total_wait_s;
    Printf.printf "\n%-8s %10s %10s %10s %10s %10s %8s %8s %12s\n" "domain"
      "covered_s" "mutator_s" "minor_s" "major_s" "wait_s" "minors" "majors"
      "alloc_words";
    List.iter
      (fun d ->
        Printf.printf "%-8d %10.3f %10.3f %10.3f %10.3f %10.3f %8d %8d %12d\n"
          d.An.rt_domain d.An.rt_covered_s d.An.rt_mutator_s d.An.rt_minor_s
          d.An.rt_major_s d.An.rt_wait_s d.An.rt_minor_n d.An.rt_major_n
          d.An.rt_alloc_words)
      rt.An.rt_domains
  in
  let runtime_json rt =
    ( "runtime",
      J.Obj
        [
          ("covered_pct", J.Float rt.An.rt_covered_pct);
          ("mutator_s", J.Float rt.An.rt_total_mutator_s);
          ("gc_s", J.Float rt.An.rt_gc_s);
          ("wait_s", J.Float rt.An.rt_total_wait_s);
          ("pauses", J.Int rt.An.rt_pauses);
          ("max_pause_s", J.Float rt.An.rt_max_pause_s);
          ( "domains",
            J.List
              (List.map
                 (fun d ->
                   J.Obj
                     [
                       ("domain", J.Int d.An.rt_domain);
                       ("covered_s", J.Float d.An.rt_covered_s);
                       ("mutator_s", J.Float d.An.rt_mutator_s);
                       ("minor_s", J.Float d.An.rt_minor_s);
                       ("major_s", J.Float d.An.rt_major_s);
                       ("wait_s", J.Float d.An.rt_wait_s);
                       ("minor_n", J.Int d.An.rt_minor_n);
                       ("major_n", J.Int d.An.rt_major_n);
                       ("alloc_words", J.Int d.An.rt_alloc_words);
                     ])
                 rt.An.rt_domains) );
        ] )
  in
  let run file top request fmt =
    match load_parsed file with
    | Error msg -> `Error (false, msg)
    | Ok p -> (
        match An.report ?request ~top p with
        | None ->
            `Error
              ( false,
                Printf.sprintf "request %S not in trace%s"
                  (Option.value request ~default:"")
                  (match An.request_ids p with
                  | [] -> " (no request-stamped events at all)"
                  | ids ->
                      Printf.sprintf " (has: %s)"
                        (String.concat ", "
                           (List.map fst
                              (List.filteri (fun i _ -> i < 8) ids)))) )
        | Some r ->
        let rt = An.runtime ?request p in
        Output.result fmt
          ~text:(fun () ->
            Option.iter (Printf.printf "request:     %s\n") r.An.request;
            Printf.printf "events:      %d\n" r.An.events;
            Printf.printf "wall:        %.3fs\n" r.An.wall_s;
            if r.An.request <> None then
              Printf.printf "queue wait:  %.3fs\n" r.An.queue_wait_s;
            Printf.printf "busy:        %.3fs\n" r.An.busy_s;
            Printf.printf "attributed:  %.1f%% (%.3fs unattributed)\n"
              r.An.attributed_pct r.An.unattributed_s;
            Printf.printf "iterations:  %d\n" r.An.iterations;
            if r.An.open_spans > 0 then
              Printf.printf "open spans:  %d (still running or reaped)\n"
                r.An.open_spans;
            if r.An.phases <> [] then begin
              Printf.printf "\n%-24s %12s %8s\n" "phase" "total_s" "calls";
              List.iter
                (fun ph ->
                  Printf.printf "%-24s %12.4f %8d\n" ph.An.phase ph.An.total_s
                    ph.An.calls)
                r.An.phases
            end;
            Option.iter runtime_text rt;
            Printf.printf "\nsat:";
            List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) r.An.sat_totals;
            print_newline ();
            match r.An.slowest with
            | [] -> ()
            | slow ->
                Printf.printf "\nslowest iterations:\n";
                List.iter
                  (fun (it, dur, kids) ->
                    Printf.printf "  #%-6d %8.4fs" it dur;
                    List.iter
                      (fun (name, d) -> Printf.printf "  %s=%.4fs" name d)
                      kids;
                    print_newline ())
                  slow)
          ~json:(fun () ->
            (match rt with Some s -> [ runtime_json s ] | None -> [])
            @ [ ("command", J.Str "trace-report") ]
            @ (match r.An.request with
              | Some id -> [ ("request", J.Str id) ]
              | None -> [])
            @ [ ("events", J.Int r.An.events); ("wall_s", J.Float r.An.wall_s) ]
            @ (if r.An.request <> None then
                 [ ("queue_wait_s", J.Float r.An.queue_wait_s) ]
               else [])
            @ [
              ("busy_s", J.Float r.An.busy_s);
              ("open_spans", J.Int r.An.open_spans);
              ("attributed_s", J.Float r.An.attributed_s);
              ("unattributed_s", J.Float r.An.unattributed_s);
              ("attributed_pct", J.Float r.An.attributed_pct);
              ("iterations", J.Int r.An.iterations);
              ( "phases",
                J.List
                  (List.map
                     (fun ph ->
                       J.Obj
                         [
                           ("phase", J.Str ph.An.phase);
                           ("total_s", J.Float ph.An.total_s);
                           ("calls", J.Int ph.An.calls);
                         ])
                     r.An.phases) );
              ( "sat",
                J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.An.sat_totals)
              );
              ( "slowest",
                J.List
                  (List.map
                     (fun (it, dur, kids) ->
                       J.Obj
                         [
                           ("iter", J.Int it);
                           ("dur_s", J.Float dur);
                           ( "children",
                             J.Obj
                               (List.map (fun (n, d) -> (n, J.Float d)) kids)
                           );
                         ])
                     r.An.slowest) );
            ]);
        `Ok ())
  in
  let doc =
    "Per-phase wall-time attribution of a synthesis trace: where the run \
     spent its time (SAT propagate/analyze/restart, Smtlite encoding, CEGIS \
     verification, portfolio idle), per iteration and in total.  Attributed \
     time is the union of root spans; spans still open at the end of the \
     trace (a killed run, a reaped stall) count up to its last event.  With \
     $(b,--request), slice a serve-daemon trace down to one request."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      ret (const run $ trace_file_arg $ top_arg $ request_arg $ Output.stats_arg))

let trace_flame_cmd =
  let run file =
    match load_parsed file with
    | Error msg -> `Error (false, msg)
    | Ok p ->
        print_string (An.flame_to_string p);
        `Ok ()
  in
  let doc =
    "Render the span tree as folded stacks (one \"a;b;c microseconds\" line \
     per stack), the input format of flamegraph.pl and speedscope."
  in
  Cmd.v (Cmd.info "flame" ~doc) Term.(ret (const run $ trace_file_arg))

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let pct_str pct =
  if Float.is_finite pct then Printf.sprintf "%+.1f%%" pct
  else if pct > 0.0 then "+inf%"
  else "-inf%"

(* Shared result rendering for [trace diff] and [runs compare]: the two
   commands judge different inputs but report identically.  Metrics
   present on only one side are listed by name (added/removed), never
   silently dropped — a metric that disappears can hide a regression.
   Exits 1 on any regression (the CI gate contract). *)
let print_metric_diff fmt ~threshold ~command ~label_a ~label_b ~extra_json
    (d : An.diff) =
  let delta_json (dl : An.delta) =
    J.Obj
      [
        ("key", J.Str dl.An.key);
        ("a", J.Float dl.An.va);
        ("b", J.Float dl.An.vb);
        ( "pct",
          if Float.is_finite dl.An.pct then J.Float dl.An.pct
          else J.Str (pct_str dl.An.pct) );
      ]
  in
  Output.result fmt
    ~text:(fun () ->
      Printf.printf
        "%s vs %s: %d shared metrics (%d only in baseline, %d only in \
         candidate)\n"
        label_a label_b d.An.shared d.An.only_a d.An.only_b;
      List.iter
        (fun k -> Printf.printf "removed      %s\n" k)
        d.An.removed;
      List.iter (fun k -> Printf.printf "added        %s\n" k) d.An.added;
      List.iter
        (fun (dl : An.delta) ->
          Printf.printf "regression   %-40s %12g -> %-12g %s\n" dl.An.key
            dl.An.va dl.An.vb (pct_str dl.An.pct))
        d.An.regressions;
      List.iter
        (fun (dl : An.delta) ->
          Printf.printf "improvement  %-40s %12g -> %-12g %s\n" dl.An.key
            dl.An.va dl.An.vb (pct_str dl.An.pct))
        d.An.improvements;
      if d.An.regressions = [] then
        Printf.printf "ok: no metric regressed beyond %.1f%%\n" threshold
      else
        Printf.printf "FAIL: %d metric(s) regressed beyond %.1f%%\n"
          (List.length d.An.regressions)
          threshold)
    ~json:(fun () ->
      [ ("command", J.Str command) ]
      @ extra_json
      @ [
          ("threshold_pct", J.Float threshold);
          ("shared", J.Int d.An.shared);
          ("only_a", J.Int d.An.only_a);
          ("only_b", J.Int d.An.only_b);
          ("added", J.List (List.map (fun k -> J.Str k) d.An.added));
          ("removed", J.List (List.map (fun k -> J.Str k) d.An.removed));
          ("regressions", J.List (List.map delta_json d.An.regressions));
          ("improvements", J.List (List.map delta_json d.An.improvements));
        ]);
  if d.An.regressions <> [] then exit 1;
  `Ok ()

let trace_diff_cmd =
  let a_arg =
    let doc = "Baseline: an NDJSON trace or a BENCH_*.json file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc)
  in
  let b_arg =
    let doc = "Candidate to compare against the baseline." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc)
  in
  let threshold_arg =
    let doc =
      "Flag shared metrics that changed by more than $(docv) percent."
    in
    Arg.(value & opt float 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let ignore_arg =
    let doc =
      "Drop metrics whose key contains $(docv) before comparing \
       (repeatable).  Lets a CI gate skip noisy wall-clock metrics while \
       still judging deterministic counters."
    in
    Arg.(value & opt_all string [] & info [ "ignore" ] ~docv:"SUBSTR" ~doc)
  in
  let run a b threshold ignored fmt =
    match
      ( An.metrics_of_string (In_channel.with_open_bin a In_channel.input_all),
        An.metrics_of_string (In_channel.with_open_bin b In_channel.input_all) )
    with
    | Error msg, _ -> `Error (false, Printf.sprintf "%s: %s" a msg)
    | _, Error msg -> `Error (false, Printf.sprintf "%s: %s" b msg)
    | Ok (ma, sa), Ok (mb, sb) ->
        let keep (key, _) =
          not (List.exists (fun sub -> contains_sub ~sub key) ignored)
        in
        let ma = List.filter keep ma and mb = List.filter keep mb in
        let d = An.diff ~threshold ma mb in
        print_metric_diff fmt ~threshold ~command:"trace-diff"
          ~label_a:(An.source_name sa ^ " " ^ a)
          ~label_b:(An.source_name sb ^ " " ^ b)
          ~extra_json:
            [
              ("a", J.Str a);
              ("b", J.Str b);
              ("source_a", J.Str (An.source_name sa));
              ("source_b", J.Str (An.source_name sb));
            ]
          d
  in
  let doc =
    "Compare two traces or two bench baselines metric by metric; exits 1 \
     when any shared metric regresses beyond the threshold (the bench \
     regression gate)."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"a shared metric regressed beyond the threshold."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "diff" ~doc ~exits)
    Term.(
      ret
        (const run $ a_arg $ b_arg $ threshold_arg $ ignore_arg
       $ Output.stats_arg))

let trace_cmd =
  let doc = "validate, profile and compare NDJSON telemetry traces" in
  Cmd.group (Cmd.info "trace" ~doc)
    [ trace_check_sub; trace_report_cmd; trace_flame_cmd; trace_diff_cmd ]

(* ---------- version ---------- *)

let version_cmd =
  let json_arg =
    let doc = "Print the build identity as one JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run json =
    let b = Telemetry.Buildinfo.detect () in
    if json then Output.print_json (Telemetry.Buildinfo.to_json b)
    else begin
      Printf.printf "fecsynth %s\n" b.Telemetry.Buildinfo.code_version;
      (match b.Telemetry.Buildinfo.git with
      | Some g -> Printf.printf "git: %s\n" g
      | None -> ());
      Printf.printf "ocaml: %s\n" b.Telemetry.Buildinfo.ocaml;
      Printf.printf "features: %s\n"
        (String.concat " " b.Telemetry.Buildinfo.features)
    end
  in
  let doc =
    "Print the build identity: code version, git describe (when available), \
     OCaml version and enabled features — the same record every run-ledger \
     entry embeds."
  in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ json_arg)

(* ---------- runs: the persistent cross-run ledger ---------- *)

module L = Telemetry.Ledger

let ledger_dir_arg =
  let doc =
    "Ledger directory to read (default: $(b,FEC_LEDGER_DIR) when set, else \
     .fecsynth/ledger)."
  in
  Arg.(value & opt (some string) None & info [ "ledger-dir" ] ~docv:"DIR" ~doc)

let resolve_dir = function Some d -> d | None -> L.default_dir ()

(* Reading mirrors [trace check]: a truncated tail and newer-format
   records are tolerated with a warning, real corruption is an error. *)
let load_entries dir =
  match L.load ~dir with
  | Error msg -> Error (Printf.sprintf "%s: %s" (L.file ~dir) msg)
  | Ok l ->
      if l.L.truncated then
        Printf.eprintf
          "fecsynth: warning: final ledger line is truncated (interrupted \
           append); ignored\n%!";
      if l.L.skipped_future > 0 then
        Printf.eprintf
          "fecsynth: warning: skipped %d record(s) written by a newer ledger \
           format (this build reads v%d and older)\n%!"
          l.L.skipped_future L.format_version;
      Ok l.L.entries

(* Ids are positional — 1-based from the oldest record, computed at read
   time (never stored, so concurrent appenders can't race on them);
   negative ids count back from the newest (-1 = latest). *)
let resolve_id entries id =
  let n = List.length entries in
  let idx = if id < 0 then n + id else id - 1 in
  if idx < 0 || idx >= n then
    Error
      (Printf.sprintf "run id %d out of range (the ledger holds %d run%s)" id
         n
         (if n = 1 then "" else "s"))
  else Ok (idx + 1, List.nth entries idx)

let entry_json ~id e =
  match L.to_json e with
  | J.Obj kvs -> J.Obj (("id", J.Int id) :: kvs)
  | j -> j

let runs_list_cmd =
  let sub_arg =
    let doc = "Only runs of this subcommand (synth, optimize, bench, ...)." in
    Arg.(
      value & opt (some string) None & info [ "subcommand" ] ~docv:"CMD" ~doc)
  in
  let problem_arg =
    let doc = "Only runs whose problem contains $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "problem" ] ~docv:"SUBSTR" ~doc)
  in
  let outcome_arg =
    let doc = "Only runs with this outcome (synthesized, timeout, crash, ...)." in
    Arg.(
      value & opt (some string) None & info [ "outcome" ] ~docv:"OUTCOME" ~doc)
  in
  let since_arg =
    let doc =
      "Only runs at or after this UTC timestamp (ISO-8601; prefixes work, \
       e.g. 2026-08)."
    in
    Arg.(value & opt (some string) None & info [ "since" ] ~docv:"TS" ~doc)
  in
  let cache_hits_arg =
    let doc = "Only runs answered from the result cache." in
    Arg.(value & flag & info [ "cache-hits" ] ~doc)
  in
  let run dir sub problem outcome since cache_hits fmt =
    match load_entries (resolve_dir dir) with
    | Error msg -> `Error (false, msg)
    | Ok entries ->
        let hits =
          List.filteri
            (fun _ ((_, e) : int * L.entry) ->
              (match sub with Some c -> e.L.subcommand = c | None -> true)
              && (match problem with
                 | Some p -> contains_sub ~sub:p e.L.problem
                 | None -> true)
              && (match outcome with
                 | Some o -> e.L.outcome = o
                 | None -> true)
              && ((not cache_hits) || e.L.cache_hit)
              && match since with Some ts -> e.L.ts >= ts | None -> true)
            (List.mapi (fun i e -> (i + 1, e)) entries)
        in
        Output.result fmt
          ~text:(fun () ->
            if hits = [] then print_endline "no recorded runs match"
            else begin
              Printf.printf "%-4s %-20s %-10s %-12s %4s %9s  %s\n" "id" "ts"
                "cmd" "outcome" "exit" "wall_s" "problem";
              List.iter
                (fun ((id, e) : int * L.entry) ->
                  Printf.printf "%-4d %-20s %-10s %-12s %4d %9.3f  %s\n" id
                    e.L.ts e.L.subcommand e.L.outcome e.L.exit_code e.L.wall_s
                    e.L.problem)
                hits
            end)
          ~json:(fun () ->
            [
              ("command", J.Str "runs-list");
              ( "runs",
                J.List (List.map (fun (id, e) -> entry_json ~id e) hits) );
            ]);
        `Ok ()
  in
  let doc = "List recorded runs, optionally filtered." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      ret
        (const run $ ledger_dir_arg $ sub_arg $ problem_arg $ outcome_arg
       $ since_arg $ cache_hits_arg $ Output.stats_arg))

let run_id_arg ~at ~docv =
  let doc =
    "Run id from $(b,runs list); negative ids count back from the newest \
     (-1 = latest)."
  in
  Arg.(required & pos at (some int) None & info [] ~docv ~doc)

let runs_show_cmd =
  let run dir id fmt =
    match load_entries (resolve_dir dir) with
    | Error msg -> `Error (false, msg)
    | Ok entries -> (
        match resolve_id entries id with
        | Error msg -> `Error (false, msg)
        | Ok (id, e) ->
            Output.result fmt
              ~text:(fun () ->
                Printf.printf "run %d: %s at %s\n" id e.L.subcommand e.L.ts;
                Printf.printf "outcome:  %s (exit %d)\n" e.L.outcome
                  e.L.exit_code;
                if e.L.cache_hit then print_endline "cache:    hit";
                Printf.printf "wall:     %.3f s\n" e.L.wall_s;
                Printf.printf "problem:  %s\n" e.L.problem;
                Printf.printf "build:    fecsynth %s, ocaml %s%s\n"
                  e.L.build.Telemetry.Buildinfo.code_version
                  e.L.build.Telemetry.Buildinfo.ocaml
                  (match e.L.build.Telemetry.Buildinfo.git with
                  | Some g -> ", git " ^ g
                  | None -> "");
                if e.L.config <> [] then begin
                  print_endline "config:";
                  List.iter
                    (fun (k, v) -> Printf.printf "  %s = %s\n" k v)
                    e.L.config
                end;
                if e.L.metrics <> [] then begin
                  print_endline "metrics:";
                  List.iter
                    (fun (k, v) -> Printf.printf "  %-28s %g\n" k v)
                    e.L.metrics
                end;
                match e.L.stats with
                | Some s ->
                    Printf.printf "stats:    %s\n" (J.to_string s)
                | None -> ())
              ~json:(fun () ->
                match entry_json ~id e with
                | J.Obj kvs -> ("command", J.Str "runs-show") :: kvs
                | j -> [ ("command", J.Str "runs-show"); ("run", j) ]);
            `Ok ())
  in
  let doc = "Show one recorded run in full." in
  Cmd.v (Cmd.info "show" ~doc)
    Term.(
      ret
        (const run $ ledger_dir_arg
        $ run_id_arg ~at:0 ~docv:"ID"
        $ Output.stats_arg))

let runs_compare_cmd =
  let threshold_arg =
    let doc =
      "Flag shared metrics that changed by more than $(docv) percent."
    in
    Arg.(value & opt float 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let ignore_arg =
    let doc =
      "Drop metrics whose key contains $(docv) before comparing (repeatable; \
       e.g. --ignore wall_s to skip wall-clock noise)."
    in
    Arg.(value & opt_all string [] & info [ "ignore" ] ~docv:"SUBSTR" ~doc)
  in
  let run dir a b threshold ignored fmt =
    match load_entries (resolve_dir dir) with
    | Error msg -> `Error (false, msg)
    | Ok entries -> (
        match (resolve_id entries a, resolve_id entries b) with
        | Error msg, _ | _, Error msg -> `Error (false, msg)
        | Ok (ida, ea), Ok (idb, eb) ->
            let keep (key, _) =
              not (List.exists (fun sub -> contains_sub ~sub key) ignored)
            in
            let ma = List.filter keep ea.L.metrics
            and mb = List.filter keep eb.L.metrics in
            let d = An.diff ~threshold ma mb in
            print_metric_diff fmt ~threshold ~command:"runs-compare"
              ~label_a:
                (Printf.sprintf "run %d (%s %s)" ida ea.L.subcommand ea.L.ts)
              ~label_b:
                (Printf.sprintf "run %d (%s %s)" idb eb.L.subcommand eb.L.ts)
              ~extra_json:[ ("a", J.Int ida); ("b", J.Int idb) ]
              d)
  in
  let doc =
    "Compare two recorded runs metric by metric (the $(b,trace diff) \
     machinery over ledger records); exits 1 when any shared metric \
     regressed beyond the threshold."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"a shared metric regressed beyond the threshold."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "compare" ~doc ~exits)
    Term.(
      ret
        (const run $ ledger_dir_arg
        $ run_id_arg ~at:0 ~docv:"A"
        $ run_id_arg ~at:1 ~docv:"B"
        $ threshold_arg $ ignore_arg $ Output.stats_arg))

let runs_trend_cmd =
  let metric_arg =
    let doc =
      "Metric to trend (substring match on ledger metric keys, e.g. wall_s, \
       stats.iterations, conflicts)."
    in
    Arg.(
      required & opt (some string) None & info [ "metric" ] ~docv:"METRIC" ~doc)
  in
  let sub_arg =
    let doc = "Only runs of this subcommand." in
    Arg.(
      value & opt (some string) None & info [ "subcommand" ] ~docv:"CMD" ~doc)
  in
  let problem_arg =
    let doc = "Only runs whose problem contains $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "problem" ] ~docv:"SUBSTR" ~doc)
  in
  let threshold_arg =
    let doc =
      "Flag a series whose latest point exceeds the median of its prior \
       points by more than $(docv) percent (the $(b,trace diff) regression \
       convention)."
    in
    Arg.(value & opt float 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let run dir sub problem metric threshold fmt =
    match load_entries (resolve_dir dir) with
    | Error msg -> `Error (false, msg)
    | Ok entries ->
        let ss = L.series ?subcommand:sub ?problem ~metric entries in
        let trends = List.map (L.trend ~threshold) ss in
        let regressed = List.filter (fun t -> t.L.regression) trends in
        Output.result fmt
          ~text:(fun () ->
            if trends = [] then
              Printf.printf "no recorded series match metric %s\n" metric
            else begin
              List.iter
                (fun (t : L.trend) ->
                  let s = t.L.t_series in
                  Printf.printf
                    "%-9s %-28s %-26s n=%-3d last=%-10g p50=%-10g p95=%-10g %s\n"
                    s.L.s_cmd s.L.s_problem s.L.s_metric t.L.n t.L.last t.L.p50
                    t.L.p95
                    (match t.L.pct_vs_baseline with
                    | None -> "baseline"
                    | Some p ->
                        if t.L.regression then
                          Printf.sprintf "REGRESSION %s vs baseline"
                            (pct_str p)
                        else Printf.sprintf "%s vs baseline" (pct_str p)))
                trends;
              if regressed = [] then
                Printf.printf "ok: no series regressed beyond %.1f%%\n"
                  threshold
              else
                Printf.printf "FAIL: %d series regressed beyond %.1f%%\n"
                  (List.length regressed) threshold
            end)
          ~json:(fun () ->
            [
              ("command", J.Str "runs-trend");
              ("metric", J.Str metric);
              ("threshold_pct", J.Float threshold);
              ( "series",
                J.List
                  (List.map
                     (fun (t : L.trend) ->
                       let s = t.L.t_series in
                       J.Obj
                         [
                           ("cmd", J.Str s.L.s_cmd);
                           ("problem", J.Str s.L.s_problem);
                           ("metric", J.Str s.L.s_metric);
                           ("n", J.Int t.L.n);
                           ("last", J.Float t.L.last);
                           ("p50", J.Float t.L.p50);
                           ("p95", J.Float t.L.p95);
                           ("min", J.Float t.L.lo);
                           ("max", J.Float t.L.hi);
                           ( "pct_vs_baseline",
                             match t.L.pct_vs_baseline with
                             | None -> J.Null
                             | Some p ->
                                 if Float.is_finite p then J.Float p
                                 else J.Str (pct_str p) );
                           ("regression", J.Bool t.L.regression);
                           ( "points",
                             J.List
                               (List.map
                                  (fun (ts, v) ->
                                    J.Obj
                                      [
                                        ("ts", J.Str ts); ("value", J.Float v);
                                      ])
                                  s.L.points) );
                         ])
                     trends) );
            ]);
        if regressed <> [] then exit 1;
        `Ok ()
  in
  let doc =
    "Per-problem series of a metric across recorded runs, with nearest-rank \
     quantiles and a latest-vs-median regression verdict; exits 1 on \
     regression (the longitudinal bench gate)."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"a series regressed beyond the threshold."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "trend" ~doc ~exits)
    Term.(
      ret
        (const run $ ledger_dir_arg $ sub_arg $ problem_arg $ metric_arg
       $ threshold_arg $ Output.stats_arg))

let runs_html_cmd =
  let out_arg =
    let doc = "Output file for the dashboard." in
    Arg.(
      value & opt string "fecsynth-runs.html"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc =
      "Render and validate the dashboard (balanced tags, zero external \
       references) without writing anything — the CI mode."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run dir out check fmt =
    match load_entries (resolve_dir dir) with
    | Error msg -> `Error (false, msg)
    | Ok entries -> (
        let html = Telemetry.Html.render entries in
        match Telemetry.Html.well_formed html with
        | Error msg ->
            `Error (false, "generated dashboard failed validation: " ^ msg)
        | Ok () ->
            let n = List.length entries in
            if check then
              Output.result fmt
                ~text:(fun () ->
                  Printf.printf "ok: dashboard well-formed (%d runs, %d bytes)\n"
                    n (String.length html))
                ~json:(fun () ->
                  [
                    ("command", J.Str "runs-html");
                    ("checked", J.Bool true);
                    ("runs", J.Int n);
                    ("bytes", J.Int (String.length html));
                  ])
            else begin
              (* a whole-file artifact: a reader never sees a torn
                 dashboard *)
              Durable.write out html;
              Output.result fmt
                ~text:(fun () ->
                  Printf.printf "wrote %s (%d runs, %d bytes)\n" out n
                    (String.length html))
                ~json:(fun () ->
                  [
                    ("command", J.Str "runs-html");
                    ("output", J.Str out);
                    ("runs", J.Int n);
                    ("bytes", J.Int (String.length html));
                  ])
            end;
            `Ok ())
  in
  let doc =
    "Render the run history as one self-contained HTML dashboard (inline \
     SVG sparklines and bar charts, zero external assets): outcome mix, \
     per-problem wall-time trends, solver-phase attribution."
  in
  Cmd.v (Cmd.info "html" ~doc)
    Term.(
      ret (const run $ ledger_dir_arg $ out_arg $ check_arg $ Output.stats_arg))

let runs_cmd =
  let doc =
    "inspect the persistent run ledger: history, trends, HTML dashboard"
  in
  Cmd.group (Cmd.info "runs" ~doc)
    [
      runs_list_cmd; runs_show_cmd; runs_compare_cmd; runs_trend_cmd;
      runs_html_cmd;
    ]

let () =
  let doc = "synthesis and verification of application-specific FEC codes" in
  let info =
    Cmd.info "fecsynth" ~version:Telemetry.Buildinfo.code_version ~doc
  in
  let group =
    Cmd.group info
      [
        synth_cmd; optimize_cmd; serve_cmd; submit_cmd; call_cmd; top_cmd;
        cache_cmd;
        verify_cmd; certify_cmd; distance_cmd; analyze_cmd; emit_cmd;
        robustness_cmd; smt_cmd; trace_cmd; version_cmd;
        runs_cmd;
      ]
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Fec_core.Registry.Parse_error msg ->
      Output.ledger_finish ~outcome:"error" ~exit_code:2 ();
      Printf.eprintf "fecsynth: bad code descriptor: %s\n" msg;
      exit 2
  | exception Spec.Parse.Error msg ->
      Output.ledger_finish ~outcome:"error" ~exit_code:2 ();
      Printf.eprintf "fecsynth: bad property: %s\n" msg;
      exit 2
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
      Output.ledger_finish ~outcome:"error" ~exit_code:2 ();
      Printf.eprintf "fecsynth: error: %s\n" msg;
      exit 2
