(* The serve event loop.  One thread owns all socket I/O: a select
   multiplexes the listener, every client and the read end of a
   self-pipe.  Synthesis runs on the manager's worker domains, and the
   manager writes a byte to the pipe whenever a session settles, so an
   [await] waiter is answered as soon as its session settles.  The loop
   never blocks on a session, and never blocks on a peer either: reads
   are non-blocking, responses go through bounded per-connection output
   buffers flushed when select reports the socket writable.  A short
   tick remains only for the periodic chores: deadline enforcement
   ({!Session.Manager.tend}), idle reaping and the runtime lens. *)

module J = Telemetry.Json

type config = {
  socket : string;
  workers : int;
  max_queue : int;
  grace : float;
  idle_timeout : float;
  max_frame : int;
  max_out : int;
  cache : bool;
  cache_dir : string option;
  no_ledger : bool;
  ledger_dir : string option;
  metrics : string option;
  metrics_port : int option;
  trace : string option;
  flight_dir : string option;
  flight_capacity : int;
  runtime_lens : bool;
      (* process-wide Runtime_events lens: GC/domain telemetry on
         /metrics, runtime.* points in the daemon trace *)
}

let default_config ~socket =
  {
    socket;
    workers = 2;
    max_queue = 16;
    grace = 1.0;
    idle_timeout = 300.0;
    max_frame = 1 lsl 20;
    max_out = 4 lsl 20;
    cache = true;
    cache_dir = None;
    no_ledger = false;
    ledger_dir = None;
    metrics = None;
    metrics_port = None;
    trace = None;
    flight_dir = None;
    flight_capacity = 512;
    runtime_lens = true;
  }

(* period of the housekeeping chores; answers never wait for it *)
let tick = 0.05

type proto = Jsonl | Http

type client = {
  fd : Unix.file_descr;
  proto : proto;  (* NDJSON control socket, or the HTTP scrape port *)
  buf : Buffer.t;  (* unconsumed request bytes *)
  out : Buffer.t;  (* unflushed response bytes *)
  mutable close_after_flush : bool;
  mutable last_active : float;
}

type state = {
  config : config;
  manager : Session.Manager.t;
  defaults : Session.request;
  mutable listen_fd : Unix.file_descr option;
  mutable http_fd : Unix.file_descr option;
      (* optional TCP scrape listener; stays open during drain so
         /healthz can report the drain in progress *)
  mutable clients : client list;
  mutable waiters : (Unix.file_descr * Session.Manager.id) list;
  wake : Unix.file_descr;  (* self-pipe read end: readable after a settle *)
  mutable rid_seq : int;
  mutable draining : bool;
}

let log fmt = Printf.eprintf ("fecsynth serve: " ^^ fmt ^^ "\n%!")

(* A dead client is dropped silently — its sessions keep running and
   their results stay queryable by id from any other connection. *)
let drop_client st c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  st.clients <- List.filter (fun c' -> c'.fd != c.fd) st.clients;
  st.waiters <- List.filter (fun (fd, _) -> fd <> c.fd) st.waiters

(* Queue the response; a peer that stops reading while we keep producing
   overflows its bound and is dropped — one slow consumer must not pin
   the daemon's memory. *)
let send st c line =
  if Buffer.length c.out + String.length line > st.config.max_out then
    drop_client st c
  else Buffer.add_string c.out line

(* Flush as much pending output as the socket accepts right now.  An
   injected wire.write crash models a peer falling over mid-response; a
   torn variant flushes half a frame then kills the connection — the
   retrying client sees an unparseable tail exactly as it would after a
   real mid-write crash. *)
let flush_client st c =
  let pending = Buffer.contents c.out in
  let len = String.length pending in
  if len > 0 then
    match Synth.Fault.probe_write "wire.write" with
    | exception Synth.Fault.Injected _ -> drop_client st c
    | `Torn ->
        (try ignore (Unix.write_substring c.fd pending 0 (len / 2))
         with Unix.Unix_error _ -> ());
        drop_client st c
    | `Full -> (
        match Unix.write_substring c.fd pending 0 len with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error _ -> drop_client st c
        | n ->
            Buffer.clear c.out;
            if n < len then
              Buffer.add_substring c.out pending n (len - n)
            else if c.close_after_flush then drop_client st c;
            c.last_active <- Unix.gettimeofday ())

(* Typed protocol error, then hang up once it is flushed: a peer that
   sends garbage, oversized or torn frames gets one diagnostic and no
   further service. *)
let reject st c ~kind msg =
  send st c (Wire.error ~kind msg);
  if List.exists (fun c' -> c'.fd == c.fd) st.clients then
    c.close_after_flush <- true

let settled = function
  | Session.Manager.Done _ | Session.Manager.Failed _
  | Session.Manager.Cancelled | Session.Manager.Timed_out ->
      true
  | Session.Manager.Queued | Session.Manager.Running -> false

(* the reply to status/await, from one {!Session.Manager.status} read *)
let status_response id = function
  | None -> Wire.error ~kind:"unknown_id" "unknown id"
  | Some (status, rid) ->
      Wire.ok
        (("id", J.Int id)
        :: (match rid with Some r -> [ ("request", J.Str r) ] | None -> [])
        @ [ ("session", Wire.status_to_json status) ])

let worker_json (w : Session.Manager.worker_info) =
  J.Obj
    ([
       ("worker", J.Int w.Session.Manager.wi_worker);
       ( "state",
         J.Str
           (match w.Session.Manager.wi_state with
           | `Idle -> "idle"
           | `Running -> "running"
           | `Condemned -> "condemned") );
       ("since_s", J.Float w.Session.Manager.wi_since_s);
     ]
    @ (match w.Session.Manager.wi_request with
      | Some r -> [ ("request", J.Str r) ]
      | None -> [])
    @
    match w.Session.Manager.wi_session with
    | Some s -> [ ("session", J.Int s) ]
    | None -> [])

let m_admitted = Telemetry.Metrics.counter "serve.admitted"
let m_scrapes = Telemetry.Metrics.counter "serve.metrics_scrapes"
let g_draining = Telemetry.Metrics.gauge "serve.draining"

(* Refresh the per-worker labeled gauge series just before a scrape, so
   the exposition carries live worker detail without per-tick updates.
   Build identity rides along as the conventional constant-1 info gauge
   ([fec_build_info{version=...,git=...,ocaml=...} 1]), and a forced
   lens poll makes the gc_* series current as of this scrape. *)
let update_worker_metrics st =
  Telemetry.Metrics.incr m_scrapes 1;
  Telemetry.Metrics.set g_draining (if st.draining then 1.0 else 0.0);
  Telemetry.Runtime.poll ~force:false ();
  (let b = Telemetry.Buildinfo.current () in
   Telemetry.Metrics.set
     (Telemetry.Metrics.gauge
        ~help:"Build identity of the serving binary (constant 1)"
        ~labels:
          [
            ("version", b.Telemetry.Buildinfo.code_version);
            ( "git",
              match b.Telemetry.Buildinfo.git with Some g -> g | None -> "-" );
            ("ocaml", b.Telemetry.Buildinfo.ocaml);
          ]
        "fec.build_info")
     1.0);
  List.iter
    (fun (w : Session.Manager.worker_info) ->
      let labels =
        [ ("worker", string_of_int w.Session.Manager.wi_worker) ]
      in
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge ~labels "serve.worker_busy")
        (match w.Session.Manager.wi_state with
        | `Running -> 1.0
        | `Idle | `Condemned -> 0.0);
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge ~labels "serve.worker_state_age_s")
        w.Session.Manager.wi_since_s)
    (Session.Manager.workers st.manager)

let stats_fields st =
  [
    ("queue_depth", J.Int (Session.Manager.queue_depth st.manager));
    ("sessions", J.Int (Session.Manager.admitted st.manager));
    ("reaped", J.Int (Session.Manager.reaped st.manager));
    ("draining", J.Bool st.draining);
    ( "workers",
      J.List (List.map worker_json (Session.Manager.workers st.manager)) );
  ]

let handle_command st c = function
  | Wire.Ping -> send st c (Wire.ok [ ("pong", J.Bool true) ])
  | Wire.Stats -> send st c (Wire.ok (stats_fields st))
  | Wire.Metrics ->
      update_worker_metrics st;
      send st c
        (Wire.ok
           (stats_fields st
           @ [ ("exposition", J.Str (Telemetry.Metrics.expose ())) ]))
  | Wire.Shutdown ->
      send st c (Wire.ok [ ("draining", J.Bool true) ]);
      st.draining <- true
  | Wire.Submit { request; await; deadline_s } -> (
      if st.draining then send st c (Wire.error ~kind:"draining" "draining")
      else
        let depth = Session.Manager.queue_depth st.manager in
        (* request id minted at admission: every telemetry event, ledger
           record and wire response of this run carries it *)
        let rid = Printf.sprintf "r%d-%d" (Unix.getpid ()) st.rid_seq in
        st.rid_seq <- st.rid_seq + 1;
        (* the admission-time queue depth rides into the run's ledger
           record, so the dashboard can plot load against outcomes *)
        let request =
          {
            request with
            Session.request_id = Some rid;
            extra_metrics = [ ("serve.queue_depth", float_of_int depth) ];
          }
        in
        match Session.Manager.submit ?deadline_s st.manager request with
        | Error `Backpressure ->
            send st c (Wire.error ~kind:"backpressure" "queue full")
        | Ok id ->
            Telemetry.Metrics.incr m_admitted 1;
            (* the admission point anchors the request's queue-wait
               interval in the daemon trace *)
            if Telemetry.enabled () then
              Telemetry.point "serve.admit"
                ~fields:
                  [
                    ("request", Telemetry.str rid);
                    ("session", Telemetry.str (string_of_int id));
                    ("queue_depth", Telemetry.str (string_of_int depth));
                  ];
            if await then st.waiters <- (c.fd, id) :: st.waiters
            else
              send st c
                (Wire.ok [ ("id", J.Int id); ("request", J.Str rid) ]))
  | Wire.Status id ->
      send st c (status_response id (Session.Manager.status st.manager id))
  | Wire.Cancel id ->
      send st c
        (Wire.ok [ ("cancelled", J.Bool (Session.Manager.cancel st.manager id)) ])
  | Wire.Await id -> (
      match Session.Manager.status st.manager id with
      | Some (status, _) when not (settled status) ->
          st.waiters <- (c.fd, id) :: st.waiters
      | found -> send st c (status_response id found))

let handle_line st c line =
  if String.trim line <> "" then
    match J.of_string line with
    | exception J.Parse_error msg ->
        reject st c ~kind:"bad_frame" ("bad json: " ^ msg)
    | j -> (
        match Wire.command_of_json ~defaults:st.defaults j with
        | Error msg -> send st c (Wire.error msg)
        | Ok cmd -> handle_command st c cmd)

(* ---------- the HTTP scrape endpoint ---------- *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let healthz_json st =
  let b = Telemetry.Buildinfo.current () in
  J.Obj
    [
      ("status", J.Str (if st.draining then "draining" else "ok"));
      ("queue_depth", J.Int (Session.Manager.queue_depth st.manager));
      ("reaped", J.Int (Session.Manager.reaped st.manager));
      ( "build",
        J.Obj
          [
            ("version", J.Str b.Telemetry.Buildinfo.code_version);
            ( "git",
              match b.Telemetry.Buildinfo.git with
              | Some g -> J.Str g
              | None -> J.Null );
            ("ocaml", J.Str b.Telemetry.Buildinfo.ocaml);
            ("runtime_lens", J.Bool (Telemetry.Runtime.active ()));
          ] );
      ( "workers",
        J.List (List.map worker_json (Session.Manager.workers st.manager)) );
    ]

(* One request per connection: answer the request line, flush, hang up.
   Headers after the first line are irrelevant to a scrape and ignored. *)
let handle_http st c line =
  let resp =
    match String.split_on_char ' ' (String.trim line) with
    | "GET" :: path :: _ -> (
        match path with
        | "/metrics" ->
            update_worker_metrics st;
            http_response ~status:"200 OK"
              ~content_type:"text/plain; version=0.0.4"
              (Telemetry.Metrics.expose ())
        | "/healthz" ->
            http_response ~status:"200 OK" ~content_type:"application/json"
              (J.to_string (healthz_json st) ^ "\n")
        | _ ->
            http_response ~status:"404 Not Found" ~content_type:"text/plain"
              "not found\n")
    | _ ->
        http_response ~status:"400 Bad Request" ~content_type:"text/plain"
          "bad request\n"
  in
  send st c resp;
  if List.exists (fun c' -> c'.fd == c.fd) st.clients then
    c.close_after_flush <- true

(* drain complete lines from the client's buffer *)
let rec process_buffer st c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> ()
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      (match c.proto with
      | Http ->
          (* the request line is all a scrape needs; the response marks
             the connection close-after-flush, ending processing here *)
          if not c.close_after_flush then handle_http st c line
      | Jsonl ->
          if String.length line > st.config.max_frame then
            reject st c ~kind:"oversized"
              (Printf.sprintf "frame exceeds %d bytes" st.config.max_frame)
          else handle_line st c line);
      if
        List.exists (fun c' -> c'.fd == c.fd) st.clients
        && not c.close_after_flush
      then process_buffer st c

let read_client st c =
  let bytes = Bytes.create 4096 in
  match
    Synth.Fault.probe "wire.read";
    Unix.read c.fd bytes 0 4096
  with
  | exception Synth.Fault.Injected _ -> drop_client st c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* spurious wakeup on a non-blocking fd; not a reason to hang up *)
      ()
  | exception Unix.Unix_error _ -> drop_client st c
  | 0 ->
      (* EOF: half-open with a partial frame buffered means the peer
         died mid-request — diagnose it on the still-open write side *)
      if Buffer.length c.buf > 0 then begin
        Buffer.clear c.buf;
        reject st c ~kind:"torn_frame" "eof inside a frame"
      end
      else drop_client st c
  | n ->
      c.last_active <- Unix.gettimeofday ();
      Buffer.add_subbytes c.buf bytes 0 n;
      if
        Buffer.length c.buf > st.config.max_frame
        && not (String.contains (Buffer.contents c.buf) '\n')
      then begin
        Buffer.clear c.buf;
        reject st c ~kind:"oversized"
          (Printf.sprintf "frame exceeds %d bytes" st.config.max_frame)
      end
      else process_buffer st c

(* Each waiter's status is read once; the waiter list is settled before
   any send, since a send that overflows drops its client's waiters. *)
let answer_waiters st =
  let ready, waiting =
    List.partition_map
      (fun (fd, id) ->
        match Session.Manager.status st.manager id with
        | Some (status, _) when not (settled status) -> Either.Right (fd, id)
        | found -> Either.Left (fd, id, found))
      st.waiters
  in
  st.waiters <- waiting;
  List.iter
    (fun (fd, id, found) ->
      match List.find_opt (fun c -> c.fd == fd) st.clients with
      | None -> ()
      | Some c -> send st c (status_response id found))
    ready

(* One readable wakeup covers every settle since the last, because
   [answer_waiters] rescans all waiters: empty the pipe and move on. *)
let drain_wake st =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read st.wake b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Idle and half-open connections are reaped so abandoned peers cannot
   accumulate; a client with a registered waiter is legitimately silent
   (its session is still running) and exempt. *)
let reap_idle st =
  if st.config.idle_timeout > 0.0 then begin
    let now = Unix.gettimeofday () in
    let stale =
      List.filter
        (fun c ->
          now -. c.last_active > st.config.idle_timeout
          && not (List.exists (fun (fd, _) -> fd == c.fd) st.waiters))
        st.clients
    in
    List.iter (drop_client st) stale
  end

let accept_clients st ~proto lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      st.clients <-
        {
          fd;
          proto;
          buf = Buffer.create 256;
          out = Buffer.create 256;
          close_after_flush = false;
          last_active = Unix.gettimeofday ();
        }
        :: st.clients

(* Stops control-socket admission only; the HTTP scrape listener keeps
   answering during the drain so operators can watch it finish. *)
let stop_accepting st =
  match st.listen_fd with
  | None -> ()
  | Some lfd ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      st.listen_fd <- None

let stop_http st =
  match st.http_fd with
  | None -> ()
  | Some hfd ->
      (try Unix.close hfd with Unix.Unix_error _ -> ());
      st.http_fd <- None

let loop st =
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () ->
      let chores_due = ref 0.0 in
      let rec go () =
        if Atomic.get stop then st.draining <- true;
        if st.draining then stop_accepting st;
        let rfds =
          st.wake
          :: (match st.listen_fd with Some fd -> [ fd ] | None -> [])
          @ (match st.http_fd with Some fd -> [ fd ] | None -> [])
          @ List.map (fun c -> c.fd) st.clients
        in
        let wfds =
          List.filter_map
            (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
            st.clients
        in
        let readable, writable =
          match
            Unix.select rfds wfds []
              (Float.max 0.0 (!chores_due -. Unix.gettimeofday ()))
          with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        List.iter
          (fun fd ->
            if fd = st.wake then drain_wake st
            else if Some fd = st.listen_fd then accept_clients st ~proto:Jsonl fd
            else if Some fd = st.http_fd then accept_clients st ~proto:Http fd
            else
              match List.find_opt (fun c -> c.fd == fd) st.clients with
              | Some c -> read_client st c
              | None -> ())
          readable;
        let now = Unix.gettimeofday () in
        let chores = now >= !chores_due in
        if chores then begin
          chores_due := now +. tick;
          Session.Manager.tend st.manager;
          (* throttled runtime-lens poll: keeps GC/domain telemetry
             flowing even when no request traffic is driving the tee *)
          Telemetry.Runtime.tick ()
        end;
        answer_waiters st;
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) st.clients with
            | Some c -> flush_client st c
            | None -> ())
          writable;
        (* answers produced this tick flush opportunistically, without
           waiting for the next select round *)
        List.iter
          (fun c -> if Buffer.length c.out > 0 then flush_client st c)
          st.clients;
        if chores then reap_idle st;
        if
          st.draining
          && (not (Session.Manager.busy st.manager))
          && st.waiters = []
          && List.for_all (fun c -> Buffer.length c.out = 0) st.clients
        then ()
        else go ()
      in
      go ())

(* ---------- crash-safe startup ---------- *)

let pidfile config = config.socket ^ ".pid"

(* Probe an existing socket with a short-deadline ping.  Answering means
   a live daemon owns it — refuse to start.  Connection refused or a
   silent peer means the socket is a leftover from a killed process and
   is safe to take over. *)
let socket_alive path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error _ -> false
      | () -> (
          match
            ignore (Unix.write_substring fd "{\"op\":\"ping\"}\n" 0 14);
            Unix.select [ fd ] [] [] 1.0
          with
          | exception Unix.Unix_error _ -> false
          | [], _, _ -> false
          | _ -> (
              let b = Bytes.create 256 in
              match Unix.read fd b 0 256 with
              | exception Unix.Unix_error _ -> false
              | 0 -> false
              | _ -> true)))

let take_over_socket config =
  if Sys.file_exists config.socket then
    if socket_alive config.socket then
      failwith
        (Printf.sprintf "%s: a serve daemon is already listening"
           config.socket)
    else begin
      log "removing stale socket %s" config.socket;
      (try Unix.unlink config.socket with Unix.Unix_error _ -> ())
    end;
  if Sys.file_exists (pidfile config) then
    try Unix.unlink (pidfile config) with Unix.Unix_error _ -> ()

(* Recover what a killed predecessor left behind: orphaned cache temp
   files, a torn ledger tail, and in-flight journal entries that become
   first-class "crash" records.  Quiet when there is nothing to do. *)
let scavenge_state config =
  if config.cache then begin
    let dir =
      match config.cache_dir with Some d -> d | None -> Cache.default_dir ()
    in
    let swept = Cache.scavenge_once ~dir in
    if swept > 0 then log "scavenged %d orphaned cache file(s)" swept
  end;
  if not config.no_ledger then begin
    let dir =
      match config.ledger_dir with
      | Some d -> d
      | None -> Telemetry.Ledger.default_dir ()
    in
    match Telemetry.Ledger.scavenge ~dir with
    | recovered, repaired ->
        if repaired then log "repaired torn ledger tail";
        if recovered > 0 then
          log "recorded %d in-flight run(s) from a crashed daemon" recovered
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
  end

let write_pidfile config =
  try
    let oc = open_out (pidfile config) in
    output_string oc (string_of_int (Unix.getpid ()));
    close_out oc
  with Sys_error _ -> ()

let run config =
  Synth.Fault.init_from_env ();
  Durable.mkdir_p (Filename.dirname config.socket);
  take_over_socket config;
  scavenge_state config;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind lfd (Unix.ADDR_UNIX config.socket)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "cannot bind %s: %s" config.socket
          (Unix.error_message e)));
  Unix.listen lfd 16;
  Unix.set_nonblock lfd;
  write_pidfile config;
  let defaults =
    {
      (Session.default_request
         (Session.Synth
            { prop = ""; weights = None; portfolio = false; jobs = 4 }))
      with
      Session.cache = config.cache;
      cache_dir = config.cache_dir;
      no_ledger = config.no_ledger;
      ledger_dir = config.ledger_dir;
      subcommand = "serve";
    }
  in
  (* the flight recorder is always armed in serve mode: rings are cheap,
     and a reaped worker's postmortem is only useful if the events were
     being kept before the stall *)
  let flight_dir =
    match config.flight_dir with
    | Some d -> d
    | None ->
        let d = Filename.dirname config.socket in
        if d = "" then "." else d
  in
  Telemetry.Flight.enable ~capacity:config.flight_capacity ~dir:flight_dir ();
  (* the runtime lens is process-wide for the daemon's lifetime: gc_* and
     domain_util series on /metrics, runtime.* points in the trace and
     the flight ring, request-correlated via worker ring beacons *)
  if config.runtime_lens then Telemetry.Runtime.start ();
  let wake, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake;
  Unix.set_nonblock wake_w;
  let manager =
    Session.Manager.create ~workers:config.workers ~max_queue:config.max_queue
      ~grace:config.grace
      ~on_settle:(fun () ->
        (* a full pipe already holds a pending wakeup *)
        try ignore (Unix.single_write_substring wake_w "!" 0 1)
        with Unix.Unix_error _ -> ())
      ~on_reap:(fun ~worker ~request_id ->
        let fields =
          ("worker", Telemetry.str (string_of_int worker))
          ::
          (match request_id with
          | Some r -> [ ("request", Telemetry.str r) ]
          | None -> [])
        in
        (* drain the runtime ring first so the postmortem tail carries
           the GC story leading up to the stall, not just app events *)
        Telemetry.Runtime.poll ~force:true ();
        match Telemetry.Flight.dump ~fields ~reason:"reap" () with
        | Some path -> log "worker %d reaped; postmortem %s" worker path
        | None -> ())
      ()
  in
  let http_lfd =
    match config.metrics_port with
    | None -> None
    | Some port ->
        let hfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt hfd Unix.SO_REUSEADDR true;
        (try
           Unix.bind hfd
             (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with Unix.Unix_error (e, _, _) ->
           (try Unix.close hfd with Unix.Unix_error _ -> ());
           (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
           failwith
             (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port
                (Unix.error_message e)));
        Unix.listen hfd 16;
        Unix.set_nonblock hfd;
        Some hfd
  in
  let st =
    {
      config;
      manager;
      defaults;
      listen_fd = Some lfd;
      http_fd = http_lfd;
      clients = [];
      waiters = [];
      wake;
      rid_seq = 0;
      draining = false;
    }
  in
  let serve () =
    log "listening on %s (%d workers, queue %d)" config.socket config.workers
      config.max_queue;
    (match config.metrics_port with
    | Some port -> log "metrics on http://127.0.0.1:%d/metrics" port
    | None -> ());
    Fun.protect
      ~finally:(fun () ->
        stop_accepting st;
        stop_http st;
        List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
          st.clients;
        st.clients <- [];
        Session.Manager.drain manager;
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ wake; wake_w ];
        (* final lens drain runs while the daemon tee is still installed,
           then the lens is released with the listener *)
        Telemetry.Runtime.poll ~force:true ();
        Telemetry.Runtime.stop ();
        Telemetry.Flight.disable ();
        if Sys.file_exists config.socket then Unix.unlink config.socket;
        (try Unix.unlink (pidfile config) with Unix.Unix_error _ | Sys_error _ -> ());
        log "drained")
      (fun () -> loop st)
  in
  (* The daemon's telemetry sink is a tee assembled once for its
     lifetime: the flight recorder ring, an optional NDJSON trace of
     everything (requests stamped with their ids), and the optional
     periodic metrics exposition file.  Per-request observability is off
     for serve requests, so the global sink is never displaced. *)
  let trace_oc =
    match config.trace with
    | None -> None
    | Some path -> Some (open_out path)
  in
  let sinks =
    [ Telemetry.Flight.sink () ]
    @ (match trace_oc with
      | Some oc -> [ Telemetry.Sink.ndjson oc ]
      | None -> [])
    @
    match config.metrics with
    | None -> []
    | Some path -> [ Telemetry.Metrics.flush_sink (Durable.write path) ]
  in
  Fun.protect
    ~finally:(fun () ->
      match trace_oc with Some oc -> close_out oc | None -> ())
    (fun () -> Telemetry.with_sink (Telemetry.Sink.tee sinks) serve)
