(* Wire-protocol torture tests for the serve daemon: an in-process
   server on a temp socket is fed garbage bytes, oversized frames and
   torn half-frames and must answer each with one typed error, close
   the offending connection, and keep serving everyone else.  Also
   covers the deadline path (a fault-injected stalled worker must turn
   into a [timeout] reply, not a hang), prompt answers to awaited
   submits, the bounded window of settled sessions, and the retrying
   client (rides out a daemon that binds its socket late). *)

module Srv = Fec_session.Server
module Client = Fec_session.Client
module J = Telemetry.Json

let tmpdir () =
  let path = Filename.temp_file "fecwire" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let config ?(grace = 0.5) ?(max_frame = 1 lsl 20) ?cache_dir ~dir () =
  {
    (Srv.default_config ~socket:(Filename.concat dir "s.sock")) with
    Srv.workers = 1;
    max_queue = 4;
    grace;
    max_frame;
    idle_timeout = 0.0;
    cache = cache_dir <> None;
    cache_dir;
    no_ledger = true;
  }

let start cfg = Domain.spawn (fun () -> try Srv.run cfg with _ -> ())

let wait_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "server did not come up"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 200

let shutdown socket =
  let t = Client.connect socket in
  ignore (Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "shutdown") ]));
  Client.close t

let with_server ?grace ?max_frame ?cache_dir f =
  let dir = tmpdir () in
  let cfg = config ?grace ?max_frame ?cache_dir ~dir () in
  let d = start cfg in
  wait_socket cfg.Srv.socket;
  Fun.protect
    ~finally:(fun () ->
      (try shutdown cfg.Srv.socket with _ -> ());
      Domain.join d)
    (fun () -> f cfg.Srv.socket)

(* ---------- raw-socket helpers ---------- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* one newline-terminated reply, bounded by a 5 s deadline *)
let recv_line fd =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let rec go () =
    match String.index_opt (Buffer.contents acc) '\n' with
    | Some i -> String.sub (Buffer.contents acc) 0 i
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then Alcotest.fail "no reply within 5s"
        else begin
          (match Unix.select [ fd ] [] [] left with
          | [], _, _ -> Alcotest.fail "no reply within 5s"
          | _ -> (
              match Unix.read fd buf 0 4096 with
              | 0 -> Alcotest.fail "connection closed before any reply"
              | n -> Buffer.add_subbytes acc buf 0 n));
          go ()
        end
  in
  go ()

(* the server must close after a typed error: read eventually hits EOF *)
let expect_eof fd =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let buf = Bytes.create 4096 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then Alcotest.fail "connection not closed within 5s"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> Alcotest.fail "connection not closed within 5s"
      | _ -> ( match Unix.read fd buf 0 4096 with 0 -> () | _ -> go ())
  in
  go ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: expected %S in %S" what needle hay

let ping_ok socket =
  let t = Client.connect socket in
  let reply =
    Fun.protect
      ~finally:(fun () -> Client.close t)
      (fun () -> Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "ping") ]))
  in
  match J.member "pong" reply with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.failf "ping: bad reply %s" (J.to_string reply)

(* ---------- torture ---------- *)

let test_bad_frame () =
  with_server (fun socket ->
      let fd = raw_connect socket in
      send_raw fd "this is not json\n";
      let reply = recv_line fd in
      check_contains "bad frame" reply "\"ok\":false";
      check_contains "bad frame" reply "\"kind\":\"bad_frame\"";
      expect_eof fd;
      Unix.close fd;
      (* the daemon survived the hostile peer *)
      ping_ok socket)

let test_oversized_frame () =
  with_server ~max_frame:128 (fun socket ->
      let fd = raw_connect socket in
      send_raw fd (String.make 256 'a');
      let reply = recv_line fd in
      check_contains "oversized" reply "\"kind\":\"oversized\"";
      expect_eof fd;
      Unix.close fd;
      ping_ok socket)

let test_torn_frame () =
  with_server (fun socket ->
      let fd = raw_connect socket in
      send_raw fd "{\"op\":\"pi";
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let reply = recv_line fd in
      check_contains "torn" reply "\"kind\":\"torn_frame\"";
      expect_eof fd;
      Unix.close fd;
      ping_ok socket)

let test_bad_request_keeps_connection () =
  (* a well-formed frame carrying a bad request is an application error:
     the reply has no kind and the connection stays usable *)
  with_server (fun socket ->
      let fd = raw_connect socket in
      send_raw fd "{\"op\":\"submit\"}\n";
      let reply = recv_line fd in
      check_contains "bad request" reply "submit needs spec or optimize";
      if contains reply "\"kind\"" then
        Alcotest.failf "bad request should not carry a kind: %s" reply;
      send_raw fd "{\"op\":\"ping\"}\n";
      let reply = recv_line fd in
      check_contains "ping after error" reply "\"pong\":true";
      Unix.close fd)

(* ---------- deadlines ---------- *)

let test_deadline_timeout () =
  (* a worker stalled by fault injection must not hang an awaited
     submit: the deadline fires, the worker is reaped past grace, and
     the wire answers state=timeout long before the stall ends *)
  with_server ~grace:0.3 (fun socket ->
      let spec =
        match Synth.Fault.parse "seed=7,stall_ms=4000,sat.solve.stall=1.0:max=3"
        with
        | Ok s -> s
        | Error m -> Alcotest.failf "fault spec: %s" m
      in
      Synth.Fault.set_spec (Some spec);
      Fun.protect
        ~finally:(fun () -> Synth.Fault.set_spec None)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let fd = raw_connect socket in
          send_raw fd
            "{\"op\":\"submit\",\"await\":true,\"deadline_ms\":300,\"jobs\":1,\"spec\":\"len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) = 3 && md(G[0]) = 3\"}\n";
          let reply = recv_line fd in
          let wall = Unix.gettimeofday () -. t0 in
          Unix.close fd;
          check_contains "deadline" reply "\"state\":\"timeout\"";
          if wall >= 3.0 then
            Alcotest.failf
              "timeout reply took %.2fs — waited out the stall instead of \
               reaping"
              wall))

(* ---------- settle wakeup and retention ---------- *)

let small_spec = "len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) = 3 && md(G[0]) = 3"

let submit_await t =
  Client.rpc ~timeout:60.0 t
    (J.Obj
       [
         ("op", J.Str "submit"); ("await", J.Bool true); ("jobs", J.Int 1);
         ("spec", J.Str small_spec);
       ])

let test_awaited_hits_are_prompt () =
  (* an await is answered when its session settles, not on the loop's
     50 ms housekeeping tick: 20 cache hits in a row take a few ms each,
     where waiting for the tick would cost at least 1 s in total *)
  with_server ~cache_dir:(tmpdir ()) (fun socket ->
      let t = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          ignore (submit_await t);
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 20 do
            check_contains "awaited hit" (J.to_string (submit_await t)) "\"cache_hit\":true"
          done;
          let wall = Unix.gettimeofday () -. t0 in
          if wall >= 0.5 then
            Alcotest.failf "20 awaited cache hits took %.3fs (limit 0.5s)" wall))

let test_retention_window () =
  (* settled sessions stay queryable in a FIFO window of
     [Manager.retained]; older ones are forgotten, while stats keeps
     counting every admission *)
  let window = Fec_session.Session.Manager.retained in
  let n = window + 3 in
  with_server ~cache_dir:(tmpdir ()) (fun socket ->
      let t = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          let ids =
            List.init n (fun _ ->
                match Option.bind (J.member "id" (submit_await t)) J.to_int with
                | Some id -> id
                | None -> Alcotest.fail "awaited submit carries no id")
          in
          let status id =
            J.to_string (Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "status"); ("id", J.Int id) ]))
          in
          let nth i = List.nth ids i in
          check_contains "oldest forgotten" (status (nth 0)) "\"kind\":\"unknown_id\"";
          check_contains "last outside the window forgotten" (status (nth (n - window - 1)))
            "\"kind\":\"unknown_id\"";
          check_contains "first inside the window kept" (status (nth (n - window))) "\"state\":\"done\"";
          let newest = status (nth (n - 1)) in
          check_contains "newest kept" newest "\"state\":\"done\"";
          check_contains "newest keeps its request id" newest "\"request\":\"r";
          let stats = Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "stats") ]) in
          Alcotest.(check (option int)) "stats counts every admission" (Some n)
            (Option.bind (J.member "sessions" stats) J.to_int)))

(* ---------- observability ops ---------- *)

let test_stats_worker_detail () =
  (* the stats op must expose per-worker state detail, and submit must
     mint a request id returned on the wire *)
  with_server (fun socket ->
      let t = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          let reply =
            Client.rpc ~timeout:60.0 t
              (J.Obj
                 [
                   ("op", J.Str "submit"); ("await", J.Bool true);
                   ("jobs", J.Int 1);
                   ( "spec",
                     J.Str
                       "len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) = 3 && \
                        md(G[0]) = 3" );
                 ])
          in
          (match Option.bind (J.member "request" reply) J.to_string_opt with
          | Some rid when String.length rid > 1 && rid.[0] = 'r' -> ()
          | _ ->
              Alcotest.failf "awaited submit carries no request id: %s"
                (J.to_string reply));
          let stats =
            Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "stats") ])
          in
          (match J.member "queue_depth" stats with
          | Some (J.Int _) -> ()
          | _ -> Alcotest.fail "stats: missing queue_depth");
          match J.member "workers" stats with
          | Some (J.List (w :: _)) ->
              (match Option.bind (J.member "worker" w) J.to_int with
              | Some _ -> ()
              | None -> Alcotest.fail "worker row: missing index");
              (match Option.bind (J.member "state" w) J.to_string_opt with
              | Some ("idle" | "running" | "condemned") -> ()
              | s ->
                  Alcotest.failf "worker row: bad state %s"
                    (Option.value s ~default:"<none>"));
              (match Option.bind (J.member "since_s" w) J.to_float with
              | Some a when a >= 0.0 -> ()
              | _ -> Alcotest.fail "worker row: missing since_s")
          | _ -> Alcotest.failf "stats: no workers: %s" (J.to_string stats)))

let test_metrics_op_exposition () =
  (* the metrics op returns a Prometheus exposition that parses back and
     carries the per-worker labeled series *)
  with_server (fun socket ->
      let t = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          let m =
            Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "metrics") ])
          in
          let expo =
            match Option.bind (J.member "exposition" m) J.to_string_opt with
            | Some e -> e
            | None -> Alcotest.fail "metrics: no exposition"
          in
          let kvs =
            match Telemetry.Metrics.parse_exposition expo with
            | Ok kvs -> kvs
            | Error e -> Alcotest.failf "exposition does not parse: %s" e
          in
          (match List.assoc_opt "serve_metrics_scrapes" kvs with
          | Some (Telemetry.Metrics.Counter n) when n >= 1 -> ()
          | _ -> Alcotest.fail "serve_metrics_scrapes counter missing");
          let has_worker_series =
            List.exists
              (fun (k, _) ->
                contains k "serve_worker_busy{" && contains k "worker=")
              kvs
          in
          if not has_worker_series then
            Alcotest.fail "no serve_worker_busy{worker=...} series";
          (* a second scrape must be monotone on the scrape counter *)
          let m2 =
            Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "metrics") ])
          in
          let expo2 =
            Option.get
              (Option.bind (J.member "exposition" m2) J.to_string_opt)
          in
          match
            ( List.assoc_opt "serve_metrics_scrapes" kvs,
              Result.to_option (Telemetry.Metrics.parse_exposition expo2)
              |> Option.map (List.assoc_opt "serve_metrics_scrapes")
              |> Option.join )
          with
          | ( Some (Telemetry.Metrics.Counter a),
              Some (Telemetry.Metrics.Counter b) ) ->
              if b <= a then
                Alcotest.failf "scrape counter not monotone: %d then %d" a b
          | _ -> Alcotest.fail "scrape counter missing on second scrape"))

(* ---------- retrying client ---------- *)

let test_client_retry () =
  let dir = tmpdir () in
  let cfg = config ~dir () in
  (* bind the socket only after a delay: the first connects must fail *)
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.5;
        try Srv.run cfg with _ -> ())
  in
  let reply =
    Client.with_retries ~retries:10 ~connect_timeout:1.0
      ~socket:cfg.Srv.socket (fun t ->
        Client.rpc ~timeout:5.0 t (J.Obj [ ("op", J.Str "ping") ]))
  in
  (match J.member "pong" reply with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.failf "retry ping: bad reply %s" (J.to_string reply));
  shutdown cfg.Srv.socket;
  Domain.join d

let () =
  Alcotest.run "wire"
    [
      ( "torture",
        [
          Alcotest.test_case "garbage frame" `Quick test_bad_frame;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "torn frame" `Quick test_torn_frame;
          Alcotest.test_case "bad request keeps connection" `Quick
            test_bad_request_keeps_connection;
        ] );
      ( "deadlines",
        [ Alcotest.test_case "stalled worker times out" `Quick
            test_deadline_timeout ] );
      ( "settle",
        [
          Alcotest.test_case "awaited hits answered promptly" `Quick
            test_awaited_hits_are_prompt;
          Alcotest.test_case "settled sessions kept in a window" `Quick
            test_retention_window;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats carries per-worker detail" `Quick
            test_stats_worker_detail;
          Alcotest.test_case "metrics op exposition roundtrips" `Quick
            test_metrics_op_exposition;
        ] );
      ( "client",
        [ Alcotest.test_case "retries ride out late bind" `Quick
            test_client_retry ] );
    ]
