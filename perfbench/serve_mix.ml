(* serve-mix: a sandboxed [fecsynth serve] daemon with 2 workers, driven
   by a closed loop of 2 clients in this process through
   [Client.connect]/[Client.rpc] (submit with await, one fresh connection
   per request, as [fecsynth submit] does).  Most requests repeat specs
   pre-warmed into the cache during set-up (hits); a fixed share are
   never-seen cheap specs (misses).  The wire, admission, tick-polled
   await, cache CRC and re-verification and the ledger append do most of
   the work.

   The daemon gets a private socket, cache and ledger under the run's
   directory, and is drained by SIGTERM at the end: an unclean drain
   fails the run. *)

open Common
module J = Telemetry.Json
module Client = Fec_session.Client

let fecsynth = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "fecsynth.exe" ]

(* A fixed-shape spec with coefficient entries pinned to 1, as (row, P
   column): pins change the cache key, not the difficulty class. *)
type spec = { k : int; c : int; md : int; pins : (int * int) list }

let prop s =
  String.concat ""
    (Synth_mix.prop s.k s.c s.md
    :: List.map (fun (r, col) -> Printf.sprintf " && G[0](%d, %d) = 1" r (s.k + col)) s.pins)

let spec k c md = { k; c; md; pins = [] }

(* No usage data exists for daemon traffic either, so the mix is
   stipulated: callers mostly resubmit specs the cache already holds, and
   a minority of requests are never-seen cheap specs.  The warm set is
   eight cheap shapes (each solves in well under 100 ms cold), among them
   the synth-mix specs (10,10,5) and (16,12,5); it is pre-warmed into the
   cache during set-up and hits draw from it uniformly. *)
let warm =
  [ spec 8 6 4; spec 11 5 4; spec 12 6 4; spec 16 7 4; spec 10 10 5; spec 16 12 5; spec 14 8 4; spec 20 8 4 ]

(* Never-seen specs are these cheap shapes (a few ms of solving) with one
   or two pinned entries.  A miss replays the stored counterexample pools
   of every earlier run with its data length and distance; spreading the
   misses over many bases keeps that replay, and the miss's cost, from
   growing much over a run. *)
let miss_bases = List.concat_map (fun k -> [ spec k 6 3; spec k 6 4 ]) [ 5; 6; 7; 9; 10; 13 ]

(* every block of [block] requests holds [misses_per_block] misses: a
   stipulated 15% minority of misses *)
let block = 20
let misses_per_block = 3
let clients = 2

(* ---------- the daemon ---------- *)

type daemon = { pid : int; dir : string; sock : string }

let env dir =
  let ours =
    [|
      "FEC_LEDGER_DIR=" ^ Filename.concat dir "ledger";
      "FEC_CACHE_DIR=" ^ Filename.concat dir "cache";
    |]
  in
  let keep v = not (String.starts_with ~prefix:"FEC_" v) in
  Array.append ours (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))

let rpc_once ?(timeout = 60.0) sock msg =
  let c = Client.connect ~timeout:5.0 sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.rpc ~timeout c msg)

let start dir =
  if not (Sys.file_exists fecsynth) then failwith (fecsynth ^ " is not built");
  let sock = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env fecsynth
      [| fecsynth; "serve"; "--socket"; sock; "--workers"; "2"; "--max-queue"; "16" |]
      (env dir) Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; dir; sock } in
  let deadline = now () +. 20.0 in
  let rec ready () =
    match rpc_once ~timeout:2.0 sock (J.Obj [ ("op", J.Str "ping") ]) with
    | _ -> ()
    | exception Failure _ when now () < deadline ->
        Unix.sleepf 0.01;
        ready ()
  in
  ready ();
  d

(* SIGTERM, then wait (bounded) for a clean exit whose log says drained. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        Error "daemon did not drain within 30 s"
    | _, Unix.WEXITED 0 ->
        let log = read_lines (Filename.concat d.dir "serve.log") in
        if List.exists (contains ~sub:"drained") log then Ok ()
        else Error "daemon exited without a drained log line"
    | _, _ -> Error "daemon exited uncleanly"
  in
  wait ()

(* ---------- requests ---------- *)

type sample = {
  miss : bool;  (** a never-seen spec *)
  spec : spec;
  connect_s : float;
  rpc_s : float;
  total_s : float;
  reply : (J.t, string) result;
}

let submit_msg s = J.Obj [ ("op", J.Str "submit"); ("spec", J.Str (prop s)); ("await", J.Bool true) ]

let submit ~sock ~req ~miss s =
  let t0 = now () in
  Span.span ~req "serve.request" (fun parent ->
      match
        Span.span ~parent ~req "client.connect" (fun _ -> timed (fun () -> Client.connect ~timeout:5.0 sock))
      with
      | exception Failure e -> { miss; spec = s; connect_s = 0.0; rpc_s = 0.0; total_s = now () -. t0; reply = Error e }
      | c, connect_s ->
          let reply, rpc_s =
            timed (fun () ->
                match Span.span ~parent ~req "client.rpc" (fun _ -> Client.rpc ~timeout:60.0 c (submit_msg s)) with
                | j -> Ok j
                | exception Failure e -> Error e)
          in
          Client.close c;
          { miss; spec = s; connect_s; rpc_s; total_s = now () -. t0; reply })

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

(* the served result object, when the daemon answered "done" *)
let result_of = function
  | Ok j when member [ "session"; "state" ] j = Some (J.Str "done") -> member [ "session"; "result" ] j
  | _ -> None

let served_code r =
  match member [ "codes" ] r with
  | Some (J.List [ c ]) -> (
      match member [ "matrix" ] c with
      | Some (J.Str m) -> ( try Some (Hamming.Code.of_string m) with _ -> None)
      | _ -> None)
  | _ -> None

(* Oracle: the generator has the spec's shape, its pins, and its distance. *)
let check s code =
  match Oracle.check_generator ~data_len:s.k ~check_len:s.c ~md:s.md code with
  | Error _ as e -> e
  | Ok () ->
      let g = Hamming.Code.generator code in
      if List.for_all (fun (r, col) -> Gf2.Matrix.get g r (s.k + col)) s.pins then Ok ()
      else Error "pinned entry not set"

(* ---------- seeded draw ---------- *)

(* An endless seeded request stream: blocks of [block] requests holding
   [misses_per_block] never-seen specs at seeded positions, their bases
   taken in turn from a seeded order; hits draw uniformly from the warm
   set. *)
let draw seed =
  let rng = Random.State.make [| seed; 17 |] in
  let seen = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace seen (prop s) ()) warm;
  let warm = Array.of_list warm and bases = Array.of_list miss_bases in
  let rec fresh b =
    let pin () = (Random.State.int rng b.k, Random.State.int rng b.c) in
    let pins = List.sort_uniq compare (List.init (1 + Random.State.int rng 2) (fun _ -> pin ())) in
    let s = { b with pins } in
    if Hashtbl.mem seen (prop s) then fresh b
    else begin
      Hashtbl.replace seen (prop s) ();
      s
    end
  in
  shuffle rng bases;
  let turn = ref 0 in
  let next_base () =
    incr turn;
    bases.(!turn mod Array.length bases)
  in
  let pending = Queue.create () in
  let refill () =
    let slots = Array.init block (fun i -> i < misses_per_block) in
    shuffle rng slots;
    Array.iter
      (fun miss ->
        Queue.push
          (if miss then (true, fresh (next_base ()))
           else (false, warm.(Random.State.int rng (Array.length warm))))
          pending)
      slots
  in
  let lock = Mutex.create () in
  fun () ->
    Mutex.protect lock (fun () ->
        if Queue.is_empty pending then refill ();
        Queue.pop pending)

(* ---------- the manager's queue wait ---------- *)

(* Queue waits the manager stamped into the daemon's ledger records
   ([serve.queue_wait_s]), in seconds, skipping the [skip] oldest records
   (the set-up's pre-warm requests). *)
let queue_waits d ~skip =
  match Telemetry.Ledger.load ~dir:(Filename.concat d.dir "ledger") with
  | Error _ -> []
  | Ok l ->
      List.filteri (fun i _ -> i >= skip) l.Telemetry.Ledger.entries
      |> List.filter_map (fun e -> List.assoc_opt "serve.queue_wait_s" e.Telemetry.Ledger.metrics)

(* ---------- the pass ---------- *)

let prewarm d ~wrong =
  List.iter
    (fun s ->
      let r = submit ~sock:d.sock ~req:0 ~miss:false s in
      match Option.bind (result_of r.reply) served_code with
      | Some code -> (
          match check s code with Ok () -> () | Error e -> wrong := ("prewarm " ^ prop s ^ ": " ^ e) :: !wrong)
      | None -> wrong := ("prewarm failed: " ^ prop s) :: !wrong)
    warm

(* Set-up three times (daemon start + cache pre-warm), keeping the last
   daemon; the first two are drained and their sandboxes removed. *)
let setup ~dir ~wrong =
  let rec go rep acc =
    let sub = Filename.concat dir (Printf.sprintf "s%d" rep) in
    mkdir_p sub;
    let d, dt = timed (fun () -> let d = start sub in prewarm d ~wrong; d) in
    if rep = 3 then (d, median (dt :: acc))
    else begin
      (match stop d with Ok () -> () | Error e -> wrong := ("set-up daemon: " ^ e) :: !wrong);
      rm_rf sub;
      go (rep + 1) (dt :: acc)
    end
  in
  go 1 []

let measure ?(probe = false) ~dir ~seed ~seconds ~wrong () =
  let d, setup_s = setup ~dir ~wrong in
  let next = draw seed in
  let seconds = if probe then 3.0 else seconds in
  let samples = ref [] and req = ref 0 and lock = Mutex.create () in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let client () =
    while now () < t_end do
      let miss, s = next () in
      let id = Mutex.protect lock (fun () -> incr req; !req) in
      let r = submit ~sock:d.sock ~req:id ~miss s in
      Mutex.protect lock (fun () -> samples := r :: !samples)
    done
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  let elapsed = now () -. t0 in
  let rss = self_hwm_mb () +. vm_hwm_mb (string_of_int d.pid) in
  (match stop d with Ok () -> () | Error e -> wrong := e :: !wrong);
  let waits = queue_waits d ~skip:(List.length warm) in
  let samples = List.rev !samples in
  (* classify every reply; wrong answers go to the oracle list *)
  let refused = ref 0 and failed = ref 0 and served = ref [] in
  List.iter
    (fun r ->
      match result_of r.reply with
      | Some res -> (
          match served_code res with
          | Some code -> (
              served := (r, res, code) :: !served;
              match check r.spec code with
              | Ok () -> ()
              | Error e -> wrong := (prop r.spec ^ ": " ^ e) :: !wrong)
          | None -> incr failed)
      | None ->
          (match r.reply with
          | Ok j when member [ "kind" ] j = Some (J.Str "backpressure") -> incr refused
          | Ok _ | Error _ -> ());
          incr failed)
    samples;
  let served = List.rev !served in
  let n = List.length samples in
  let ok = List.filter (fun r -> result_of r.reply <> None) samples in
  let lat = List.map (fun r -> r.total_s) ok in
  (* the warm set as served, with its distance targets *)
  let warm_codes =
    List.filter_map
      (fun s -> List.find_map (fun (r, _, code) -> if r.spec = s then Some (s.md, code) else None) served)
      warm
  in
  let e2e =
    [
      metric "setup_s" "s" setup_s ~samples:3;
      metric "requests_per_s" "1/s" (float_of_int (List.length ok) /. elapsed) ~samples:n;
      ms_p "latency_p50_ms" 0.5 lat;
      ms_p "latency_p95_ms" 0.95 lat;
      metric "peak_rss_mb" "MiB" rss;
    ]
  in
  let wall_s res = match member [ "wall_s" ] res with Some w -> Option.value (J.to_float w) ~default:0.0 | None -> 0.0 in
  let hit res = member [ "cache_hit" ] res = Some (J.Bool true) in
  let layers =
    if not !Span.on then []
    else
      let walls f = List.filter_map (fun (r, res, _) -> if f r res then Some (wall_s res) else None) served in
      let hits = walls (fun _ res -> hit res) in
      [
        ms_p "client.rpc_ms_p50" 0.5 (Span.durations "client.rpc");
        ms_p "client.rpc_ms_p95" 0.95 (Span.durations "client.rpc");
        ms_p "client.connect_ms_p50" 0.5 (Span.durations "client.connect");
        ms_p "server.overhead_ms_p50" 0.5 (List.map (fun (r, res, _) -> r.rpc_s -. wall_s res) served);
        ms_p "server.overhead_ms_p95" 0.95 (List.map (fun (r, res, _) -> r.rpc_s -. wall_s res) served);
        ms_p "manager.queue_wait_ms_p95" 0.95 waits;
        metric "manager.refused" "count" (float_of_int !refused) ~samples:n;
        ms_p "session.hit_ms_p50" 0.5 hits;
        ms_p "session.hit_ms_p95" 0.95 hits;
        ms_p "session.miss_ms_p50" 0.5 (walls (fun r res -> r.miss && not (hit res)));
        metric "cache.hit_ratio" "ratio"
          (float_of_int (List.length hits) /. float_of_int (max 1 (List.length served)))
          ~samples:(List.length served);
      ]
  in
  rm_rf d.dir;
  ({ e2e; layers; headline = float_of_int (List.length ok) /. elapsed; attempted = n; failed = !failed }, warm_codes)
