(* The session layer: everything one synthesis run needs, behind a typed
   request/response API.  The CLI and the serve daemon are both thin
   clients of [run_sync]; the behavioral contract (ledger outcome
   strings, exit codes, the JSON answer object, checkpoint discipline,
   resume validation messages) lives here and nowhere else. *)

module Report = Synth.Report
module J = Telemetry.Json

type job =
  | Synth of {
      prop : string;
      weights : int array option;
      portfolio : bool;
      jobs : int;
    }
  | Optimize of { data_len : int; md : int; check_lo : int; check_hi : int }

type request = {
  job : job;
  timeout : float;
  checkpoint : string option;
  resume : string option;
  cache : bool;
  cache_dir : string option;
  no_ledger : bool;
  ledger_dir : string option;
  subcommand : string;
  trace : string option;
  metrics : string option;
  progress : bool;
  runtime_lens : bool;  (* start the Runtime_events lens for this run *)
  extra_metrics : (string * float) list;
  request_id : string option;  (* wire correlation id, minted at admission *)
}

let default_request job =
  {
    job;
    timeout = 120.0;
    checkpoint = None;
    resume = None;
    cache = false;
    cache_dir = None;
    no_ledger = false;
    ledger_dir = None;
    subcommand = (match job with Synth _ -> "synth" | Optimize _ -> "optimize");
    trace = None;
    metrics = None;
    progress = false;
    runtime_lens = false;
    extra_metrics = [];
    request_id = None;
  }

type resumed = { cex_count : int; prior_iterations : int; start_check : int }

include Synth.Outcome

type result = {
  outcome : outcome;
  cache_hit : bool;
  interrupted : bool;
  resumed : resumed option;
  report : Synth.Portfolio.report option;
  wall_s : float;
  exit_code : int;
}

exception Invalid_request of string

(* ---------- exit codes, verdict and the answer object ---------- *)

let exit_unsat = 3
let exit_timeout = 4
let exit_partial = 5
let exit_interrupted = 130

(* An outcome, and whether the run was interrupted, decide the ledger
   outcome string and the exit code. *)
let verdict outcome ~interrupted =
  match outcome with
  | Codes _ | Optimized _ | Setbits _ | Weighted _ -> ("synthesized", 0)
  | Unsat _ -> ("unsat", exit_unsat)
  | (Partial _ | Timeout _) when interrupted -> ("interrupted", exit_interrupted)
  | Partial _ -> ("partial", exit_partial)
  | Timeout _ -> ("timeout", exit_timeout)

(* The stats an outcome carries, into the ledger record and the answer
   object; a set-bits walk's are summed over its steps. *)
let outcome_stats = function
  | Codes (_, s)
  | Optimized (_, s)
  | Partial { stats = s; _ }
  | Unsat { stats = s; _ }
  | Timeout { stats = s; _ } ->
      Some s
  | Setbits steps ->
      Some (Report.Stats.sum (List.map (fun s -> s.Synth.Optimize.step_stats) steps))
  | Weighted _ -> None

(* A code is its shape and its matrix: no reply pays for a distance or a
   descriptor. *)
let code_json code =
  J.Obj
    [
      ("block_len", J.Int (Hamming.Code.block_len code));
      ("data_len", J.Int (Hamming.Code.data_len code));
      ("matrix", J.Str (Hamming.Code.to_string code));
    ]

let codes_json codes = ("codes", J.List (List.map code_json codes))
let stats_json s = ("stats", Report.Stats.to_json s)

let result_fields r =
  let name, fields =
    match r.outcome with
    | Codes (codes, _) -> ("synthesized", [ codes_json codes ])
    | Optimized ({ Synth.Optimize.code; check_len; _ }, _) ->
        ("synthesized", [ ("check_len", J.Int check_len); codes_json [ code ] ])
    | Setbits steps ->
        ( "setbits_walk",
          [
            ( "steps",
              J.List
                (List.map
                   (fun (s : Synth.Optimize.step) ->
                     J.Obj
                       [
                         ("bound", J.Int s.bound);
                         ("achieved", J.Int s.achieved);
                         ("code", code_json s.generator);
                         stats_json s.step_stats;
                       ])
                   steps) );
          ] )
    | Weighted { mapping; sum_w; counts = t0, t1; codes = c0, c1; iterations; elapsed } ->
        ( "weighted",
          [
            ("mapping", J.Str (String.concat "" (Array.to_list (Array.map string_of_int mapping))));
            ("sum_w", J.Float sum_w);
            ("split", J.List [ J.Int t0; J.Int t1 ]);
            ("iterations", J.Int iterations);
            ("elapsed_s", J.Float elapsed);
            codes_json [ c0; c1 ];
          ] )
    | Partial { code; achieved; check_len; verified; _ } ->
        ( "partial",
          [ ("achieved_md", J.Int achieved); ("verified", J.Bool verified); codes_json [ code ] ]
          @ match check_len with Some c -> [ ("check_len", J.Int c) ] | None -> [] )
    | Unsat { reason; _ } -> ("unsat", [ ("reason", J.Str reason) ])
    | Timeout { reason; _ } -> ("timeout", [ ("reason", J.Str reason) ])
  in
  (("outcome", J.Str name) :: fields)
  @ Option.to_list (Option.map stats_json (outcome_stats r.outcome))
  @ [
      ("cache_hit", J.Bool r.cache_hit);
      ("interrupted", J.Bool r.interrupted);
      ("exit_code", J.Int r.exit_code);
      ("wall_s", J.Float r.wall_s);
    ]

(* ---------- the text answer ---------- *)

let answer_text (result : result) =
  let b = Buffer.create 256 in
  let intr = result.interrupted in
  let print_stats (s : Synth.Report.Stats.t) =
    Printf.bprintf b "iterations: %d, time: %.2f s\n" s.iterations s.elapsed
  in
  (match result.outcome with
  | Codes (codes, stats) ->
      List.iter
        (fun code ->
          Printf.bprintf b "synthesized (%d,%d) generator, md %d, %d set bits:\n%s\n"
            (Hamming.Code.block_len code) (Hamming.Code.data_len code)
            (Hamming.Distance.min_distance code) (Hamming.Code.set_bits code)
            (Hamming.Code.to_string code);
          Printf.bprintf b "descriptor: %s\n" (Fec_core.Registry.describe_code code))
        codes;
      print_stats stats
  | Optimized ({ code; check_len }, stats) ->
      Printf.bprintf b "minimal check length %d: (%d,%d) generator, md %d:\n%s\n"
        check_len (Hamming.Code.block_len code) (Hamming.Code.data_len code)
        (Hamming.Distance.min_distance code)
        (Hamming.Code.to_string code);
      print_stats stats
  | Setbits steps -> (
      List.iter
        (fun (s : Synth.Optimize.step) ->
          Printf.bprintf b "bound %d -> achieved %d (%d iterations, %.2f s)\n"
            s.bound s.achieved s.step_stats.iterations s.step_stats.elapsed)
        steps;
      match List.rev steps with
      | best :: _ ->
          Printf.bprintf b "\nbest generator (%d set bits):\n%s\n" best.achieved
            (Hamming.Code.to_string best.generator)
      | [] -> ())
  | Weighted w ->
      let t0, t1 = w.counts and c0, c1 = w.codes in
      Printf.bprintf b
        "mapping: %s (split %d/%d), sum_w = %.4f (proved optimal), %d iterations, %.2f s\n"
        (String.concat "" (Array.to_list (Array.map string_of_int w.mapping)))
        t0 t1 w.sum_w w.iterations w.elapsed;
      Printf.bprintf b "generator 0:\n%s\ngenerator 1:\n%s\n"
        (Hamming.Code.to_string c0) (Hamming.Code.to_string c1)
  | Partial { code; achieved; check_len; verified; stats } ->
      Printf.bprintf b "partial: %s %s\n"
        (if intr then "interrupted" else "budget expired")
        (match (check_len, verified) with
        | Some c, _ -> Printf.sprintf "at check length %d" c
        | None, true -> "before the walk finished"
        | None, false -> "before verification finished");
      Printf.bprintf b "%s: (%d,%d) generator, achieved md %d, %d set bits:\n%s\n"
        (if verified then "best verified generator" else "best candidate so far")
        (Hamming.Code.block_len code) (Hamming.Code.data_len code) achieved
        (Hamming.Code.set_bits code) (Hamming.Code.to_string code);
      print_stats stats
  | Unsat { reason; _ } -> Printf.bprintf b "unsatisfiable: %s\n" reason
  | Timeout { reason; _ } ->
      Printf.bprintf b "%s: %s\n" (if intr then "interrupted" else "timeout") reason);
  Buffer.contents b

(* ---------- interrupts ---------- *)

(* The first Ctrl-C requests a cooperative wind-down: the solvers poll
   the flag, the run returns its partial outcome, traces and checkpoints
   are flushed, and the process exits 130.  A second Ctrl-C aborts at
   once. *)
let sigint_requested = Atomic.make false

let install_sigint () =
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if Atomic.get sigint_requested then exit exit_interrupted
         else Atomic.set sigint_requested true))

let interrupted () = Atomic.get sigint_requested

(* ---------- helpers ---------- *)

let load_prop spec =
  if String.length spec > 0 && spec.[0] = '@' then
    Spec.Parse.prop_file
      (In_channel.with_open_bin
         (String.sub spec 1 (String.length spec - 1))
         In_channel.input_all)
  else Spec.Parse.prop spec

let invalid token msg =
  Recorder.finish token ~outcome:"error" ~exit_code:124 ();
  raise (Invalid_request msg)

(* Expected failures (parse errors, missing files, corrupt checkpoints)
   settle the ledger record as error/2 — matching the CLI's top-level
   handlers, which render the message — then re-raise; a task outside
   the supported fragment settles it as error/124.  Anything unexpected
   propagates with the record pending, and the at_exit hook records it
   as a crash. *)
let guarded token f =
  try f () with
  | Synth.Driver.Unsupported msg -> invalid token ("no solution: " ^ msg)
  | (Failure _ | Sys_error _ | Spec.Parse.Error _ | Invalid_argument _) as e ->
      Recorder.finish token ~outcome:"error" ~exit_code:2 ();
      raise e

let hit_stats (e : Cache.entry) =
  { Report.Stats.zero with iterations = e.iterations; elapsed = e.elapsed }

(* A checkpoint writer carrying resumed state forward, feeding every
   newly learned counterexample, the running iteration count and, when
   [bound] is given, the check length the walk has reached. *)
let make_writer ~checkpoint (s : Synth.Driver.single) ~initial ~resumed_iters
    ~bound =
  match checkpoint with
  | None -> None
  | Some path ->
      let w =
        Synth.Checkpoint.Writer.create ~path ~data_len:s.data_len
          ~check_len:s.check_lo ~min_distance:s.md ()
      in
      List.iter (Synth.Checkpoint.Writer.record_cex w) initial;
      Synth.Checkpoint.Writer.record_iterations w resumed_iters;
      Option.iter (Synth.Checkpoint.Writer.record_bound w) bound;
      Some w

(* A checkpoint's bound says every check length from its problem's
   check length up to the bound was refuted for the bare distance
   problem.  Only a walk without pins or a len_1 bound proves that: a
   fixed task tries one length, and a pinned walk skips the lengths too
   short for its pins without refuting them. *)
let proves_bound = function
  | Synth.Driver.Min_check_len { fixed_bits = []; len1_max = None; _ } -> true
  | _ -> false

(* Where a resumed task starts: a walk skips the lengths its checkpoint
   refuted, when they cover the bottom of the walk's own range (pins and
   a len_1 bound only shrink the feasible set, so an unpinned refutation
   holds for them too).  A fixed task, or a checkpoint whose problem
   starts above the walk's check_lo, starts at check_lo. *)
let resume_start task (s : Synth.Driver.single) (t : Synth.Checkpoint.t) =
  match (task, t.opt_bound) with
  | Synth.Driver.Min_check_len _, Some b when t.check_len <= s.check_lo ->
      max s.check_lo b
  | _ -> s.check_lo

let writer_on_cex writer iters =
  match writer with
  | None -> fun _ -> ()
  | Some w ->
      fun cex ->
        Synth.Checkpoint.Writer.record_cex w cex;
        Synth.Checkpoint.Writer.record_iterations w
          (1 + Atomic.fetch_and_add iters 1)

(* ---------- cache plumbing ---------- *)

(* Cache participation is limited to what an entry can faithfully
   answer: a fresh (non-resumed) run of a task with exactly one proven
   generator.  Everything else runs cold but may still donate its
   counterexample pool for warm starts. *)
type cache_ctx = {
  c_dir : string;
  c_key : string;
  c_digest : string;
}

let cache_ctx request task ~weights =
  match (request.cache, request.resume) with
  | false, _ | _, Some _ -> None
  | true, None -> (
      match task with
      | Synth.Driver.Fixed _ | Synth.Driver.Min_check_len _ ->
          let key, digest = Key.of_task ?weights task in
          let c_dir =
            match request.cache_dir with
            | Some d -> d
            | None -> Cache.default_dir ()
          in
          ignore (Cache.scavenge_once ~dir:c_dir);
          Some { c_dir; c_key = key; c_digest = digest }
      | _ -> None)

let cache_lookup ctx =
  match ctx with
  | None -> None
  | Some c -> Cache.lookup ~dir:c.c_dir ~digest:c.c_digest ~key:c.c_key

let cache_store ctx ~code ~md ~iterations ~elapsed =
  match ctx with
  | None -> ()
  | Some c ->
      Cache.store ~dir:c.c_dir ~digest:c.c_digest
        {
          Cache.key = c.c_key;
          created = Telemetry.Ledger.utc_timestamp ();
          code;
          check_len = Hamming.Code.block_len code - Hamming.Code.data_len code;
          md;
          verified_md = Hamming.Distance.min_distance code;
          iterations;
          elapsed;
        }

let cache_save_pool ctx ~data_len ~check_len ~md cexes =
  match ctx with
  | None -> ()
  | Some c ->
      Cache.save_pool ~dir:c.c_dir ~digest:c.c_digest ~data_len ~check_len ~md
        cexes

(* When this run asked for the runtime lens (--runtime-lens), its GC
   story lands in the ledger as trend metrics — [runs trend --metric
   gc.major_pause_p99] works across runs.  Only the lens-owning one-shot
   path reports: in the daemon the lens is process-wide and accumulates
   across requests, so per-request GC attribution belongs to the
   request-stamped trace points, not the ledger. *)
let runtime_ledger_metrics request =
  if not request.runtime_lens then []
  else begin
    Telemetry.Runtime.poll ~force:true ();
    match Telemetry.Runtime.snapshot () with
    | None -> []
    | Some s ->
        let q h p =
          match Telemetry.Metrics.Hist.quantile h p with
          | Some us -> float_of_int us /. 1e6
          | None -> 0.0
        in
        [
          ("gc.minor_pause_p99", q s.Telemetry.Runtime.minor_pauses_us 0.99);
          ("gc.major_pause_p99", q s.Telemetry.Runtime.major_pauses_us 0.99);
          ( "gc.pause_s_total",
            s.Telemetry.Runtime.minor_s +. s.Telemetry.Runtime.major_s );
          ( "gc.allocated_mwords",
            float_of_int s.Telemetry.Runtime.alloc_words /. 1e6 );
          ("gc.major_collections", float_of_int s.Telemetry.Runtime.major_n);
        ]
  end

(* when the cache is in play, hit/miss becomes a ledger trend metric;
   caller-stamped facts (the serve daemon's admission-time queue depth)
   ride along on every finish path, cache hits included *)
let cache_metric request ctx hit metrics =
  request.extra_metrics
  @ runtime_ledger_metrics request
  @
  match ctx with
  | None -> metrics
  | Some _ -> metrics @ [ ("cache_hit", if hit then 1.0 else 0.0) ]

(* ---------- the one pipeline ---------- *)

(* The ledger metrics of a solved (not cached) outcome. *)
let outcome_metrics outcome =
  match (outcome, outcome_stats outcome) with
  | Weighted r, _ ->
      [
        ("stats.iterations", float_of_int r.Synth.Weighted.iterations);
        ("stats.elapsed_s", r.Synth.Weighted.elapsed);
      ]
  | _, Some s -> Report.Stats.to_metrics s
  | _, None -> []

(* The job-specific half of the ledger record: its problem text and
   config entries. *)
let ledger_problem = function
  | Synth { prop; weights; portfolio; jobs } ->
      ( prop,
        [ ("portfolio", string_of_bool portfolio); ("jobs", string_of_int jobs) ]
        @ if weights = None then [] else [ ("weights", "yes") ] )
  | Optimize { data_len; md; check_lo; check_hi } ->
      ( Printf.sprintf "data_len=%d md=%d check=%d..%d" data_len md check_lo
          check_hi,
        [] )

(* The task a job asks for, with its weights and portfolio width; an
   optimize job is a minimal(len_c) walk without pins or a len_1 bound. *)
let analyze = function
  | Synth { prop; weights; portfolio; jobs } ->
      ( Synth.Driver.analyze (load_prop prop),
        weights,
        if portfolio then Some jobs else None )
  | Optimize { data_len; md; check_lo; check_hi } ->
      (Ok (Synth.Driver.min_check_len ~data_len ~md ~check_lo ~check_hi), None, None)

(* record start -> analyze -> cache -> resume/warm/writer -> solve ->
   record *)
let run_job ?on_report ~intr ~t0 request =
  let problem, job_config = ledger_problem request.job in
  let entry key = function Some v -> [ (key, v) ] | None -> [] in
  (* the crash journal waits for a cache miss: a served hit finishes
     without creating and unlinking a file *)
  let token =
    Recorder.start ~no_ledger:request.no_ledger ?dir:request.ledger_dir
      ~journaled:false ~subcommand:request.subcommand ~problem
      ~config:
        ((("timeout", string_of_float request.timeout) :: job_config)
        @ entry "checkpoint" request.checkpoint
        @ entry "resume" request.resume
        @ entry "request" request.request_id)
      ()
  in
  guarded token @@ fun () ->
  let task, weights, jobs = analyze request.job in
  (* checkpointing and caching need a single-generator task so the
     problem shape the pool belongs to is known up front *)
  let single =
    match task with
    | Ok (Synth.Driver.Fixed s | Synth.Driver.Min_check_len s) -> Some s
    | Ok _ | Error _ -> None
  in
  if (request.checkpoint <> None || request.resume <> None) && single = None
  then invalid token "--checkpoint/--resume support single-generator tasks only";
  let task =
    match task with Ok t -> t | Error msg -> raise (Synth.Driver.Unsupported msg)
  in
  let ctx = cache_ctx request task ~weights in
  let finish ~hit ?resumed ?report outcome =
    (* the optimize job reports its walk's generator with the length *)
    let outcome =
      match (request.job, outcome) with
      | Optimize _, Codes ([ code ], stats) ->
          Optimized ({ Synth.Optimize.code; check_len = Hamming.Code.check_len code }, stats)
      | _ -> outcome
    in
    let interrupted = (not hit) && intr () in
    let name, exit_code = verdict outcome ~interrupted in
    let stats = outcome_stats outcome in
    Recorder.finish token
      ?stats:(Option.map Report.Stats.to_json stats)
      ~metrics:(cache_metric request ctx hit (if hit then [] else outcome_metrics outcome))
      ~cache_hit:hit ~outcome:name ~exit_code ();
    {
      outcome;
      cache_hit = hit;
      interrupted;
      resumed;
      report;
      wall_s = Unix.gettimeofday () -. t0;
      exit_code;
    }
  in
  match cache_lookup ctx with
  | Some entry -> finish ~hit:true (Codes ([ entry.Cache.code ], hit_stats entry))
  | None ->
      Recorder.journal token;
      (* a resumed walk replays the pool and starts at the check length
         its checkpoint reached *)
      let initial, resumed_iters, start =
        match (request.resume, single) with
        | Some path, Some s -> (
            match Synth.Checkpoint.load ~path with
            | Error e ->
                failwith ("cannot resume: " ^ Synth.Checkpoint.error_to_string e)
            | Ok t ->
                if t.data_len <> s.data_len || t.min_distance <> s.md then
                  failwith
                    (Printf.sprintf
                       "cannot resume: checkpoint is for data_len %d md %d \
                        but the %s wants data_len %d md %d"
                       t.data_len t.min_distance
                       (match request.job with
                       | Synth _ -> "specification"
                       | Optimize _ -> "command line")
                       s.data_len s.md);
                (t.cexes, t.iterations, resume_start task s t))
        | _, Some s -> ([], 0, s.check_lo)
        | _, None -> ([], 0, 0)
      in
      let task =
        match task with
        | Synth.Driver.Fixed s -> Synth.Driver.Fixed { s with check_lo = start }
        | Synth.Driver.Min_check_len s ->
            Synth.Driver.Min_check_len { s with check_lo = start }
        | t -> t
      in
      let resumed =
        Option.map
          (fun _ ->
            {
              cex_count = List.length initial;
              prior_iterations = resumed_iters;
              start_check = start;
            })
          request.resume
      in
      (* warm-start counterexamples from compatible cached pools ride
         along with the resumed ones but are invisible to the resume
         banner and the checkpoint being written *)
      let warm =
        match (ctx, single) with
        | Some c, Some s -> Cache.warm_start ~dir:c.c_dir ~data_len:s.data_len ~md:s.md
        | _ -> []
      in
      let bound = proves_bound task in
      let writer =
        Option.bind single (fun s ->
            make_writer ~checkpoint:request.checkpoint s ~initial ~resumed_iters
              ~bound:(if bound then Some start else None))
      in
      let iters = Atomic.make resumed_iters in
      let learned = ref [] in
      let record_cex = writer_on_cex writer iters in
      let on_cex cex =
        learned := cex :: !learned;
        record_cex cex
      in
      let on_round c =
        if bound then Option.iter (fun w -> Synth.Checkpoint.Writer.record_bound w c) writer
      in
      let last_report = ref None in
      let on_report r =
        last_report := Some r;
        match on_report with Some f -> f r | None -> ()
      in
      let outcome =
        Observe.with_observability ~trace:request.trace
          ~metrics:request.metrics ~progress:request.progress (fun () ->
            Synth.Driver.run ~timeout:request.timeout ?weights ?jobs ~on_report
              ~interrupt:intr ~initial:(initial @ warm) ~on_cex ~on_round task)
      in
      Option.iter Synth.Checkpoint.Writer.flush writer;
      Option.iter
        (fun (s : Synth.Driver.single) ->
          cache_save_pool ctx ~data_len:s.data_len ~check_len:s.check_lo ~md:s.md
            (initial @ List.rev !learned))
        single;
      let result = finish ~hit:false ?resumed ?report:!last_report outcome in
      (match (outcome, single, writer) with
      | Codes ([ code ], stats), Some s, _ ->
          cache_store ctx ~code ~md:s.md ~iterations:stats.Report.Stats.iterations
            ~elapsed:stats.Report.Stats.elapsed
      | Partial { code; achieved; _ }, _, Some w ->
          Synth.Checkpoint.Writer.record_best w code achieved;
          Synth.Checkpoint.Writer.flush w
      | _ -> ());
      result

(* ---------- the public entry point ---------- *)

let run_sync ?on_report ?cancel request =
  let t0 = Unix.gettimeofday () in
  let intr () =
    Atomic.get sigint_requested
    || match cancel with Some c -> Atomic.get c | None -> false
  in
  (* a one-shot run that asked for the lens owns it: started before the
     job so [Observe] composes the poller into the tee, stopped after
     the ledger record (which snapshots it) has settled.  Under a daemon
     the lens is already live process-wide and is left alone. *)
  let owned_lens =
    request.runtime_lens
    && (not (Telemetry.Runtime.active ()))
    &&
    (Telemetry.Runtime.start ();
     Telemetry.Runtime.active ())
  in
  (* every run hash-conses into a table of its own, dropped when the run
     returns: a long-lived caller's heap stays flat, and each run builds
     the same uid order from scratch *)
  Fun.protect
    ~finally:(fun () -> if owned_lens then Telemetry.Runtime.stop ())
    (fun () ->
      Smtlite.Expr.with_scope (Smtlite.Expr.new_scope ()) @@ fun () ->
      run_job ?on_report ~intr ~t0 request)

(* ---------- the concurrent session manager ---------- *)

module Manager = struct
  type id = int

  type status =
    | Queued
    | Running
    | Done of result
    | Failed of string
    | Cancelled
    | Timed_out

  type jobrec = {
    jr_id : id;
    jr_request : request;
    jr_cancel : bool Atomic.t;
    jr_deadline : float option;  (* absolute, Unix.gettimeofday clock *)
    jr_submitted : float;  (* admission time, for queue-wait attribution *)
    mutable jr_status : status;
    mutable jr_worker : int;  (* worker id running it; -1 when none *)
  }

  type worker_info = {
    wi_worker : int;
    wi_state : [ `Idle | `Running | `Condemned ];
    wi_since_s : float;  (* seconds spent in the current state *)
    wi_request : string option;  (* request id being served, if any *)
    wi_session : id option;
  }

  (* mutable mirror of [worker_info], updated under [t.lock] *)
  type wstate = {
    mutable ws_state : [ `Idle | `Running | `Condemned ];
    mutable ws_since : float;
    mutable ws_request : string option;
    mutable ws_session : id option;
  }

  type t = {
    lock : Mutex.t;
    work : Condition.t;  (* queue gained an item, or stopping *)
    queue : id Queue.t;
    sessions : (id, jobrec) Hashtbl.t;
        (* every unsettled session, plus the last [retained] settled *)
    settled_ids : id Queue.t;  (* settled sessions still kept, oldest first *)
    mutable unsettled : int;  (* sessions queued or running *)
    mutable next : id;
    mutable stopping : bool;
    max_queue : int;
    grace : float;  (* post-deadline slack before a worker is reaped *)
    policy : Synth.Supervisor.policy;  (* crash restarts + reap backoff *)
    mutable domains : (int * unit Domain.t) list;  (* worker id, domain *)
    condemned : (int, unit) Hashtbl.t;  (* reaped workers, never joined *)
    workers_tbl : (int, wstate) Hashtbl.t;
    mutable next_worker : int;
    mutable reap_count : int;
    on_reap : (worker:int -> request_id:string option -> unit) option;
        (* fired outside [lock] after a worker is condemned — the serve
           daemon dumps the flight recorder here *)
    on_settle : unit -> unit;  (* fired under [lock] on every settle *)
  }

  let retained = 256

  let g_depth = Telemetry.Metrics.gauge "serve.queue_depth"
  let m_reaped = Telemetry.Metrics.counter "serve.worker_reaped"

  let h_queue_wait =
    Telemetry.Metrics.histogram "serve.queue_wait_ms"
      ~help:"milliseconds a request spent queued before a worker picked it up"

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let set_depth t = Telemetry.Metrics.set g_depth (float_of_int (Queue.length t.queue))

  (* must be called with [t.lock] held *)
  let mark_worker t w state ~request ~session =
    let now = Unix.gettimeofday () in
    match Hashtbl.find_opt t.workers_tbl w with
    | Some ws ->
        ws.ws_state <- state;
        ws.ws_since <- now;
        ws.ws_request <- request;
        ws.ws_session <- session
    | None ->
        Hashtbl.replace t.workers_tbl w
          { ws_state = state; ws_since = now; ws_request = request;
            ws_session = session }

  (* A failed run renders the same message the CLI's top-level handlers
     would print, so the wire client sees familiar errors. *)
  let failure_message = function
    | Invalid_request msg -> msg
    | Spec.Parse.Error msg -> "bad property: " ^ msg
    | Invalid_argument msg | Failure msg | Sys_error msg -> msg
    | e -> Printexc.to_string e

  let deadline_passed jr now =
    match jr.jr_deadline with None -> false | Some dl -> now >= dl

  (* The one way a session reaches a final status (must be called with
     [t.lock] held): it joins the retention window, which forgets the
     oldest settled session once full, and the settle hook fires. *)
  let settle t jr status =
    jr.jr_status <- status;
    jr.jr_worker <- -1;
    t.unsettled <- t.unsettled - 1;
    Queue.push jr.jr_id t.settled_ids;
    if Queue.length t.settled_ids > retained then
      Hashtbl.remove t.sessions (Queue.pop t.settled_ids);
    t.on_settle ()

  let worker_loop t w =
    let rec next_job () =
      Mutex.lock t.lock;
      let rec wait () =
        if
          Queue.is_empty t.queue && (not t.stopping)
          && not (Hashtbl.mem t.condemned w)
        then begin
          Condition.wait t.work t.lock;
          wait ()
        end
      in
      wait ();
      if Queue.is_empty t.queue || Hashtbl.mem t.condemned w then begin
        Mutex.unlock t.lock;
        None
      end
      else begin
        let id = Queue.pop t.queue in
        set_depth t;
        match Hashtbl.find_opt t.sessions id with
        | Some jr when jr.jr_status = Queued ->
            if deadline_passed jr (Unix.gettimeofday ()) then begin
              (* expired while waiting in the queue: answer timeout
                 without burning a worker on it *)
              settle t jr Timed_out;
              Mutex.unlock t.lock;
              next_job ()
            end
            else begin
              jr.jr_status <- Running;
              jr.jr_worker <- w;
              mark_worker t w `Running ~request:jr.jr_request.request_id
                ~session:(Some id);
              Mutex.unlock t.lock;
              Some jr
            end
        | _ ->
            (* cancelled while queued; skip it *)
            Mutex.unlock t.lock;
            next_job ()
      end
    in
    let rec loop () =
      Synth.Fault.probe "manager.worker";
      match next_job () with
      | None -> ()
      | Some jr ->
          let wait_s = Unix.gettimeofday () -. jr.jr_submitted in
          Telemetry.Metrics.observe h_queue_wait
            (int_of_float (wait_s *. 1000.));
          (* the queue-wait lands in the ledger's extra metrics so
             [runs html] can split serve latency into wait vs run *)
          let request =
            { jr.jr_request with
              extra_metrics =
                ("serve.queue_wait_s", wait_s) :: jr.jr_request.extra_metrics;
            }
          in
          let run () =
            match run_sync ~cancel:jr.jr_cancel request with
            | r -> Done r
            | exception e -> Failed (failure_message e)
          in
          let status =
            match request.request_id with
            | None -> run ()
            | Some rid ->
                (* every event the run emits — including from portfolio
                   worker domains, which re-install the context — carries
                   the request id, so [trace report --request] can slice
                   this run back out of the daemon's interleaved trace.
                   The runtime lens gets the same id via a ring beacon,
                   so GC intervals on this domain are attributed too. *)
                Telemetry.Runtime.set_request (Some rid);
                Fun.protect
                  ~finally:(fun () -> Telemetry.Runtime.set_request None)
                  (fun () ->
                    Telemetry.with_context
                      [ ("request", Telemetry.str rid) ]
                      (fun () ->
                        Telemetry.span "serve.request"
                          ~fields:
                            [
                              ("worker", Telemetry.str (string_of_int w));
                              ( "queue_wait_s",
                                Telemetry.str (Printf.sprintf "%.3f" wait_s) );
                            ]
                          run))
          in
          locked t (fun () ->
              (match jr.jr_status with
              | Running -> settle t jr status
              | _ ->
                  (* reaped meanwhile; the Timed_out verdict stands and
                     this condemned worker exits below *)
                  ());
              if not (Hashtbl.mem t.condemned w) then
                mark_worker t w `Idle ~request:None ~session:None);
          if not (Hashtbl.mem t.condemned w) then loop ()
    in
    loop ()

  (* A worker crash — an injected ["manager.worker"] fault or a logic
     bug escaping [run_sync]'s per-job handler — restarts the loop under
     supervision instead of silently shrinking the pool. *)
  let worker t w () =
    ignore
      (Synth.Supervisor.run ~policy:t.policy ~label:"manager.worker"
         ~is_cancellation:(fun _ -> false)
         (fun ~attempt:_ -> worker_loop t w))

  (* must be called with [t.lock] held *)
  let spawn t ~backoff_attempt =
    let w = t.next_worker in
    t.next_worker <- w + 1;
    mark_worker t w `Idle ~request:None ~session:None;
    let d =
      Domain.spawn (fun () ->
          if backoff_attempt > 0 then
            Unix.sleepf
              (Synth.Supervisor.backoff_delay t.policy ~label:"manager.worker"
                 ~attempt:backoff_attempt);
          worker t w ())
    in
    t.domains <- (w, d) :: t.domains

  let create ~workers ~max_queue ?(grace = 1.0) ?policy ?on_reap
      ?(on_settle = ignore) () =
    let policy =
      match policy with
      | Some p -> p
      | None -> { Synth.Supervisor.default_policy with max_restarts = 100 }
    in
    let t =
      {
        lock = Mutex.create ();
        work = Condition.create ();
        queue = Queue.create ();
        sessions = Hashtbl.create 16;
        settled_ids = Queue.create ();
        unsettled = 0;
        next = 1;
        stopping = false;
        max_queue;
        grace;
        policy;
        domains = [];
        condemned = Hashtbl.create 4;
        workers_tbl = Hashtbl.create 8;
        next_worker = 0;
        reap_count = 0;
        on_reap;
        on_settle;
      }
    in
    locked t (fun () ->
        for _ = 1 to max 1 workers do
          spawn t ~backoff_attempt:0
        done);
    t

  let submit ?deadline_s t request =
    locked t (fun () ->
        if t.stopping || Queue.length t.queue >= t.max_queue then
          Error `Backpressure
        else begin
          let id = t.next in
          t.next <- id + 1;
          let now = Unix.gettimeofday () in
          Hashtbl.replace t.sessions id
            {
              jr_id = id;
              jr_request = request;
              jr_cancel = Atomic.make false;
              jr_deadline = Option.map (fun s -> now +. s) deadline_s;
              jr_submitted = now;
              jr_status = Queued;
              jr_worker = -1;
            };
          t.unsettled <- t.unsettled + 1;
          Queue.push id t.queue;
          set_depth t;
          Condition.signal t.work;
          Ok id
        end)

  (* Deadline enforcement, driven from the serve event loop's tick.  A
     queued session past its deadline settles immediately.  A running
     one first gets a cooperative cancel (the solvers poll it); past
     deadline + grace its worker is condemned — OCaml domains cannot be
     killed, so the stuck domain is abandoned (never joined; it exits
     on its own if the run ever returns) and a supervised replacement
     is spawned with jittered backoff.  The session answers Timed_out
     either way: the wire never hangs on a stuck job. *)
  let tend t =
    let now = Unix.gettimeofday () in
    let reaps =
      locked t (fun () ->
          let reaps = ref [] in
          (* collected first: settling edits [t.sessions] *)
          Hashtbl.fold
            (fun _id jr acc -> if deadline_passed jr now then jr :: acc else acc)
            t.sessions []
          |> List.iter (fun jr ->
                match jr.jr_status with
                | Queued -> settle t jr Timed_out
                | Running ->
                    Atomic.set jr.jr_cancel true;
                    if
                      now >= Option.get jr.jr_deadline +. t.grace
                      && jr.jr_worker >= 0
                      && not (Hashtbl.mem t.condemned jr.jr_worker)
                    then begin
                      let w = jr.jr_worker in
                      let rid = jr.jr_request.request_id in
                      Hashtbl.replace t.condemned w ();
                      t.reap_count <- t.reap_count + 1;
                      Telemetry.Metrics.incr m_reaped 1;
                      if Telemetry.enabled () then
                        Telemetry.point "manager.reap"
                          ~fields:
                            (("worker", Telemetry.str (string_of_int w))
                            ::
                            (match rid with
                            | None -> []
                            | Some r -> [ ("request", Telemetry.str r) ]));
                      mark_worker t w `Condemned ~request:rid
                        ~session:(Some jr.jr_id);
                      settle t jr Timed_out;
                      reaps := (w, rid) :: !reaps;
                      if not t.stopping then
                        spawn t ~backoff_attempt:t.reap_count
                    end
                | _ -> ());
          !reaps)
    in
    (* outside the lock: the hook dumps the flight recorder, which takes
       its own mutex and touches the filesystem *)
    match t.on_reap with
    | None -> ()
    | Some f ->
        List.iter (fun (w, rid) -> f ~worker:w ~request_id:rid) reaps

  let status t id =
    locked t (fun () ->
        Option.map
          (fun jr -> (jr.jr_status, jr.jr_request.request_id))
          (Hashtbl.find_opt t.sessions id))

  let cancel t id =
    locked t (fun () ->
        match Hashtbl.find_opt t.sessions id with
        | None -> false
        | Some jr -> (
            Atomic.set jr.jr_cancel true;
            match jr.jr_status with
            | Queued ->
                settle t jr Cancelled;
                true
            | Running -> true
            | Done _ | Failed _ | Cancelled | Timed_out -> false))

  let queue_depth t = locked t (fun () -> Queue.length t.queue)
  let busy t = locked t (fun () -> t.unsettled > 0)
  let admitted t = locked t (fun () -> t.next - 1)
  let reaped t = locked t (fun () -> t.reap_count)

  let workers t =
    let now = Unix.gettimeofday () in
    locked t (fun () ->
        Hashtbl.fold
          (fun w ws acc ->
            {
              wi_worker = w;
              wi_state = ws.ws_state;
              wi_since_s = now -. ws.ws_since;
              wi_request = ws.ws_request;
              wi_session = ws.ws_session;
            }
            :: acc)
          t.workers_tbl []
        |> List.sort (fun a b -> compare a.wi_worker b.wi_worker))

  let drain t =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.work);
    let rec wait_idle () =
      if busy t then begin
        tend t;
        Unix.sleepf 0.02;
        wait_idle ()
      end
    in
    wait_idle ();
    locked t (fun () -> Condition.broadcast t.work);
    (* condemned workers may be stuck in a stalled run forever; they are
       zombies by design and must not block shutdown *)
    List.iter
      (fun (w, d) -> if not (Hashtbl.mem t.condemned w) then Domain.join d)
      t.domains;
    t.domains <- []
end
