open Gf2
open Smtlite

type config = {
  label : string;
  cex_mode : Cegis.cex_mode;
  verifier : Cegis.verifier_mode;
  encoding : Card.encoding;
  seed : int option;
}

type worker_stats = {
  config : config;
  stats : Report.Stats.t;
  shared_out : int;
  shared_in : int;
  finished : bool;
}

type report = {
  workers : worker_stats list;
  winner : config option;
  wall_clock : float;
  rounds : int;
  totals : Report.Stats.t;
}

(* Spawned worker domains re-install the ambient span context (the serve
   request id); the runtime lens needs the same id as a ring beacon so
   GC intervals on the new domain's ring are attributed to the request.
   No-op when the lens is not live. *)
let with_runtime_request ctx f =
  match List.assoc_opt "request" ctx with
  | Some (Telemetry.Sink.Str rid) when Telemetry.Runtime.active () ->
      Telemetry.Runtime.set_request (Some rid);
      Fun.protect ~finally:(fun () -> Telemetry.Runtime.set_request None) f
  | _ -> f ()

let config_to_string c =
  let seed = match c.seed with None -> "-" | Some s -> string_of_int s in
  Printf.sprintf "%s(cex=%s ver=%s enc=%s seed=%s)" c.label
    (Cegis.cex_mode_name c.cex_mode)
    (Cegis.verifier_name c.verifier)
    (Card.encoding_name c.encoding)
    seed

(* Worker 0 is exactly the sequential default configuration so that
   [--jobs 1] reproduces [Cegis.synthesize] bit for bit; the rest vary the
   cardinality encoding, counterexample mode, verifier and random seed.
   Past the base set, additional workers recycle encodings with fresh
   seeds. *)
let default_configs jobs =
  let base =
    [|
      { label = "w0"; cex_mode = Cegis.Data_word; verifier = Cegis.Combinatorial;
        encoding = Card.Sequential; seed = None };
      { label = "w1"; cex_mode = Cegis.Data_word; verifier = Cegis.Combinatorial;
        encoding = Card.Totalizer; seed = Some 1 };
      { label = "w2"; cex_mode = Cegis.Data_word; verifier = Cegis.Combinatorial;
        encoding = Card.Adder; seed = Some 2 };
      { label = "w3"; cex_mode = Cegis.Data_word; verifier = Cegis.Combinatorial;
        encoding = Card.Sequential; seed = Some 3 };
      { label = "w4"; cex_mode = Cegis.Data_word; verifier = Cegis.Sat;
        encoding = Card.Totalizer; seed = Some 4 };
      { label = "w5"; cex_mode = Cegis.Data_word; verifier = Cegis.Combinatorial;
        encoding = Card.Pairwise; seed = Some 5 };
      { label = "w6"; cex_mode = Cegis.Whole_candidate; verifier = Cegis.Combinatorial;
        encoding = Card.Sequential; seed = Some 6 };
    |]
  in
  List.init jobs (fun i ->
      if i < Array.length base then base.(i)
      else
        let b = base.(i mod Array.length base) in
        { b with label = Printf.sprintf "w%d" i; seed = Some (i * 7919 + 17) })

(* ---------- shared counterexample pool ---------- *)

(* A grow-only vector of (origin worker, cex) under a mutex.  Workers keep
   a private cursor and drain only entries they have not seen; entries are
   deduplicated on insertion so each distinct witness is transported once. *)
type pool = {
  mutex : Mutex.t;
  mutable items : (int * Cegis.cex) array;
  mutable len : int;
  seen_keys : (string, unit) Hashtbl.t;
}

let pool_create () =
  {
    mutex = Mutex.create ();
    items = Array.make 64 (-1, Cegis.Cex_data (Bitvec.create 0));
    len = 0;
    seen_keys = Hashtbl.create 64;
  }

let cex_key = function
  | Cegis.Cex_data d -> "d:" ^ Bitvec.to_string d
  | Cegis.Cex_candidate c -> "c:" ^ Hamming.Code.to_string c

(* Returns [true] when the cex was fresh (not already pooled). *)
let m_pool_size = Telemetry.Metrics.gauge "portfolio.pool_size"

let pool_publish pool origin cex =
  let published =
    Mutex.protect pool.mutex (fun () ->
        let key = cex_key cex in
        if Hashtbl.mem pool.seen_keys key then false
        else begin
          Hashtbl.add pool.seen_keys key ();
          if pool.len = Array.length pool.items then begin
            let bigger = Array.make (2 * pool.len) pool.items.(0) in
            Array.blit pool.items 0 bigger 0 pool.len;
            pool.items <- bigger
          end;
          pool.items.(pool.len) <- (origin, cex);
          pool.len <- pool.len + 1;
          true
        end)
  in
  if published && Telemetry.enabled () then begin
    let len = Mutex.protect pool.mutex (fun () -> pool.len) in
    Telemetry.Metrics.set m_pool_size (float_of_int len);
    Telemetry.gauge "portfolio.pool_size" (float_of_int len)
  end;
  published

(* Entries after the cursor that some other worker contributed. *)
let pool_drain pool ~cursor ~self =
  Mutex.protect pool.mutex (fun () ->
      let fresh = ref [] in
      for i = pool.len - 1 downto cursor do
        let origin, cex = pool.items.(i) in
        if origin <> self then fresh := cex :: !fresh
      done;
      (!fresh, pool.len))

(* ---------- shared best-so-far candidate ---------- *)

(* Anytime result: the candidate whose refuting witness had the highest
   codeword weight.  Witness weight upper-bounds the candidate's true
   minimum distance, so maximizing it is the natural ranking for "closest
   miss"; the exact distance of the reported candidate is recomputed by the
   caller.  Shared across workers, rounds and restarts under a mutex. *)
type best = {
  b_mutex : Mutex.t;
  mutable b_val : (Hamming.Code.t * int) option;
}

let best_create () = { b_mutex = Mutex.create (); b_val = None }

let best_offer best candidate =
  match candidate with
  | None -> ()
  | Some (_, weight) ->
      Mutex.protect best.b_mutex (fun () ->
          match best.b_val with
          | Some (_, w) when w >= weight -> ()
          | _ -> best.b_val <- candidate)

let best_get best = Mutex.protect best.b_mutex (fun () -> best.b_val)

(* ---------- the race ---------- *)

type decision =
  | Winner of int * Hamming.Code.t
  | Proved_unsat of int

type worker_outcome = {
  w_stats : Report.Stats.t;
  w_out : int;
  w_in : int;
  w_finished : bool;
}

(* Incarnation [attempt] of a supervised worker diversifies its solver
   seed so a crashed search does not replay the trajectory that crashed
   (or stalled) it. *)
let reseed_for_attempt config ~attempt =
  if attempt = 0 then config
  else
    {
      config with
      seed =
        Some
          ((match config.seed with None -> 0 | Some s -> s)
          + (104729 * attempt));
    }

let supervisor_policy config =
  {
    Supervisor.default_policy with
    Supervisor.seed = (match config.seed with None -> 0 | Some s -> s);
  }

(* [index] is the worker's slot within its round (who to credit in the
   decision); each incarnation takes a fresh [origin] from the shared
   counter, unique across rounds and restarts, so a restarted worker
   re-imports everything the pool holds — including what its previous
   incarnation published.  [stop_at] records when the stop flag was
   raised, so losing workers can report how long cooperative cancellation
   took.  The body runs under {!Supervisor.run}: any exception that is not
   cooperative cancellation (and not a genuine interrupt) is a crash,
   answered by a backoff restart with a fresh seed. *)
let run_worker ~problem ~vars ~deadline ~stop ~stop_at ~decision ~pool ~best
    ~origin_counter ~ext_interrupt ~on_cex index config =
  let interrupt () =
    Atomic.get stop || ext_interrupt () || Unix.gettimeofday () > deadline
  in
  let shared_out = ref 0 and shared_in = ref 0 in
  let finished = ref false in
  let acc = ref Report.Stats.zero in
  let sp =
    Telemetry.begin_span "portfolio.worker"
      ~fields:
        [
          ("worker", Telemetry.str config.label);
          ("config", Telemetry.str (config_to_string config));
        ]
  in
  let decide d =
    if Atomic.compare_and_set decision None (Some d) then begin
      finished := true;
      Atomic.set stop_at (Unix.gettimeofday ());
      Atomic.set stop true
    end
  in
  let body ~attempt =
    Fault.probe "worker.start";
    let config = reseed_for_attempt config ~attempt in
    let origin = Atomic.fetch_and_add origin_counter 1 in
    let cursor = ref 0 in
    let session =
      Cegis.create_session ~cex_mode:config.cex_mode ~verifier:config.verifier
        ~encoding:config.encoding ?seed:config.seed ~interrupt ~vars problem
    in
    (* fold this incarnation's learning into the worker totals exactly
       once, on every exit path — cancellation, crash, or victory *)
    let merge () =
      best_offer best (Cegis.session_best session);
      acc := Report.Stats.add !acc (Cegis.session_stats session)
    in
    let rec loop () =
      if interrupt () then ()
      else begin
        (* absorb counterexamples other workers discovered since last step *)
        let fresh, len = pool_drain pool ~cursor:!cursor ~self:origin in
        cursor := len;
        if fresh <> [] then
          Telemetry.counter "portfolio.consume"
            ~fields:[ ("worker", Telemetry.str config.label) ]
            (List.length fresh);
        List.iter
          (fun cex ->
            incr shared_in;
            Cegis.learn session cex)
          fresh;
        match Cegis.step ~deadline session with
        | Cegis.Done code -> decide (Winner (index, code))
        | Cegis.Exhausted ->
            (* sound globally: every imported constraint is implied by the
               specification, so an unsat synthesizer context refutes the
               whole configuration, not just this worker's search *)
            decide (Proved_unsat index)
        | Cegis.Progress cex ->
            if pool_publish pool origin cex then begin
              incr shared_out;
              on_cex cex;
              Telemetry.counter "portfolio.publish"
                ~fields:[ ("worker", Telemetry.str config.label) ]
                1
            end;
            loop ()
        | exception Ctx.Interrupted when not (interrupt ()) ->
            (* the solver reported an interrupt no one requested (an
               injected fault): the session is intact, so retry the step *)
            loop ()
      end
    in
    match loop () with
    | () -> merge ()
    | exception (Ctx.Timeout | Ctx.Interrupted) -> merge ()
    | exception e ->
        merge ();
        raise e
  in
  let sup =
    Supervisor.run ~policy:(supervisor_policy config) ~label:config.label body
  in
  (match sup.Supervisor.result with
  | Ok () -> ()
  | Error _ ->
      (* gave up after repeated crashes: this worker drops out of the
         race; its learning is already merged and the crash totals are
         reported below *)
      ());
  if Telemetry.enabled () && (not !finished) && Atomic.get stop then begin
    let t0 = Atomic.get stop_at in
    if t0 > 0.0 then
      Telemetry.gauge "portfolio.cancel_latency"
        ~fields:[ ("worker", Telemetry.str config.label) ]
        (Unix.gettimeofday () -. t0)
  end;
  let w_stats =
    {
      !acc with
      Report.Stats.worker_crashes = sup.Supervisor.crashes;
      worker_restarts = sup.Supervisor.restarts;
    }
  in
  Telemetry.end_span sp
    ~fields:
      [
        ("iterations", Telemetry.int w_stats.Report.Stats.iterations);
        ("published", Telemetry.int !shared_out);
        ("consumed", Telemetry.int !shared_in);
        ("finished", Telemetry.bool !finished);
        ("crashes", Telemetry.int sup.Supervisor.crashes);
      ];
  { w_stats; w_out = !shared_out; w_in = !shared_in; w_finished = !finished }

(* One domain, K workers: step the sessions round-robin, one CEGIS
   iteration per turn.  On a host without spare cores this has the same
   semantics and sharing behaviour as spawned domains but none of the
   scheduler noise: pool-arrival order is fixed by the rotation, so the
   whole race is deterministic for seeded configurations.  Crash
   supervision follows the same policy as the domains path, minus the
   backoff sleep — a sleeping rotation would stall every worker, and
   skipping it keeps the interleave deterministic. *)
type iworker = {
  iw_index : int;
  iw_config : config;
  mutable iw_session : Cegis.session option;  (** [None] = start-up crashed *)
  mutable iw_origin : int;
  mutable iw_cursor : int;
  mutable iw_out : int;
  mutable iw_in : int;
  mutable iw_dead : bool;
  mutable iw_won : bool;
  mutable iw_crashes : int;
  mutable iw_restarts : int;
  mutable iw_attempt : int;
  mutable iw_acc : Report.Stats.t;  (** stats of finished incarnations *)
}

let run_interleaved ~problem ~vars ~deadline ~decision ~pool ~best
    ~origin_counter ~ext_interrupt ~on_cex configs =
  let cancelled () = ext_interrupt () || Unix.gettimeofday () > deadline in
  let max_restarts = Supervisor.default_policy.Supervisor.max_restarts in
  let new_session w =
    Fault.probe "worker.start";
    let config = reseed_for_attempt w.iw_config ~attempt:w.iw_attempt in
    w.iw_origin <- Atomic.fetch_and_add origin_counter 1;
    w.iw_cursor <- 0;
    Cegis.create_session ~cex_mode:config.cex_mode ~verifier:config.verifier
      ~encoding:config.encoding ?seed:config.seed ~interrupt:cancelled ~vars
      problem
  in
  let record_crash w e =
    w.iw_crashes <- w.iw_crashes + 1;
    if Telemetry.enabled () then
      Telemetry.point "supervisor.crash"
        ~fields:
          [
            ("worker", Telemetry.str w.iw_config.label);
            ("attempt", Telemetry.int w.iw_attempt);
            ("exn", Telemetry.str (Printexc.to_string e));
          ]
  in
  (* retire the current incarnation's learning into the accumulator *)
  let merge w =
    match w.iw_session with
    | None -> ()
    | Some s ->
        best_offer best (Cegis.session_best s);
        w.iw_acc <- Report.Stats.add w.iw_acc (Cegis.session_stats s);
        w.iw_session <- None
  in
  (* (re)start a worker, counting start-up crashes against its budget *)
  let rec start w =
    if w.iw_crashes > max_restarts then w.iw_dead <- true
    else
      match new_session w with
      | s -> w.iw_session <- Some s
      | exception ((Ctx.Timeout | Ctx.Interrupted) as _e) -> w.iw_dead <- true
      | exception e ->
          record_crash w e;
          w.iw_attempt <- w.iw_attempt + 1;
          if w.iw_crashes <= max_restarts then begin
            w.iw_restarts <- w.iw_restarts + 1;
            start w
          end
          else w.iw_dead <- true
  in
  let workers =
    List.mapi
      (fun i config ->
        let w =
          {
            iw_index = i;
            iw_config = config;
            iw_session = None;
            iw_origin = -1;
            iw_cursor = 0;
            iw_out = 0;
            iw_in = 0;
            iw_dead = false;
            iw_won = false;
            iw_crashes = 0;
            iw_restarts = 0;
            iw_attempt = 0;
            iw_acc = Report.Stats.zero;
          }
        in
        start w;
        w)
      configs
  in
  let decided = ref false in
  let step_worker w =
    match w.iw_session with
    | None -> w.iw_dead <- true
    | Some session -> (
        try
          let fresh, len =
            pool_drain pool ~cursor:w.iw_cursor ~self:w.iw_origin
          in
          w.iw_cursor <- len;
          List.iter
            (fun cex ->
              w.iw_in <- w.iw_in + 1;
              Cegis.learn session cex)
            fresh;
          match Cegis.step ~deadline session with
          | Cegis.Done code ->
              decided := true;
              w.iw_won <- true;
              Atomic.set decision (Some (Winner (w.iw_index, code)))
          | Cegis.Progress cex ->
              if pool_publish pool w.iw_origin cex then begin
                w.iw_out <- w.iw_out + 1;
                on_cex cex
              end
          | Cegis.Exhausted ->
              decided := true;
              w.iw_won <- true;
              Atomic.set decision (Some (Proved_unsat w.iw_index))
          | exception Ctx.Interrupted when not (cancelled ()) ->
              (* spurious injected interrupt: session intact, step again
                 next turn *)
              ()
        with
        | Ctx.Timeout | Ctx.Interrupted ->
            merge w;
            w.iw_dead <- true
        | e ->
            record_crash w e;
            merge w;
            w.iw_attempt <- w.iw_attempt + 1;
            if w.iw_crashes <= max_restarts then begin
              w.iw_restarts <- w.iw_restarts + 1;
              start w
            end
            else w.iw_dead <- true)
  in
  let rec spin () =
    if !decided || cancelled () then ()
    else begin
      let progressed = ref false in
      List.iter
        (fun w ->
          if (not !decided) && (not w.iw_dead) && not (cancelled ()) then begin
            progressed := true;
            step_worker w
          end)
        workers;
      if !progressed then spin ()
    end
  in
  spin ();
  List.map
    (fun w ->
      merge w;
      let w_stats =
        {
          w.iw_acc with
          Report.Stats.worker_crashes = w.iw_crashes;
          worker_restarts = w.iw_restarts;
        }
      in
      if Telemetry.enabled () then
        Telemetry.point "portfolio.worker"
          ~fields:
            [
              ("worker", Telemetry.str w.iw_config.label);
              ("config", Telemetry.str (config_to_string w.iw_config));
              ("iterations", Telemetry.int w_stats.Report.Stats.iterations);
              ("published", Telemetry.int w.iw_out);
              ("consumed", Telemetry.int w.iw_in);
              ("finished", Telemetry.bool w.iw_won);
              ("crashes", Telemetry.int w.iw_crashes);
            ];
      { w_stats; w_out = w.iw_out; w_in = w.iw_in; w_finished = w.iw_won })
    workers

(* Reseeded copies of the round-0 configurations for restart round [r].
   Every worker gets a fresh deterministic seed (8191 is coprime to the
   default seed stride 7919) so a restarted race explores new trajectories
   while re-importing the whole counterexample pool on its first drain. *)
let reseed_configs r configs =
  List.map
    (fun c ->
      {
        c with
        label = Printf.sprintf "%sr%d" c.label r;
        seed = Some ((match c.seed with None -> 0 | Some s -> s) + (8191 * r));
      })
    configs

let synthesize ?(timeout = 120.0) ?(jobs = 4) ?(restart_interval = 20.0)
    ?(scheduler = `Auto) ?configs ?(interrupt = fun () -> false)
    ?(initial = []) ?(on_cex = fun _ -> ()) problem =
  if jobs < 1 then invalid_arg "Portfolio.synthesize: jobs must be >= 1";
  Fault.init_from_env ();
  let use_domains =
    match scheduler with
    | `Domains -> true
    | `Interleaved -> false
    | `Auto ->
        (* spawning domains on a host with no spare cores buys no
           parallelism and adds scheduler noise; step the workers
           round-robin in this domain instead *)
        Domain.recommended_domain_count () >= 2
  in
  let configs =
    match configs with
    | Some cs ->
        if List.length cs <> jobs then
          invalid_arg "Portfolio.synthesize: configs length must equal jobs";
        cs
    | None -> default_configs jobs
  in
  let start = Unix.gettimeofday () in
  let deadline = start +. timeout in
  let vars =
    Cegis.make_matrix_vars ~data_len:problem.Cegis.data_len
      ~check_len:problem.Cegis.check_len
  in
  let stop = Atomic.make false in
  let stop_at = Atomic.make 0.0 in
  let decision = Atomic.make None in
  let pool = pool_create () in
  let best = best_create () in
  (* origins are unique across rounds, workers and supervised restarts;
     -1 marks resumed counterexamples so every worker imports them *)
  let origin_counter = Atomic.make 0 in
  List.iter (fun cex -> ignore (pool_publish pool (-1) cex)) initial;
  if Telemetry.enabled () then
    Telemetry.point "portfolio.start"
      ~fields:
        [
          ("jobs", Telemetry.int jobs);
          ( "scheduler",
            Telemetry.str
              (if jobs = 1 then "inline"
               else if use_domains then "domains"
               else "interleaved") );
          ("timeout_s", Telemetry.float timeout);
          ("restart_interval_s", Telemetry.float restart_interval);
          ("resumed_cexes", Telemetry.int (List.length initial));
        ];
  (* Run restart rounds until a decision or the global deadline.  Round r
     gets a budget of [restart_interval * 2^r] (Luby-style doubling keeps
     total restart overhead within a constant factor of the best single
     budget); the counterexample pool carries over, so every new round
     starts from all accumulated refutations instead of from scratch.
     jobs = 1 never restarts: it is the deterministic sequential replay. *)
  let rec rounds r acc_workers round_configs =
    let now = Unix.gettimeofday () in
    let round_deadline =
      if jobs = 1 || restart_interval <= 0.0 then deadline
      else min deadline (now +. (restart_interval *. float_of_int (1 lsl r)))
    in
    Atomic.set stop false;
    if Telemetry.enabled () then
      Telemetry.point "portfolio.round"
        ~fields:
          [
            ("round", Telemetry.int r);
            ("budget_s", Telemetry.float (round_deadline -. now));
          ];
    let run i config =
      run_worker ~problem ~vars ~deadline:round_deadline ~stop ~stop_at
        ~decision ~pool ~best ~origin_counter ~ext_interrupt:interrupt ~on_cex
        i config
    in
    let outcomes =
      match round_configs with
      | [ only ] ->
          (* jobs = 1: run inline, no domain — deterministic replay of the
             sequential loop *)
          [ run 0 only ]
      | _ when not use_domains ->
          run_interleaved ~problem ~vars ~deadline:round_deadline ~decision
            ~pool ~best ~origin_counter ~ext_interrupt:interrupt ~on_cex
            round_configs
      | _ ->
          (* ambient span context (the serve request id) and the
             hash-consing scope are per-domain state: capture them here
             and re-install in each worker so the spawned solvers' events
             stay correlated to the request and their expressions share
             the run's nodes *)
          let ctx = Telemetry.current_context () in
          let scope = Expr.current_scope () in
          let domains =
            List.mapi
              (fun i c ->
                Domain.spawn (fun () ->
                    Expr.with_scope scope (fun () ->
                        with_runtime_request ctx (fun () ->
                            Telemetry.with_context ctx (fun () -> run i c)))))
              round_configs
          in
          List.map Domain.join domains
    in
    let workers =
      List.map2
        (fun config o ->
          {
            config;
            stats = o.w_stats;
            shared_out = o.w_out;
            shared_in = o.w_in;
            finished = o.w_finished;
          })
        round_configs outcomes
    in
    let acc_workers = acc_workers @ workers in
    match Atomic.get decision with
    | Some _ -> (acc_workers, round_configs, r + 1)
    | None ->
        if round_deadline >= deadline || interrupt () then
          (acc_workers, round_configs, r + 1)
        else rounds (r + 1) acc_workers (reseed_configs (r + 1) configs)
  in
  let workers, last_configs, rounds_run = rounds 0 [] configs in
  let wall_clock = Unix.gettimeofday () -. start in
  let winner_config i = Some (List.nth last_configs i) in
  let report winner =
    {
      workers;
      winner;
      wall_clock;
      rounds = rounds_run;
      totals = Report.Stats.sum (List.map (fun w -> w.stats) workers);
    }
  in
  let finish outcome =
    if Telemetry.enabled () then begin
      let r = Report.outcome_info outcome in
      Telemetry.point "portfolio.winner"
        ~fields:
          [
            ("outcome", Telemetry.str (Report.outcome_kind outcome));
            ( "winner",
              Telemetry.str
                (match r.winner with
                | Some c -> config_to_string c
                | None -> "-") );
            ("rounds", Telemetry.int r.rounds);
            ("wall_s", Telemetry.float r.wall_clock);
            ( "iterations",
              Telemetry.int r.totals.Report.Stats.iterations );
          ]
    end;
    outcome
  in
  match Atomic.get decision with
  | Some (Winner (i, code)) ->
      finish (Report.Synthesized (code, report (winner_config i)))
  | Some (Proved_unsat i) -> finish (Report.Unsat_config (report (winner_config i)))
  | None -> (
      match best_get best with
      | Some (code, _) -> finish (Report.Partial (code, report None))
      | None -> finish (Report.Timed_out (report None)))

(* ---------- verification race ---------- *)

type verify_outcome = Holds | Refuted of Bitvec.t | Unknown

let verify_strategies =
  [
    ("comb", `Comb);
    ("sat-seq", `Sat Card.Sequential);
    ("sat-tot", `Sat Card.Totalizer);
    ("sat-adder", `Sat Card.Adder);
  ]

let verify_min_distance ?(timeout = 120.0) ?(jobs = 4) code m =
  if jobs < 1 then invalid_arg "Portfolio.verify_min_distance: jobs must be >= 1";
  let start = Unix.gettimeofday () in
  let deadline = start +. timeout in
  let stop = Atomic.make false in
  let decision = Atomic.make None in
  let strategies =
    List.filteri (fun i _ -> i < jobs) verify_strategies
  in
  let interrupt () = Atomic.get stop || Unix.gettimeofday () > deadline in
  let decide name answer =
    if Atomic.compare_and_set decision None (Some (name, answer)) then
      Atomic.set stop true
  in
  let run (name, strategy) =
    try
      let answer =
        match strategy with
        | `Comb -> (
            match Hamming.Distance.counterexample ~interrupt code m with
            | None -> Holds
            | Some d -> Refuted d)
        | `Sat encoding -> (
            match
              Hamming.Distance.sat_counterexample ~deadline ~interrupt
                ~encoding code m
            with
            | None -> Holds
            | Some d -> Refuted d)
      in
      decide name answer
    with Ctx.Timeout | Ctx.Interrupted -> ()
  in
  (match strategies with
  | [ only ] -> run only
  | _ ->
      let ctx = Telemetry.current_context () in
      let scope = Expr.current_scope () in
      let domains =
        List.map
          (fun s ->
            Domain.spawn (fun () ->
                Expr.with_scope scope (fun () ->
                    with_runtime_request ctx (fun () ->
                        Telemetry.with_context ctx (fun () -> run s)))))
          strategies
      in
      List.iter Domain.join domains);
  let wall_clock = Unix.gettimeofday () -. start in
  match Atomic.get decision with
  | Some (name, answer) -> (answer, name, wall_clock)
  | None -> (Unknown, "-", wall_clock)

(* ---------- rendering ---------- *)

let pp_report fmt r =
  Format.fprintf fmt
    "portfolio: %d workers, wall %.3fs, %d iterations, %d conflicts, %d round%s@."
    (List.length r.workers) r.wall_clock r.totals.Report.Stats.iterations
    (r.totals.Report.Stats.syn_conflicts + r.totals.Report.Stats.ver_conflicts)
    r.rounds
    (if r.rounds = 1 then "" else "s");
  (match r.winner with
  | Some c -> Format.fprintf fmt "winner: %s@." (config_to_string c)
  | None -> Format.fprintf fmt "winner: none (timed out)@.");
  List.iter
    (fun w ->
      Format.fprintf fmt
        "  %-40s iters=%-4d vcalls=%-4d syn_cf=%-6d ver_cf=%-6d out=%-3d in=%-3d%s%s@."
        (config_to_string w.config) w.stats.Report.Stats.iterations
        w.stats.Report.Stats.verifier_calls w.stats.Report.Stats.syn_conflicts
        w.stats.Report.Stats.ver_conflicts w.shared_out w.shared_in
        (if w.stats.Report.Stats.worker_crashes > 0 then
           Printf.sprintf " crashes=%d restarts=%d"
             w.stats.Report.Stats.worker_crashes
             w.stats.Report.Stats.worker_restarts
         else "")
        (if w.finished then "  <- decided" else ""))
    r.workers

let report_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ( "workers",
        J.List
          (List.map
             (fun w ->
               J.Obj
                 [
                   ("config", J.Str (config_to_string w.config));
                   ("stats", Report.Stats.to_json w.stats);
                   ("shared_out", J.Int w.shared_out);
                   ("shared_in", J.Int w.shared_in);
                   ("finished", J.Bool w.finished);
                 ])
             r.workers) );
      ( "winner",
        match r.winner with
        | Some c -> J.Str (config_to_string c)
        | None -> J.Null );
      ("wall_clock_s", J.Float r.wall_clock);
      ("rounds", J.Int r.rounds);
      ("totals", Report.Stats.to_json r.totals);
    ]
