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

(* What every worker of a race shares; [deadline] is the current round's. *)
type race = {
  problem : Cegis.problem;
  vars : Expr.t array array;
  deadline : float;
  stop : bool Atomic.t;
  stop_at : float Atomic.t;  (** when [stop] was raised *)
  decision : decision option Atomic.t;
  pool : pool;
  best : best;
  origin_counter : int Atomic.t;
  interrupt : unit -> bool;  (** the caller's, e.g. Ctrl-C *)
  on_cex : Cegis.cex -> unit;
}

(* One supervised worker, stepped by either scheduler.  [index] is its slot
   within the round (who to credit in the decision).  Each incarnation
   takes a fresh [origin] from the shared counter, unique across rounds and
   restarts, so a restarted worker re-imports everything the pool holds,
   including what its previous incarnation published.  [attempt] counts
   the incarnations started after a crash, so it is also the restart
   count. *)
type worker = {
  race : race;
  index : int;
  config : config;
  mutable session : Cegis.session option;  (** [None] until (re)started *)
  mutable origin : int;
  mutable cursor : int;
  mutable published : int;
  mutable consumed : int;
  mutable crashes : int;
  mutable attempt : int;
  mutable finished : bool;  (** this worker decided the race *)
  mutable acc : Report.Stats.t;  (** stats of retired incarnations *)
}

(* What a scheduler does with a worker after a [step]. *)
type next = Continue | Back_off of float | Stop

let worker race index config =
  {
    race;
    index;
    config;
    session = None;
    origin = -1;
    cursor = 0;
    published = 0;
    consumed = 0;
    crashes = 0;
    attempt = 0;
    finished = false;
    acc = Report.Stats.zero;
  }

(* Incarnation [attempt] of a worker diversifies its solver seed so a
   crashed search does not replay the trajectory that crashed (or stalled)
   it. *)
let start w =
  Fault.probe "worker.start";
  let c = w.config and r = w.race in
  let seed =
    if w.attempt = 0 then c.seed
    else Some (Option.value c.seed ~default:0 + (104729 * w.attempt))
  in
  w.origin <- Atomic.fetch_and_add r.origin_counter 1;
  w.cursor <- 0;
  w.session <-
    Some
      (Cegis.create_session ~cex_mode:c.cex_mode ~verifier:c.verifier
         ~encoding:c.encoding ?seed ~vars:r.vars
         ~interrupt:(fun () -> Atomic.get r.stop || r.interrupt ())
         r.problem)

(* fold the current incarnation's learning into the worker totals, once *)
let merge w =
  match w.session with
  | None -> ()
  | Some s ->
      best_offer w.race.best (Cegis.session_best s);
      w.acc <- Report.Stats.add w.acc (Cegis.session_stats s);
      w.session <- None

let decide w d =
  let r = w.race in
  if Atomic.compare_and_set r.decision None (Some d) then begin
    w.finished <- true;
    Atomic.set r.stop_at (Unix.gettimeofday ());
    Atomic.set r.stop true
  end;
  Stop

let label_field w = [ ("worker", Telemetry.str w.config.label) ]

(* Drain the counterexamples other workers published since the last turn,
   take one turn, and publish this turn's counterexample. *)
let take_turn w s =
  let r = w.race in
  let fresh, len = pool_drain r.pool ~cursor:w.cursor ~self:w.origin in
  w.cursor <- len;
  if fresh <> [] then begin
    w.consumed <- w.consumed + List.length fresh;
    Telemetry.counter "portfolio.consume" ~fields:(label_field w)
      (List.length fresh);
    List.iter (Cegis.learn s) fresh
  end;
  match Cegis.turn ~deadline:r.deadline s with
  | None -> Stop
  | Some (Cegis.Done code) -> decide w (Winner (w.index, code))
  | Some Cegis.Exhausted ->
      (* sound globally: every imported constraint is implied by the
         specification, so an unsat synthesizer context refutes the whole
         configuration, not just this worker's search *)
      decide w (Proved_unsat w.index)
  | Some (Cegis.Progress cex) ->
      if pool_publish r.pool w.origin cex then begin
        w.published <- w.published + 1;
        r.on_cex cex;
        Telemetry.counter "portfolio.publish" ~fields:(label_field w) 1
      end;
      Continue

let crash w e =
  merge w;
  w.crashes <- w.crashes + 1;
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.seed = Option.value w.config.seed ~default:0;
    }
  in
  match
    Supervisor.on_crash policy ~label:w.config.label ~attempt:w.attempt e
  with
  | None -> Stop
  | Some delay ->
      w.attempt <- w.attempt + 1;
      Back_off delay

(* A worker with no session starts one; otherwise it takes a turn.  Any
   exception is a crash — the turn has already absorbed cooperative
   cancellation — answered by {!Supervisor.on_crash}: a restart with a
   fresh seed on the next step, or giving up. *)
let step w =
  match w.session with
  | None -> (
      match start w with () -> Continue | exception e -> crash w e)
  | Some s -> ( match take_turn w s with n -> n | exception e -> crash w e)

let retire w =
  merge w;
  {
    config = w.config;
    stats =
      {
        w.acc with
        Report.Stats.worker_crashes = w.crashes;
        worker_restarts = w.attempt;
      };
    shared_out = w.published;
    shared_in = w.consumed;
    finished = w.finished;
  }

(* the fields both schedulers report for a retired worker *)
let tally_fields ws =
  [
    ("iterations", Telemetry.int ws.stats.Report.Stats.iterations);
    ("published", Telemetry.int ws.shared_out);
    ("consumed", Telemetry.int ws.shared_in);
    ("finished", Telemetry.bool ws.finished);
    ("crashes", Telemetry.int ws.stats.Report.Stats.worker_crashes);
  ]

let id_fields w =
  label_field w @ [ ("config", Telemetry.str (config_to_string w.config)) ]

(* The domains scheduler (and [jobs = 1], inline): one worker stepped to
   the end in its own domain inside a [portfolio.worker] span, sleeping the
   backoff delay after a crash.  A loser reports how long cooperative
   cancellation took. *)
let run_alone w =
  let sp = Telemetry.begin_span "portfolio.worker" ~fields:(id_fields w) in
  let rec go () =
    match step w with
    | Continue -> go ()
    | Back_off delay ->
        if delay > 0.0 then Unix.sleepf delay;
        go ()
    | Stop -> ()
  in
  go ();
  let r = w.race in
  if Telemetry.enabled () && (not w.finished) && Atomic.get r.stop then begin
    let t0 = Atomic.get r.stop_at in
    if t0 > 0.0 then
      Telemetry.gauge "portfolio.cancel_latency" ~fields:(label_field w)
        (Unix.gettimeofday () -. t0)
  end;
  let ws = retire w in
  Telemetry.end_span sp ~fields:(tally_fields ws);
  ws

(* The interleaved scheduler: K workers in the calling domain, one step
   each per rotation.  On a host without spare cores this has the same
   semantics and sharing behaviour as spawned domains but none of the
   scheduler noise: pool-arrival order is fixed by the rotation, so the
   whole race is deterministic for seeded configurations.  It skips the
   backoff sleep, which would stall every worker.  One domain cannot nest
   overlapping spans, so each worker is reported as a point. *)
let interleave workers =
  let rec spin = function
    | [] -> ()
    | ws ->
        spin
          (List.filter
             (fun w -> (not (Atomic.get w.race.stop)) && step w <> Stop)
             ws)
  in
  spin workers;
  List.map
    (fun w ->
      let ws = retire w in
      if Telemetry.enabled () then
        Telemetry.point "portfolio.worker"
          ~fields:(id_fields w @ tally_fields ws);
      ws)
    workers

(* Ambient span context (the serve request id) and the hash-consing scope
   are per-domain state: capture them in the parent and re-install them in
   the spawned domain, so its solvers' events stay correlated to the
   request and its expressions share the run's nodes.  The runtime lens,
   when live, needs the request id as a ring beacon too, so GC intervals
   on the new domain's ring are attributed to the request. *)
let spawn f =
  let ctx = Telemetry.current_context () in
  let scope = Expr.current_scope () in
  let in_request f =
    match List.assoc_opt "request" ctx with
    | Some (Telemetry.Sink.Str rid) when Telemetry.Runtime.active () ->
        Telemetry.Runtime.set_request (Some rid);
        Fun.protect ~finally:(fun () -> Telemetry.Runtime.set_request None) f
    | _ -> f ()
  in
  Domain.spawn (fun () ->
      Expr.with_scope scope (fun () ->
          in_request (fun () -> Telemetry.with_context ctx f)))

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
  let race =
    {
      problem;
      vars;
      deadline;
      stop = Atomic.make false;
      stop_at = Atomic.make 0.0;
      decision = Atomic.make None;
      pool = pool_create ();
      best = best_create ();
      (* origins are unique across rounds, workers and supervised restarts;
         -1 marks resumed counterexamples so every worker imports them *)
      origin_counter = Atomic.make 0;
      interrupt;
      on_cex;
    }
  in
  List.iter (fun cex -> ignore (pool_publish race.pool (-1) cex)) initial;
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
    Atomic.set race.stop false;
    if Telemetry.enabled () then
      Telemetry.point "portfolio.round"
        ~fields:
          [
            ("round", Telemetry.int r);
            ("budget_s", Telemetry.float (round_deadline -. now));
          ];
    let round = { race with deadline = round_deadline } in
    let workers =
      match List.mapi (worker round) round_configs with
      | [ only ] ->
          (* jobs = 1: run inline, no domain — deterministic replay of the
             sequential loop *)
          [ run_alone only ]
      | ws when not use_domains -> interleave ws
      | ws ->
          List.map Domain.join
            (List.map (fun w -> spawn (fun () -> run_alone w)) ws)
    in
    let acc_workers = acc_workers @ workers in
    match Atomic.get race.decision with
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
      totals =
        Report.Stats.sum (List.map (fun (w : worker_stats) -> w.stats) workers);
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
  match Atomic.get race.decision with
  | Some (Winner (i, code)) ->
      finish (Report.Synthesized (code, report (winner_config i)))
  | Some (Proved_unsat i) -> finish (Report.Unsat_config (report (winner_config i)))
  | None -> (
      match best_get race.best with
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
      List.iter Domain.join
        (List.map (fun s -> spawn (fun () -> run s)) strategies));
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
    (fun (w : worker_stats) ->
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
             (fun (w : worker_stats) ->
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
