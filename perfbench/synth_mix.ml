(* synth-mix: one in-process caller runs [Session.run_sync] sequentially
   over a seeded draw of Synth specs and Table 1 optimize walks (k = 4,
   md 3-8).  Portfolio and cache are off and the ledger goes to a scratch
   directory, so the solver layers (sat, smtlite, cegis, optimize) do
   nearly all the work, in both find and prove-infeasible modes.

   A round is a fixed bag of 63 jobs; the seed only orders it.  A run
   plays [round_s] seconds' worth of whole rounds (at least one), so every
   run measures the same mix the same number of times.  The traced pass
   records the library's own spans inside each [run_sync] call, and also
   replays each distinct job through [Cegis.create_session]/[Cegis.step]
   with identical parameters; the replay must reproduce the run's
   iteration count exactly. *)

open Common

type job = Synth of { k : int; c : int; md : int } | Opt of { k : int; md : int }

let label = function
  | Synth { k; c; md } -> Printf.sprintf "synth(%d,%d,%d)" k c md
  | Opt { k; md } -> Printf.sprintf "optimize(k=%d,md=%d)" k md

let prop k c md =
  Printf.sprintf "len_G = 1 && len_d(G[0]) = %d && len_c(G[0]) = %d && md(G[0]) = %d" k c md

(* No usage data exists for this traffic, so the mix is stipulated.  It
   holds the example jobs of the workload's definition -- the Synth specs
   (10,10,5), (16,12,5), (20,12,5), (12,15,7) and the (13,15,7) knee, and
   the Table 1 optimize walks at k = 4, md 3-8 -- each tagged with its
   cost tier, by cold solve time on a 2-vCPU VM: 0 under 100 ms, 1 up to
   1 s, 2 beyond.  A designer is taken to resubmit a job three times as
   often as one a tier dearer: a job of tier [t] comes [3^(2-t)] times a
   round, 63 jobs and about 12 s.  With a fixed bag every latency
   quantile is some job's latency: here p50 is the md 5 walk's and p95
   the slowest (12,15,7) of the run; the per-job medians are printed with
   every run. *)
let jobs =
  [
    (Opt { k = 4; md = 3 }, 0);
    (Opt { k = 4; md = 4 }, 0);
    (Synth { k = 10; c = 10; md = 5 }, 0);
    (Synth { k = 16; c = 12; md = 5 }, 0);
    (Opt { k = 4; md = 5 }, 0);
    (Opt { k = 4; md = 6 }, 0);
    (Synth { k = 20; c = 12; md = 5 }, 1);
    (Synth { k = 12; c = 15; md = 7 }, 1);
    (Synth { k = 13; c = 15; md = 7 }, 2);
    (Opt { k = 4; md = 7 }, 2);
    (Opt { k = 4; md = 8 }, 2);
  ]

let round = List.map (fun (j, tier) -> (j, int_of_float (3.0 ** float_of_int (2 - tier)))) jobs

(* nominal length of a round, in seconds *)
let round_s = 10.0

(* the short round a traced run of another workload uses as its probe *)
let probe_round =
  [
    (Synth { k = 16; c = 12; md = 5 }, 1);
    (Synth { k = 10; c = 10; md = 5 }, 2);
    (Synth { k = 12; c = 6; md = 4 }, 2);
    (Opt { k = 4; md = 5 }, 1);
    (Opt { k = 4; md = 3 }, 2);
  ]

let request ~ledger job =
  let j =
    match job with
    | Synth { k; c; md } ->
        Fec_session.Session.Synth
          { prop = prop k c md; weights = None; portfolio = false; jobs = 1 }
    | Opt { k; md } ->
        Fec_session.Session.Optimize { data_len = k; md; check_lo = 1; check_hi = 16 }
  in
  {
    (Fec_session.Session.default_request j) with
    cache = false;
    ledger_dir = Some ledger;
    timeout = 60.0;
  }

(* the answer's generator and stats, checked by the oracle *)
let answer job (r : Fec_session.Session.result) =
  match (job, r.Fec_session.Session.outcome) with
  | Synth { k; c; md }, Fec_session.Session.Codes ([ code ], stats) ->
      (Oracle.check_generator ~data_len:k ~check_len:c ~md code, Some (code, stats))
  | Opt { k; md }, Fec_session.Session.Optimized (cr, stats) ->
      ( Oracle.check_optimize ~data_len:k ~md ~check_len:cr.Synth.Optimize.check_len
          cr.Synth.Optimize.code,
        Some (cr.Synth.Optimize.code, stats) )
  | _ -> (Error "unexpected outcome", None)

type sample = {
  req : int;
  job : job;
  wall : float;  (** seconds in [run_sync] *)
  stats : Synth.Report.Stats.t option;
  code : Hamming.Code.t option;
}

let run_job ~ledger ~wrong ~req job =
  match
    timed (fun () ->
        Span.span ~req "session.run_sync" (fun parent ->
            Span.adopt ~req ~parent (fun () -> Fec_session.Session.run_sync (request ~ledger job))))
  with
  | exception e ->
      Printf.eprintf "synth-mix: %s raised %s\n%!" (label job) (Printexc.to_string e);
      None
  | { Fec_session.Session.outcome = Timeout _ | Partial _; _ }, _ ->
      (* out of budget: a failed request, not a wrong answer *)
      Printf.eprintf "synth-mix: %s timed out\n%!" (label job);
      None
  | r, wall ->
      let verdict, got = answer job r in
      (match verdict with Ok () -> () | Error e -> wrong := (label job ^ ": " ^ e) :: !wrong);
      Some { req; job; wall; stats = Option.map snd got; code = Option.map fst got }

(* ---------- the replay ---------- *)

type replay = { iterations : int; probes : int }

(* One CEGIS configuration driven step by step: [`Done] or [`Exhausted]. *)
let replay_config ~req ~k ~c ~md =
  let problem = { Synth.Cegis.data_len = k; check_len = c; min_distance = md; extra = [] } in
  let s = Span.span ~req "smtlite.encode" (fun _ -> Synth.Cegis.create_session problem) in
  let rec go () =
    match Span.span ~req "cegis.step" (fun _ -> Synth.Cegis.step s) with
    | Synth.Cegis.Done _ -> `Done
    | Synth.Cegis.Exhausted -> `Exhausted
    | Synth.Cegis.Progress _ -> go ()
  in
  let verdict = go () in
  (verdict, (Synth.Cegis.session_stats s).Synth.Report.Stats.iterations)

let replay ~req = function
  | Synth { k; c; md } ->
      let _, iterations = replay_config ~req ~k ~c ~md in
      { iterations; probes = 1 }
  | Opt { k; md } ->
      (* the walk of [Optimize.minimize_check_len] from check length 1 *)
      let rec walk c acc =
        let verdict, it = replay_config ~req ~k ~c ~md in
        let acc = { iterations = acc.iterations + it; probes = acc.probes + 1 } in
        match verdict with `Done -> acc | `Exhausted -> if c >= 16 then acc else walk (c + 1) acc
      in
      walk 1 { iterations = 0; probes = 0 }

(* ---------- the pass ---------- *)

(* [in_child f] runs [f ()] in a forked child and returns its result.
   Every round goes through it, so each starts from the heap set-up left:
   the library keeps memory from every Synth run (the smtlite hash-cons
   table is never emptied), so one long-lived caller's heap grows about
   90 MiB a round, each round slower than the last.  The child's spans
   and allocation are folded back into the parent's. *)
let in_child f =
  flush_all ();
  let mark = Span.mark () in
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      (* the child never returns into the caller's code *)
      (try
         Unix.close r;
         let oc = Unix.out_channel_of_descr w in
         let m0 = Gc.minor_words () in
         let v =
           match f () with
           | v -> Ok (v, Span.since mark, Gc.minor_words () -. m0)
           | exception e -> Error (Printexc.to_string e)
         in
         Marshal.to_channel oc v [ Marshal.Closures ];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Marshal.from_channel ic with End_of_file | Failure _ -> Error "round process died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with
      | Ok (v, spans, minor) ->
          Span.merge spans;
          child_minor_words := !child_minor_words +. minor;
          v
      | Error e -> failwith ("synth-mix round: " ^ e))

let expand bag = List.concat_map (fun (j, n) -> List.init n (fun _ -> j)) bag

let setup_once ~dir ~wrong ~rep =
  let ledger = Filename.concat dir (Printf.sprintf "ledger-%d" rep) in
  mkdir_p ledger;
  Oracle.forget ();
  (* synthesize the probe round's fixtures once, so first-call costs
     (build identity, ledger creation, heap growth) land here rather than
     in the first measured requests *)
  List.iter (fun (j, _) -> ignore (run_job ~ledger ~wrong ~req:0 j)) probe_round;
  ledger

let measure ?(probe = false) ~dir ~seed ~seconds ~wrong () =
  let ledger, first_setup = timed (fun () -> setup_once ~dir ~wrong ~rep:0) in
  let setups = ref [ first_setup ] in
  let bag = if probe then probe_round else round in
  let rng = Random.State.make [| seed |] in
  let samples = ref [] and failed = ref 0 and req = ref 0 and hwm = ref (self_hwm_mb ()) in
  let per_round = ref [] in
  (* traced: the first instance of each distinct job is replayed right
     after it, outside its timed request *)
  let replays = Hashtbl.create 16 in
  let play order =
    let mine = ref [] and lost = ref 0 and bad = ref [] and fresh = ref [] in
    Array.iteri
      (fun i job ->
        let req = !req + i + 1 in
        match run_job ~ledger ~wrong:bad ~req job with
        | Some s ->
            mine := s :: !mine;
            if !Span.on && not (Hashtbl.mem replays job || List.mem_assoc job !fresh) then
              fresh := (job, replay ~req job) :: !fresh
        | None -> incr lost)
      order;
    (!mine, !lost, !bad, !fresh, self_hwm_mb ())
  in
  let rec rounds k =
    let order = Array.of_list (expand bag) in
    shuffle rng order;
    let mine, lost, bad, fresh, round_hwm = in_child (fun () -> play order) in
    samples := mine @ !samples;
    per_round := List.map (fun s -> s.wall) mine :: !per_round;
    failed := !failed + lost;
    wrong := bad @ !wrong;
    List.iter (fun (j, r) -> Hashtbl.replace replays j r) fresh;
    hwm := Float.max !hwm round_hwm;
    req := !req + Array.length order;
    (* set up again after every round: spread over the run, the
       repetitions meet the machine as the requests do, and their median
       is the set-up time *)
    setups := snd (timed (fun () -> setup_once ~dir ~wrong ~rep:(List.length !setups))) :: !setups;
    if k > 1 then rounds (k - 1)
  in
  rounds (max 1 (Float.to_int (Float.round (seconds /. round_s))));
  let samples = List.rev !samples in
  let walls = List.map (fun s -> s.wall) samples in
  (* one sequential caller: answers per second of time spent in requests,
     leaving out the benchmark's own checking between them.  Throughput
     and p50 are medians of the per-round figures, so one round slowed by
     the machine does not move them; p95 needs the whole run's samples. *)
  let rps = median (List.map (fun ws -> float_of_int (List.length ws) /. sum ws) !per_round) in
  let p50 = median (List.map median !per_round) in
  let n = List.length samples + !failed in
  let distinct = List.sort_uniq compare (List.map fst bag) in
  let first j = List.find_opt (fun s -> s.job = j) samples in
  let codes = List.filter_map (fun j -> Option.bind (first j) (fun s -> s.code)) distinct in
  let e2e =
    [
      metric "setup_s" "s" (median !setups) ~samples:(List.length !setups);
      metric "requests_per_s" "1/s" rps ~samples:n;
      metric "latency_p50_ms" "ms" (p50 *. 1e3) ~samples:(List.length walls);
      ms_p "latency_p95_ms" 0.95 walls;
      metric "peak_rss_mb" "MiB" (Float.max !hwm (self_hwm_mb ()));
    ]
  in
  let layers =
    if not !Span.on then []
    else begin
      List.iter
        (fun s ->
          match (s.stats, Hashtbl.find_opt replays s.job) with
          | Some st, Some r when st.Synth.Report.Stats.iterations <> r.iterations ->
              wrong :=
                Printf.sprintf "%s: replay took %d iterations, run_sync %d" (label s.job)
                  r.iterations st.Synth.Report.Stats.iterations
                :: !wrong
          | _ -> ())
        samples;
      let stat f =
        List.fold_left
          (fun acc j ->
            match Option.bind (first j) (fun s -> s.stats) with Some st -> acc + f st | None -> acc)
          0 distinct
      in
      let iterations = stat (fun st -> st.Synth.Report.Stats.iterations) in
      let count name v = metric ~samples:(List.length distinct) name "count" (float_of_int v) in
      let steps = Span.durations "cegis.step" in
      (* per job, the share of its [run_sync] span covered by the library
         spans recorded under it *)
      let attributed =
        List.filter_map
          (fun ((s : Span.t), self) ->
            if s.name = "session.run_sync" && s.req <> 0 then Some (100.0 *. (1.0 -. (self /. Span.dur s)))
            else None)
          (Span.self_times (Span.all ()))
      in
      Printf.eprintf "  attributed_pct: median %.1f%%, min %.1f%% over %d jobs\n" (median attributed)
        (quantile attributed 0.0) (List.length attributed);
      let overhead =
        List.filter_map
          (fun s -> Option.map (fun st -> s.wall -. st.Synth.Report.Stats.elapsed) s.stats)
          samples
      in
      [
        ms_p "session.overhead_ms_p50" 0.5 overhead;
        ms_p "smtlite.encode_ms_p50" 0.5 (Span.durations "smtlite.encode");
        ms_p "cegis.step_ms_p50" 0.5 steps;
        ms_p "cegis.step_ms_p95" 0.95 steps;
        count "cegis.iterations" iterations;
        count "cegis.syn_conflicts" (stat (fun st -> st.Synth.Report.Stats.syn_conflicts));
        count "cegis.ver_conflicts" (stat (fun st -> st.Synth.Report.Stats.ver_conflicts));
        metric ~samples:(List.length codes) "cegis.candidates_per_answer" "count"
          (float_of_int iterations /. float_of_int (max 1 (List.length codes)));
        count "optimize.probes"
          (Hashtbl.fold
             (fun j r acc -> match j with Opt _ -> acc + r.probes | Synth _ -> acc)
             replays 0);
        count "synth.answer_set_bits"
          (List.fold_left (fun acc c -> acc + Hamming.Code.set_bits c) 0 codes);
        metric ~samples:(List.length attributed) "attributed_pct" "%" (median attributed);
      ]
    end
  in
  (* per-spec medians, for the human table *)
  List.iter
    (fun j ->
      let ws = List.filter_map (fun s -> if s.job = j then Some s.wall else None) samples in
      Printf.eprintf "  %-24s n=%-4d median %8.2f ms\n" (label j) (List.length ws) (median ws *. 1e3))
    distinct;
  { e2e; layers; headline = rps; attempted = n; failed = !failed }
