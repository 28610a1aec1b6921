(* The session layer's cache: canonical keys must be injective on
   semantically distinct tasks (and only those), and the on-disk entry
   envelope must serve bit-identical results on a hit while treating any
   corruption, collision or stale certificate as a recoverable miss. *)

module D = Synth.Driver
module Key = Fec_session.Key
module Cache = Fec_session.Cache

let qtest = QCheck_alcotest.to_alcotest

let single ?(fixed_bits = []) ?len1_max ~data_len ~check_lo ~check_hi ~md () =
  { D.data_len; check_lo; check_hi; md; len1_max; fixed_bits }

(* ---------- canonicalization ---------- *)

let test_fixed_bits_order () =
  let fb = [ (0, 4, true); (1, 5, false); (3, 6, true) ] in
  let permuted = [ (3, 6, true); (0, 4, true); (1, 5, false) ] in
  let duplicated = fb @ [ (0, 4, true); (3, 6, true) ] in
  let mk fixed_bits =
    Key.canonical
      (D.Fixed (single ~fixed_bits ~data_len:4 ~check_lo:3 ~check_hi:3 ~md:3 ()))
  in
  Alcotest.(check string) "permuted conjuncts" (mk fb) (mk permuted);
  Alcotest.(check string) "duplicated conjuncts" (mk fb) (mk duplicated)

let test_one_point_walk_is_fixed () =
  let s = single ~data_len:4 ~check_lo:3 ~check_hi:3 ~md:3 () in
  Alcotest.(check string) "minimal(len_c) over one point"
    (Key.canonical (D.Fixed s))
    (Key.canonical (D.Min_check_len s));
  let interval = single ~data_len:4 ~check_lo:1 ~check_hi:8 ~md:3 () in
  Alcotest.(check bool) "real interval stays a walk" false
    (Key.canonical (D.Fixed interval)
    = Key.canonical (D.Min_check_len interval))

let test_out_of_band_inputs () =
  let t = D.Fixed (single ~data_len:4 ~check_lo:3 ~check_hi:3 ~md:3 ()) in
  let base = Key.canonical t in
  Alcotest.(check bool) "weights change the key" false
    (base = Key.canonical ~weights:[| 1; 2; 3; 4 |] t);
  Alcotest.(check bool) "channel p changes the key" false
    (base = Key.canonical ~p:0.1 t);
  Alcotest.(check bool) "distinct p distinct keys" false
    (Key.canonical ~p:0.1 t = Key.canonical ~p:0.2 t)

(* ---------- qcheck: keys collide exactly on semantic identity ---------- *)

(* The test's independent normal form: what [Key.canonical] promises to
   quotient by — fixed-bit order/duplicates and the one-point-walk alias —
   and nothing else. *)
let norm (task, weights, p) =
  let norm_single (s : D.single) =
    { s with D.fixed_bits = List.sort_uniq compare s.D.fixed_bits }
  in
  let t =
    match task with
    | D.Fixed s -> D.Fixed (norm_single s)
    | D.Min_check_len s when s.D.check_lo = s.D.check_hi ->
        D.Fixed (norm_single s)
    | D.Min_check_len s -> D.Min_check_len (norm_single s)
    | D.Min_set_bits (s, b) -> D.Min_set_bits (norm_single s, b)
    | D.Max_distance s -> D.Max_distance (norm_single s)
    | D.Weighted_mapping _ -> task
  in
  (t, Option.map Array.to_list weights, p)

let canonical_of (task, weights, p) = Key.canonical ?weights ?p task

let gen_task =
  QCheck.Gen.(
    let gen_single =
      int_range 1 16 >>= fun data_len ->
      int_range 1 12 >>= fun check_lo ->
      int_range 0 4 >>= fun span ->
      int_range 1 8 >>= fun md ->
      opt (int_range 1 24) >>= fun len1_max ->
      list_size (int_range 0 4)
        (triple (int_range 0 15) (int_range 0 27) bool)
      >>= fun fixed_bits ->
      return
        (single ~fixed_bits ?len1_max ~data_len ~check_lo
           ~check_hi:(check_lo + span) ~md ())
    in
    gen_single >>= fun s ->
    oneof
      [
        return (D.Fixed s);
        return (D.Min_check_len s);
        (int_range 1 32 >>= fun b -> return (D.Min_set_bits (s, b)));
        return (D.Max_distance s);
      ]
    >>= fun task ->
    opt (array_size (int_range 1 4) (int_range 0 9)) >>= fun weights ->
    opt (oneofl [ 0.001; 0.01; 0.1; 0.25; 0.5 ]) >>= fun p ->
    return (task, weights, p))

(* Half the pairs are independent draws (the no-collision direction), half
   are semantic aliases of one draw (the must-collide direction): the same
   task with shuffled/duplicated fixed bits, or the one-point walk spelled
   as either constructor. *)
let gen_pair =
  QCheck.Gen.(
    gen_task >>= fun a ->
    bool >>= fun alias ->
    if not alias then gen_task >>= fun b -> return (a, b)
    else
      let task, weights, p = a in
      let respell s =
        shuffle_l s.D.fixed_bits >>= fun shuffled ->
        bool >>= fun dup ->
        let fb =
          if dup && shuffled <> [] then List.hd shuffled :: shuffled
          else shuffled
        in
        return { s with D.fixed_bits = fb }
      in
      (match task with
      | D.Fixed s when s.D.check_lo = s.D.check_hi ->
          respell s >>= fun s ->
          oneofl [ D.Fixed s; D.Min_check_len s ]
      | D.Fixed s -> respell s >>= fun s -> return (D.Fixed s)
      | D.Min_check_len s when s.D.check_lo = s.D.check_hi ->
          respell s >>= fun s ->
          oneofl [ D.Fixed s; D.Min_check_len s ]
      | D.Min_check_len s -> respell s >>= fun s -> return (D.Min_check_len s)
      | D.Min_set_bits (s, b) ->
          respell s >>= fun s -> return (D.Min_set_bits (s, b))
      | D.Max_distance s -> respell s >>= fun s -> return (D.Max_distance s)
      | D.Weighted_mapping _ -> return task)
      >>= fun task -> return (a, (task, weights, p)))

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "%s  |  %s" (canonical_of a) (canonical_of b))
    gen_pair

let qcheck_no_collision =
  QCheck.Test.make
    ~name:"canonical keys collide exactly on semantically identical specs"
    ~count:10_000 arb_pair (fun (a, b) ->
      (canonical_of a = canonical_of b) = (norm a = norm b))

(* ---------- cache entries ---------- *)

let tmpdir () =
  let d = Filename.temp_file "fecsynth-session" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let hamming74 = "1000101\n0100011\n0010110\n0001111"

let entry ~key ?(md = 3) () =
  {
    Cache.key;
    created = "2026-08-08T00:00:00Z";
    code = Hamming.Code.of_string hamming74;
    check_len = 3;
    md;
    verified_md = 3;
    iterations = 11;
    elapsed = 0.5;
  }

let task74 = D.Fixed (single ~data_len:4 ~check_lo:3 ~check_hi:3 ~md:3 ())

let test_roundtrip_bit_identical () =
  let dir = tmpdir () in
  let key, digest = Key.of_task task74 in
  let e = entry ~key () in
  Cache.store ~dir ~digest e;
  match Cache.lookup ~dir ~digest ~key with
  | None -> Alcotest.fail "stored entry did not hit"
  | Some got ->
      Alcotest.(check string) "generator bit-identical" hamming74
        (Hamming.Code.to_string got.Cache.code);
      Alcotest.(check string) "key preserved" key got.Cache.key;
      Alcotest.(check int) "iterations" 11 got.Cache.iterations;
      Alcotest.(check (float 1e-9)) "elapsed" 0.5 got.Cache.elapsed;
      Alcotest.(check int) "md" 3 got.Cache.md

let test_collision_guard () =
  let dir = tmpdir () in
  let key, digest = Key.of_task task74 in
  Cache.store ~dir ~digest (entry ~key ());
  (* same digest file, different canonical key: must be a miss, never a
     wrong answer *)
  Alcotest.(check bool) "foreign key misses" true
    (Cache.lookup ~dir ~digest ~key:(key ^ " p=0x1p-1") = None)

let test_corrupt_entry_recovered () =
  let dir = tmpdir () in
  let key, digest = Key.of_task task74 in
  Cache.store ~dir ~digest (entry ~key ());
  let path = Filename.concat dir (digest ^ ".entry") in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flip = Bytes.of_string raw in
  (* flip one payload bit without touching the CRC trailer *)
  let i = String.length raw / 2 in
  Bytes.set flip i (Char.chr (Char.code (Bytes.get flip i) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc flip;
  close_out oc;
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Cache.lookup ~dir ~digest ~key = None);
  (* the recompute path: a fresh store overwrites the corpse and hits *)
  Cache.store ~dir ~digest (entry ~key ());
  Alcotest.(check bool) "recomputed entry hits" true
    (Cache.lookup ~dir ~digest ~key <> None)

let test_truncated_entry_is_miss () =
  let dir = tmpdir () in
  let key, digest = Key.of_task task74 in
  Cache.store ~dir ~digest (entry ~key ());
  let path = Filename.concat dir (digest ^ ".entry") in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub raw 0 (String.length raw / 2));
  close_out oc;
  Alcotest.(check bool) "truncated entry is a miss" true
    (Cache.lookup ~dir ~digest ~key = None)

let test_stale_certificate_rejected () =
  let dir = tmpdir () in
  (* claim md 4 for a code whose true minimum distance is 3: the CRC is
     fine but the hit-side re-verification must refuse to serve it *)
  let task = D.Fixed (single ~data_len:4 ~check_lo:3 ~check_hi:3 ~md:4 ()) in
  let key, digest = Key.of_task task in
  Cache.store ~dir ~digest (entry ~key ~md:4 ());
  Alcotest.(check bool) "overclaimed distance is a miss" true
    (Cache.lookup ~dir ~digest ~key = None)

let test_missing_dir_misses () =
  let key, digest = Key.of_task task74 in
  Alcotest.(check bool) "no cache dir is a miss" true
    (Cache.lookup ~dir:"/nonexistent/fecsynth-cache" ~digest ~key = None)

(* ---------- warm-start pools ---------- *)

let test_warm_start_pools () =
  let dir = tmpdir () in
  let cex_data =
    Synth.Cegis.Cex_data (Gf2.Bitvec.init 4 (fun i -> i mod 2 = 0))
  in
  let cex_cand =
    Synth.Cegis.Cex_candidate (Hamming.Code.of_string hamming74)
  in
  Cache.save_pool ~dir ~digest:"aa" ~data_len:4 ~check_len:3 ~md:3
    [ cex_data; cex_cand ];
  Cache.save_pool ~dir ~digest:"bb" ~data_len:5 ~check_len:4 ~md:3
    [ cex_data ];
  Alcotest.(check int) "matching pool replayed" 2
    (List.length (Cache.warm_start ~dir ~data_len:4 ~md:3));
  Alcotest.(check int) "mismatched dimensions filtered" 0
    (List.length (Cache.warm_start ~dir ~data_len:6 ~md:3));
  (* a corrupt pool is skipped, not fatal *)
  let oc = open_out_bin (Filename.concat dir "aa.pool") in
  output_string oc "not a checkpoint";
  close_out oc;
  Alcotest.(check int) "corrupt pool skipped" 0
    (List.length (Cache.warm_start ~dir ~data_len:4 ~md:3))

(* ---------- run-scoped hash-consing ---------- *)

module Session = Fec_session.Session
module Expr = Smtlite.Expr

let synth_request ~k ~c ~md =
  let prop =
    Printf.sprintf "len_G = 1 && len_d(G[0]) = %d && len_c(G[0]) = %d && md(G[0]) = %d"
      k c md
  in
  {
    (Session.default_request
       (Session.Synth { prop; weights = None; portfolio = false; jobs = 1 }))
    with
    Session.no_ledger = true;
  }

let test_run_sync_repeatable () =
  (* each run hash-conses into a scope of its own: a second run in the
     same process rebuilds the same uid order and so the same CEGIS
     trajectory, and nothing lands in the process-wide table *)
  let global = Expr.current_scope () in
  let before = Expr.scope_size global in
  let counts ?(k = 10) ?(c = 10) ?(md = 5) () =
    match (Session.run_sync (synth_request ~k ~c ~md)).Session.outcome with
    | Session.Codes (_, st) ->
        (st.Synth.Report.Stats.iterations, st.Synth.Report.Stats.syn_conflicts)
    | _ -> Alcotest.failf "(%d,%d,%d) did not synthesize" k c md
  in
  let first = counts () in
  Alcotest.(check (pair int int)) "second run identical" first (counts ());
  (* pinned trajectories: an encoding change that is meant to leave the
     search alone must leave these counts alone *)
  Alcotest.(check (pair int int)) "(10,10,5) iterations, syn conflicts" (29, 57) first;
  Alcotest.(check (pair int int)) "(12,15,7) iterations, syn conflicts" (84, 375)
    (counts ~k:12 ~c:15 ~md:7 ());
  Alcotest.(check int) "process-wide scope untouched" before (Expr.scope_size global)

(* ---------- run_sync outcome table ---------- *)

let prop_of ~k ~c ~md = Printf.sprintf "len_d(G[0]) = %d && len_c(G[0]) = %d && md(G[0]) = %d" k c md

let synth_job prop = Session.Synth { prop; weights = None; portfolio = false; jobs = 1 }

let walk_prop = "len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) <= 8 && md(G[0]) = 4 && minimal(len_c(G[0]))"

(* run a request against a ledger of its own; the outcome string is read
   back from what the run recorded *)
let run_recorded ?(timeout = 60.0) ?cache_dir job =
  let ledger = tmpdir () in
  let request =
    {
      (Session.default_request job) with
      Session.timeout;
      ledger_dir = Some ledger;
      cache = cache_dir <> None;
      cache_dir;
    }
  in
  let r = Session.run_sync request in
  match Telemetry.Ledger.load ~dir:ledger with
  | Ok { Telemetry.Ledger.entries = [ e ]; _ } -> (r, e)
  | Ok _ -> Alcotest.fail "expected exactly one ledger record"
  | Error e -> Alcotest.failf "ledger unreadable: %s" e

let constructor = function
  | Session.Codes _ -> "Codes"
  | Session.Optimized _ -> "Optimized"
  | Session.Setbits _ -> "Setbits"
  | Session.Weighted _ -> "Weighted"
  | Session.Partial _ -> "Partial"
  | Session.Unsat _ -> "Unsat"
  | Session.Timeout _ -> "Timeout"

let test_outcome_table () =
  let cache_dir = tmpdir () in
  let cached = synth_job (prop_of ~k:4 ~c:3 ~md:3) in
  ignore (run_recorded ~cache_dir cached);
  List.iter
    (fun (name, run, want, exit_code, ledger_outcome) ->
      let r, e = run () in
      Alcotest.(check string) (name ^ ": constructor") want (constructor r.Session.outcome);
      Alcotest.(check int) (name ^ ": exit code") exit_code r.Session.exit_code;
      Alcotest.(check int) (name ^ ": ledger exit code") exit_code e.Telemetry.Ledger.exit_code;
      Alcotest.(check string) (name ^ ": ledger outcome") ledger_outcome e.Telemetry.Ledger.outcome)
    [
      ("synth fixed", (fun () -> run_recorded (synth_job (prop_of ~k:4 ~c:3 ~md:3))), "Codes", 0, "synthesized");
      ("synth minimal(len_c)", (fun () -> run_recorded (synth_job walk_prop)), "Codes", 0, "synthesized");
      ( "optimize",
        (fun () -> run_recorded (Session.Optimize { data_len = 4; md = 4; check_lo = 1; check_hi = 8 })),
        "Optimized",
        0,
        "synthesized" );
      ("unsat", (fun () -> run_recorded (synth_job (prop_of ~k:4 ~c:2 ~md:4))), "Unsat", 3, "unsat");
      ( "expired budget",
        (fun () -> run_recorded ~timeout:0.0 (synth_job (prop_of ~k:4 ~c:3 ~md:3))),
        "Timeout",
        4,
        "timeout" );
      ("cache hit", (fun () -> run_recorded ~cache_dir cached), "Codes", 0, "synthesized");
    ];
  let r, e = run_recorded ~cache_dir cached in
  Alcotest.(check bool) "cache hit flagged" true r.Session.cache_hit;
  Alcotest.(check bool) "cache hit recorded" true e.Telemetry.Ledger.cache_hit

let iterations_of r =
  match r.Session.outcome with
  | Session.Codes (_, st) | Session.Optimized (_, st) -> st.Synth.Report.Stats.iterations
  | _ -> Alcotest.fail "expected a synthesized outcome"

let test_walk_totals () =
  (* a synth minimal(len_c) walk and the optimize job over the same
     interval are one walk: both report the stats summed over every
     length tried *)
  let synth, _ = run_recorded (synth_job walk_prop) in
  let opt, _ = run_recorded (Session.Optimize { data_len = 4; md = 4; check_lo = 1; check_hi = 8 }) in
  Alcotest.(check int) "optimize totals" 11 (iterations_of opt);
  Alcotest.(check int) "synth walk totals" (iterations_of opt) (iterations_of synth)

let test_hit_writes_no_journal () =
  (* a miss journals its in-flight record before solving (the journal
     directory appears, emptied again on finish); a cache hit finishes
     without writing one *)
  let cache_dir = tmpdir () in
  let run () =
    let ledger = tmpdir () in
    let request =
      {
        (Session.default_request (synth_job (prop_of ~k:4 ~c:3 ~md:3))) with
        Session.ledger_dir = Some ledger;
        cache = true;
        cache_dir = Some cache_dir;
      }
    in
    let r = Session.run_sync request in
    let inflight = Filename.concat ledger "inflight" in
    (* the journal directory's entry count, None when it was never made *)
    (r.Session.cache_hit, if Sys.file_exists inflight then Some (Array.length (Sys.readdir inflight)) else None)
  in
  Alcotest.(check (pair bool (option int))) "miss: journaled, then removed" (false, Some 0) (run ());
  Alcotest.(check (pair bool (option int))) "hit: never journaled" (true, None) (run ())

let test_portfolio_shares_scope () =
  (* both portfolio spawn sites (the synthesis race and the verification
     race) must carry the caller's scope into their worker domains *)
  let global = Expr.current_scope () in
  let before = Expr.scope_size global in
  let scope = Expr.new_scope () in
  let problem =
    { Synth.Cegis.data_len = 6; check_len = 5; min_distance = 4; extra = [] }
  in
  Expr.with_scope scope (fun () ->
      match
        Synth.Portfolio.synthesize ~timeout:60.0 ~jobs:2 ~scheduler:`Domains problem
      with
      | Synth.Report.Synthesized (code, report) ->
          Alcotest.(check int) "2 workers" 2 (List.length report.Synth.Portfolio.workers);
          let answer, _, _ = Synth.Portfolio.verify_min_distance ~timeout:60.0 ~jobs:3 code 4 in
          Alcotest.(check bool) "verified" true (answer = Synth.Portfolio.Holds)
      | _ -> Alcotest.fail "(6,5,4) did not synthesize");
  Alcotest.(check int) "no worker built into the process-wide scope" before
    (Expr.scope_size global);
  Alcotest.(check bool) "the run's nodes live in its scope" true (Expr.scope_size scope > 2)

let () =
  Alcotest.run "session"
    [
      ( "key",
        [
          Alcotest.test_case "fixed-bit order and duplicates" `Quick
            test_fixed_bits_order;
          Alcotest.test_case "one-point walk aliases fixed" `Quick
            test_one_point_walk_is_fixed;
          Alcotest.test_case "weights and p are part of the key" `Quick
            test_out_of_band_inputs;
          qtest qcheck_no_collision;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit is bit-identical" `Quick
            test_roundtrip_bit_identical;
          Alcotest.test_case "digest collision degrades to miss" `Quick
            test_collision_guard;
          Alcotest.test_case "corrupt entry rejected then recomputed" `Quick
            test_corrupt_entry_recovered;
          Alcotest.test_case "truncated entry is a miss" `Quick
            test_truncated_entry_is_miss;
          Alcotest.test_case "stale certificate rejected" `Quick
            test_stale_certificate_rejected;
          Alcotest.test_case "missing directory is a miss" `Quick
            test_missing_dir_misses;
        ] );
      ( "pools",
        [
          Alcotest.test_case "warm starts filter on problem shape" `Quick
            test_warm_start_pools;
        ] );
      ( "scope",
        [
          Alcotest.test_case "run_sync is repeatable in one process" `Quick
            test_run_sync_repeatable;
          Alcotest.test_case "portfolio workers share the run's scope" `Quick
            test_portfolio_shares_scope;
        ] );
      ( "run",
        [
          Alcotest.test_case "outcome, exit code and ledger outcome" `Quick
            test_outcome_table;
          Alcotest.test_case "a minimal(len_c) walk reports its totals" `Quick
            test_walk_totals;
          Alcotest.test_case "a cache hit writes no crash journal" `Quick
            test_hit_writes_no_journal;
        ] );
    ]
