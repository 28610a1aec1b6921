(* Durability and analytics tests for the run ledger (Telemetry.Ledger),
   the dashboard (Telemetry.Html) and the build-identity record
   (Telemetry.Buildinfo): round-trips for every outcome variant,
   truncated-tail tolerance, future-version rejection, concurrent append
   leaving only whole records, nearest-rank quantiles, trend verdicts,
   and HTML well-formedness. *)

module L = Telemetry.Ledger
module J = Telemetry.Json

let build =
  {
    Telemetry.Buildinfo.code_version = "1.0.0";
    git = Some "abc1234-dirty";
    ocaml = "5.1.1";
    features = [ "ledger"; "telemetry" ];
  }

let entry ?(ts = "2026-08-07T00:00:00Z") ?(cmd = "synth")
    ?(problem = "md(G[0]) = 3") ?(outcome = "synthesized") ?(exit_code = 0)
    ?(wall = 0.25) ?(config = [ ("timeout", "120.") ])
    ?(metrics = [ ("wall_s", 0.25); ("stats.iterations", 7.0) ])
    ?(cache_hit = false) ?stats () =
  {
    L.version = L.format_version;
    ts;
    subcommand = cmd;
    problem;
    outcome;
    exit_code;
    cache_hit;
    wall_s = wall;
    build;
    config;
    metrics;
    stats;
  }

let roundtrip e =
  match L.of_json (J.of_string (L.render e)) with
  | Ok e' -> e'
  | Error (`Malformed m) -> Alcotest.failf "malformed round-trip: %s" m
  | Error (`Future v) -> Alcotest.failf "future round-trip: v%d" v

(* every outcome the CLI can record, failures included *)
let all_outcomes =
  [
    ("synthesized", 0); ("unsat", 3); ("timeout", 4); ("partial", 5);
    ("interrupted", 130); ("verified", 0); ("refuted", 1); ("certified", 0);
    ("ok", 0); ("error", 2); ("crash", 2);
  ]

let test_roundtrip () =
  List.iter
    (fun (outcome, exit_code) ->
      let e =
        entry ~outcome ~exit_code
          ~stats:(J.Obj [ ("iterations", J.Int 7) ])
          ()
      in
      let e' = roundtrip e in
      Alcotest.(check string) "outcome" outcome e'.L.outcome;
      Alcotest.(check int) "exit" exit_code e'.L.exit_code;
      Alcotest.(check string) "ts" e.L.ts e'.L.ts;
      Alcotest.(check string) "cmd" e.L.subcommand e'.L.subcommand;
      Alcotest.(check string) "problem" e.L.problem e'.L.problem;
      Alcotest.(check (list (pair string string))) "config" e.L.config
        e'.L.config;
      Alcotest.(check (list (pair string (float 1e-9)))) "metrics" e.L.metrics
        e'.L.metrics;
      Alcotest.(check bool) "stats kept" true (e'.L.stats <> None);
      Alcotest.(check string) "build git" "abc1234-dirty"
        (Option.get e'.L.build.Telemetry.Buildinfo.git))
    all_outcomes

(* problem strings carrying every character the HTML and JSON layers must
   escape survive the trip *)
let test_roundtrip_hostile_strings () =
  let problem = {|md(G[0]) >= 3 && "x" < 'y' & <tag> \ |} ^ "\t\n" in
  let e' = roundtrip (entry ~problem ()) in
  Alcotest.(check string) "hostile problem" problem e'.L.problem

let test_truncated_tail () =
  let whole = L.render (entry ()) ^ "\n" in
  let torn = whole ^ String.sub whole 0 (String.length whole / 2) in
  match L.of_string torn with
  | Error m -> Alcotest.failf "torn tail rejected: %s" m
  | Ok l ->
      Alcotest.(check int) "whole records" 1 (List.length l.L.entries);
      Alcotest.(check bool) "flagged" true l.L.truncated

let test_midfile_garbage_rejected () =
  let whole = L.render (entry ()) ^ "\n" in
  match L.of_string (whole ^ "{broken\n" ^ whole) with
  | Error m ->
      Alcotest.(check bool) "names the line" true
        (String.length m > 0 && String.sub m 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "mid-file corruption must be an error"

let test_future_version_skipped () =
  let future =
    {|{"v":99,"ts":"2030-01-01T00:00:00Z","cmd":"synth","outcome":"alien"}|}
  in
  let whole = L.render (entry ()) ^ "\n" in
  match L.of_string (whole ^ future ^ "\n" ^ whole) with
  | Error m -> Alcotest.failf "future record broke the reader: %s" m
  | Ok l ->
      Alcotest.(check int) "readable records" 2 (List.length l.L.entries);
      Alcotest.(check int) "skipped" 1 l.L.skipped_future;
      Alcotest.(check bool) "not truncated" false l.L.truncated

let test_missing_file_is_empty () =
  match L.load ~dir:"/nonexistent-fecsynth-test-dir" with
  | Ok l ->
      Alcotest.(check int) "no entries" 0 (List.length l.L.entries)
  | Error m -> Alcotest.failf "missing ledger must read as empty: %s" m

(* two processes appending concurrently must interleave whole records,
   never bytes: the single-O_APPEND-write discipline *)
let test_concurrent_append () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fec-ledger-test-%d" (Unix.getpid ()))
  in
  let per_child = 50 in
  let spawn tag =
    match Unix.fork () with
    | 0 ->
        for i = 1 to per_child do
          L.append ~dir
            (entry
               ~problem:(Printf.sprintf "%s-%d" tag i)
               ~metrics:[ ("wall_s", float_of_int i) ]
               ())
        done;
        Unix._exit 0
    | pid -> pid
  in
  let pids = [ spawn "a"; spawn "b" ] in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  (match L.load ~dir with
  | Error m -> Alcotest.failf "concurrent ledger corrupt: %s" m
  | Ok l ->
      Alcotest.(check int) "all records whole" (2 * per_child)
        (List.length l.L.entries);
      Alcotest.(check bool) "no torn tail" false l.L.truncated;
      let count tag =
        List.length
          (List.filter
             (fun e ->
               String.length e.L.problem > 2 && String.sub e.L.problem 0 2
               = tag ^ "-")
             l.L.entries)
      in
      Alcotest.(check int) "a's records" per_child (count "a");
      Alcotest.(check int) "b's records" per_child (count "b"));
  Sys.remove (L.file ~dir);
  Unix.rmdir dir

let test_quantile () =
  let values = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (option (float 0.0))) "p50" (Some 3.0)
    (L.quantile values 0.5);
  Alcotest.(check (option (float 0.0))) "p95" (Some 5.0)
    (L.quantile values 0.95);
  Alcotest.(check (option (float 0.0))) "p0 -> min" (Some 1.0)
    (L.quantile values 0.0);
  Alcotest.(check (option (float 0.0))) "empty" None (L.quantile [] 0.5);
  (* agrees with the metrics histogram's nearest-rank convention *)
  let h =
    List.fold_left
      (fun h v -> Telemetry.Metrics.Hist.observe h v)
      Telemetry.Metrics.Hist.zero [ 5; 1; 4; 2; 3 ]
  in
  Alcotest.(check (option int)) "hist p50" (Some 3)
    (Telemetry.Metrics.Hist.quantile h 0.5)

let series_of points =
  { L.s_cmd = "synth"; s_problem = "p"; s_metric = "wall_s"; points }

let test_trend () =
  let t =
    L.trend ~threshold:25.0
      (series_of [ ("t1", 1.0); ("t2", 1.1); ("t3", 0.9); ("t4", 2.0) ])
  in
  Alcotest.(check int) "n" 4 t.L.n;
  Alcotest.(check (float 1e-9)) "last" 2.0 t.L.last;
  (* baseline = median of {1.0, 1.1, 0.9} = 1.0; last doubled *)
  Alcotest.(check (float 1e-6)) "pct" 100.0
    (Option.get t.L.pct_vs_baseline);
  Alcotest.(check bool) "regression" true t.L.regression;
  let ok =
    L.trend ~threshold:25.0 (series_of [ ("t1", 1.0); ("t2", 1.1) ])
  in
  Alcotest.(check bool) "within threshold" false ok.L.regression;
  let single = L.trend ~threshold:25.0 (series_of [ ("t1", 1.0) ]) in
  Alcotest.(check bool) "single point is baseline" true
    (single.L.pct_vs_baseline = None && not single.L.regression);
  (* zero baseline growing = infinite regression, the Analyze.diff rule *)
  let inf =
    L.trend ~threshold:25.0 (series_of [ ("t1", 0.0); ("t2", 1.0) ])
  in
  Alcotest.(check bool) "zero baseline -> inf" true
    (Option.get inf.L.pct_vs_baseline = infinity && inf.L.regression)

let test_series () =
  let entries =
    [
      entry ~ts:"t1" ~cmd:"synth" ~problem:"A"
        ~metrics:[ ("wall_s", 1.0); ("stats.iterations", 5.0) ]
        ();
      entry ~ts:"t2" ~cmd:"synth" ~problem:"B" ~metrics:[ ("wall_s", 2.0) ] ();
      entry ~ts:"t3" ~cmd:"synth" ~problem:"A" ~metrics:[ ("wall_s", 3.0) ] ();
      entry ~ts:"t4" ~cmd:"bench" ~problem:"A" ~metrics:[ ("wall_s", 4.0) ] ();
    ]
  in
  let ss = L.series ~metric:"wall_s" entries in
  Alcotest.(check int) "per (cmd,problem,key)" 3 (List.length ss);
  let a = List.find (fun s -> s.L.s_problem = "A" && s.L.s_cmd = "synth") ss in
  Alcotest.(check (list (pair string (float 0.0)))) "oldest first"
    [ ("t1", 1.0); ("t3", 3.0) ]
    a.L.points;
  let only_bench = L.series ~subcommand:"bench" ~metric:"wall_s" entries in
  Alcotest.(check int) "subcommand filter" 1 (List.length only_bench);
  let iters = L.series ~metric:"iterations" entries in
  Alcotest.(check int) "metric substring" 1 (List.length iters)

let test_html_well_formed () =
  let entries =
    List.mapi
      (fun i (outcome, exit_code) ->
        entry
          ~ts:(Printf.sprintf "2026-08-07T00:00:%02dZ" i)
          ~outcome ~exit_code
          ~problem:{|md >= 3 && "x" < <y> & z|}
          ~metrics:
            [
              ("wall_s", 0.1 *. float_of_int (i + 1));
              ("stats.syn_conflicts", 10.0);
              ("stats.ver_conflicts", 4.0);
            ]
          ())
      all_outcomes
  in
  let html = Telemetry.Html.render entries in
  (match Telemetry.Html.well_formed html with
  | Ok () -> ()
  | Error m -> Alcotest.failf "dashboard not well-formed: %s" m);
  (* the empty ledger renders too *)
  (match Telemetry.Html.well_formed (Telemetry.Html.render []) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "empty dashboard not well-formed: %s" m)

let test_html_checker_negatives () =
  let bad = [ "<div><span></div>"; "<div>"; "</p>"; "<div><a href=\"https://x\"></a></div>" ] in
  List.iter
    (fun h ->
      match Telemetry.Html.well_formed h with
      | Ok () -> Alcotest.failf "checker accepted %S" h
      | Error _ -> ())
    bad;
  (* void elements and comments are fine *)
  match Telemetry.Html.well_formed "<div><!-- c --><meta charset=\"utf-8\"><br></div>" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "void/comment rejected: %s" m

(* the ledger's flat stats keys are a wire format: renames break
   [runs trend --metric stats.*] across releases *)
let test_stats_metrics_keys () =
  let stats =
    {
      Synth.Report.Stats.zero with
      Synth.Report.Stats.iterations = 3;
      verifier_calls = 2;
      elapsed = 0.5;
      syn_conflicts = 7;
      ver_conflicts = 1;
    }
  in
  let m = Synth.Report.Stats.to_metrics stats in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k m))
    [
      "stats.iterations"; "stats.verifier_calls"; "stats.elapsed_s";
      "stats.syn_conflicts"; "stats.ver_conflicts"; "stats.worker_crashes";
      "stats.worker_restarts";
    ];
  Alcotest.(check (float 0.0)) "iterations value" 3.0
    (List.assoc "stats.iterations" m);
  (* empty histogram -> no quantile keys *)
  Alcotest.(check bool) "no p50 for empty hist" false
    (List.mem_assoc "stats.learnt_size_p50" m)

let test_buildinfo_lenient () =
  let b = Telemetry.Buildinfo.of_json J.Null in
  Alcotest.(check string) "version ?" "?" b.Telemetry.Buildinfo.code_version;
  Alcotest.(check bool) "no git" true (b.Telemetry.Buildinfo.git = None);
  let b' =
    Telemetry.Buildinfo.of_json
      (Telemetry.Buildinfo.to_json
         { build with Telemetry.Buildinfo.git = None })
  in
  Alcotest.(check bool) "git null round-trips" true
    (b'.Telemetry.Buildinfo.git = None)

(* ---------- crash-safe recovery: tail repair, in-flight journal ---------- *)

let tmpdir () =
  let d = Filename.temp_file "fec-ledger" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* past any realistic pid_max: liveness probes answer ESRCH *)
let dead_pid = 99_999_999

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_repair_tail () =
  let dir = tmpdir () in
  L.append ~dir (entry ());
  (* a crash mid-append leaves a torn half-record with no newline *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (L.file ~dir) in
  output_string oc {|{"v":1,"ts":"2026-|};
  close_out oc;
  (match L.load ~dir with
  | Ok l -> Alcotest.(check bool) "torn tail detected" true l.L.truncated
  | Error m -> Alcotest.failf "load: %s" m);
  Alcotest.(check bool) "tail repaired" true (L.repair_tail ~dir);
  (match L.load ~dir with
  | Ok l ->
      Alcotest.(check bool) "clean after repair" false l.L.truncated;
      Alcotest.(check int) "whole record kept" 1 (List.length l.L.entries)
  | Error m -> Alcotest.failf "load after repair: %s" m);
  Alcotest.(check bool) "repair is idempotent" false (L.repair_tail ~dir)

let test_journal_lifecycle () =
  let dir = tmpdir () in
  let jdir = Filename.concat dir "inflight" in
  let p =
    L.start ~dir ~ts:"2026-08-08T00:00:00Z" ~subcommand:"serve"
      ~problem:"md(G[0]) = 3" ~config:[] ~build ()
  in
  Alcotest.(check int) "start writes one journal" 1
    (Array.length (Sys.readdir jdir));
  L.finish p ~outcome:"ok" ~exit_code:0;
  Alcotest.(check int) "finish removes it" 0
    (Array.length (Sys.readdir jdir))

let test_deferred_journal () =
  let dir = tmpdir () in
  let jdir = Filename.concat dir "inflight" in
  let start () =
    L.start ~dir ~journaled:false ~ts:"2026-08-08T00:00:00Z"
      ~subcommand:"serve" ~problem:"md(G[0]) = 3" ~config:[] ~build ()
  in
  let journals () =
    if Sys.file_exists jdir then Array.length (Sys.readdir jdir) else 0
  in
  let p = start () in
  Alcotest.(check int) "deferred start writes none" 0 (journals ());
  L.journal p;
  L.journal p;
  Alcotest.(check int) "journal writes one, once" 1 (journals ());
  L.finish p ~outcome:"ok" ~exit_code:0;
  Alcotest.(check int) "finish removes it" 0 (journals ());
  let q = start () in
  L.finish q ~outcome:"ok" ~exit_code:0;
  L.journal q;
  Alcotest.(check int) "no journal after finish" 0 (journals ())

let test_scavenge_recovers_crash () =
  let dir = tmpdir () in
  let jdir = Filename.concat dir "inflight" in
  Unix.mkdir jdir 0o755;
  let crash_line =
    L.render (entry ~cmd:"serve" ~outcome:"crash" ~exit_code:2 ()) ^ "\n"
  in
  let dead = Filename.concat jdir (Printf.sprintf "%d.0" dead_pid) in
  let live = Filename.concat jdir (Printf.sprintf "%d.0" (Unix.getpid ())) in
  let torn = Filename.concat jdir (Printf.sprintf "%d.1" dead_pid) in
  write_file dead crash_line;
  write_file live crash_line;
  (* killed mid-journal-write: unparseable, must be dropped silently *)
  write_file torn {|{"v":1,"ts|};
  let recovered, repaired = L.scavenge ~dir in
  Alcotest.(check int) "one in-flight run recovered" 1 recovered;
  Alcotest.(check bool) "no tail to repair" false repaired;
  (match L.load ~dir with
  | Ok l -> (
      Alcotest.(check int) "crash record appended" 1
        (List.length l.L.entries);
      match l.L.entries with
      | [ e ] -> Alcotest.(check string) "outcome" "crash" e.L.outcome
      | _ -> Alcotest.fail "expected exactly one entry")
  | Error m -> Alcotest.failf "load after scavenge: %s" m);
  Alcotest.(check bool) "dead journal removed" false (Sys.file_exists dead);
  Alcotest.(check bool) "torn journal removed" false (Sys.file_exists torn);
  Alcotest.(check bool) "live journal kept" true (Sys.file_exists live);
  let recovered2, _ = L.scavenge ~dir in
  Alcotest.(check int) "second scavenge finds nothing" 0 recovered2

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "roundtrip all outcomes" `Quick test_roundtrip;
          Alcotest.test_case "hostile strings" `Quick
            test_roundtrip_hostile_strings;
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_truncated_tail;
          Alcotest.test_case "mid-file garbage rejected" `Quick
            test_midfile_garbage_rejected;
          Alcotest.test_case "future version skipped" `Quick
            test_future_version_skipped;
          Alcotest.test_case "missing file empty" `Quick
            test_missing_file_is_empty;
          Alcotest.test_case "concurrent append" `Quick test_concurrent_append;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn tail repaired" `Quick test_repair_tail;
          Alcotest.test_case "in-flight journal lifecycle" `Quick
            test_journal_lifecycle;
          Alcotest.test_case "deferred journal" `Quick test_deferred_journal;
          Alcotest.test_case "scavenge turns dead journals into crash \
                              records" `Quick test_scavenge_recovers_crash;
        ] );
      ( "trend",
        [
          Alcotest.test_case "nearest-rank quantile" `Quick test_quantile;
          Alcotest.test_case "trend verdicts" `Quick test_trend;
          Alcotest.test_case "series grouping" `Quick test_series;
        ] );
      ( "html",
        [
          Alcotest.test_case "dashboard well-formed" `Quick
            test_html_well_formed;
          Alcotest.test_case "checker negatives" `Quick
            test_html_checker_negatives;
        ] );
      ( "buildinfo",
        [
          Alcotest.test_case "stats metric keys stable" `Quick
            test_stats_metrics_keys;
          Alcotest.test_case "lenient decode" `Quick test_buildinfo_lenient;
        ] );
    ]
