(* Tests for Telemetry.Analyze: NDJSON parsing (including the tolerated
   truncated tail), trace validation (unbalanced spans, out-of-order
   timestamps), span self-times, the folded-stack golden output, phase
   attribution (a real synthesized trace, overlapping roots, open spans,
   request slices), and metric diffing with the regression-threshold
   semantics the bench gate relies on. *)

module T = Telemetry
module An = Telemetry.Analyze
module Sink = Telemetry.Sink

let parse_exn content =
  match An.of_string content with
  | Ok p -> p
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

(* ---------------------------------------------------------------- *)
(* parsing                                                           *)
(* ---------------------------------------------------------------- *)

let test_parse_basic () =
  let p =
    parse_exn
      "{\"ts\":0.5,\"kind\":\"event\",\"name\":\"x\",\"extra\":3}\n\
       {\"ts\":0.6,\"kind\":\"counter\",\"name\":\"c\",\"value\":2}\n"
  in
  Alcotest.(check int) "two events" 2 (List.length p.An.events);
  Alcotest.(check bool) "not truncated" false p.An.truncated;
  match p.An.events with
  | [ Sink.Point { fields; _ }; Sink.Counter { value; _ } ] ->
      Alcotest.(check bool) "custom field kept" true
        (List.mem_assoc "extra" fields);
      Alcotest.(check int) "counter value" 2 value
  | _ -> Alcotest.fail "unexpected event shapes"

let test_parse_truncated_tail () =
  let p =
    parse_exn
      "{\"ts\":0.5,\"kind\":\"event\",\"name\":\"x\"}\n{\"ts\":0.6,\"ki"
  in
  Alcotest.(check int) "one surviving event" 1 (List.length p.An.events);
  Alcotest.(check bool) "flagged truncated" true p.An.truncated

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_parse_rejects_midfile_garbage () =
  match An.of_string "{\"ts\":0.5,\"kind\":\"event\",\"name\":\"x\"}\nnope\n" with
  | Ok _ -> Alcotest.fail "midfile garbage accepted"
  | Error msg ->
      Alcotest.(check bool) "names line 2" true (contains ~sub:"line 2" msg)

(* ---------------------------------------------------------------- *)
(* validation                                                        *)
(* ---------------------------------------------------------------- *)

let test_check_unbalanced () =
  let p =
    parse_exn
      "{\"ts\":0.1,\"kind\":\"span_begin\",\"id\":1,\"name\":\"a\"}\n\
       {\"ts\":0.2,\"kind\":\"span_end\",\"id\":7,\"name\":\"ghost\",\"dur\":0.1}\n"
  in
  let c = An.check p in
  (* id 1 never closes, id 7 never opened *)
  Alcotest.(check int) "unbalanced" 2 c.An.unbalanced_spans

let test_check_out_of_order () =
  let p =
    parse_exn
      "{\"ts\":1.0,\"kind\":\"event\",\"name\":\"a\"}\n\
       {\"ts\":0.2,\"kind\":\"event\",\"name\":\"b\"}\n\
       {\"ts\":0.99,\"kind\":\"event\",\"name\":\"c\"}\n"
  in
  let c = An.check p in
  (* 1.0 -> 0.2 regresses beyond the slack; 0.2 -> 0.99 does not, but the
     high-water mark stays 1.0 and 0.99 is within slack of it *)
  Alcotest.(check int) "one regression" 1 c.An.out_of_order

let test_check_workers_are_separate_streams () =
  let p =
    parse_exn
      "{\"ts\":1.0,\"kind\":\"event\",\"name\":\"a\",\"worker\":1}\n\
       {\"ts\":0.2,\"kind\":\"event\",\"name\":\"b\",\"worker\":2}\n"
  in
  Alcotest.(check int) "per-worker streams" 0 (An.check p).An.out_of_order

let test_check_clean () =
  let p =
    parse_exn
      "{\"ts\":0.1,\"kind\":\"span_begin\",\"id\":1,\"name\":\"a\"}\n\
       {\"ts\":0.2,\"kind\":\"span_end\",\"id\":1,\"name\":\"a\",\"dur\":0.1}\n"
  in
  let c = An.check p in
  Alcotest.(check int) "balanced" 0 c.An.unbalanced_spans;
  Alcotest.(check int) "ordered" 0 c.An.out_of_order;
  Alcotest.(check int) "total" 2 c.An.total

let test_check_unknown_fields () =
  let p =
    parse_exn
      "{\"ts\":0.1,\"kind\":\"event\",\"name\":\"x\",\"frobnicate\":1}\n\
       {\"ts\":0.2,\"kind\":\"event\",\"name\":\"y\",\"request\":\"r1-0\",\"worker\":2}\n\
       {\"ts\":0.3,\"kind\":\"event\",\"name\":\"z\",\"frobnicate\":2,\"zorp\":true}\n"
  in
  let c = An.check p in
  Alcotest.(check int) "two events carry unknown fields" 2 c.An.unknown_fields;
  Alcotest.(check (list string))
    "names deduped and sorted" [ "frobnicate"; "zorp" ]
    c.An.unknown_field_names

let test_check_known_fields_silent () =
  (* the fields this build's own emitters stamp must never warn *)
  let p =
    parse_exn
      "{\"ts\":0.1,\"kind\":\"event\",\"name\":\"serve.admit\",\"request\":\"r1-0\",\"session\":3,\"queue_depth\":0}\n\
       {\"ts\":0.2,\"kind\":\"span_begin\",\"id\":1,\"name\":\"serve.request\",\"request\":\"r1-0\",\"worker\":\"0\",\"queue_wait_s\":\"0.010\"}\n\
       {\"ts\":0.4,\"kind\":\"span_end\",\"id\":1,\"name\":\"serve.request\",\"dur\":0.2,\"request\":\"r1-0\"}\n"
  in
  let c = An.check p in
  Alcotest.(check int) "no unknown fields" 0 c.An.unknown_fields

(* ---------------------------------------------------------------- *)
(* request slicing                                                   *)
(* ---------------------------------------------------------------- *)

(* an admission point, then the full request span with a nested solve;
   an unrelated request's event interleaves *)
let request_trace =
  "{\"ts\":0.0,\"kind\":\"event\",\"name\":\"serve.admit\",\"request\":\"r1-0\"}\n\
   {\"ts\":0.5,\"kind\":\"span_begin\",\"id\":1,\"name\":\"serve.request\",\"request\":\"r1-0\"}\n\
   {\"ts\":0.6,\"kind\":\"span_begin\",\"id\":2,\"parent\":1,\"name\":\"sat.solve\",\"request\":\"r1-0\"}\n\
   {\"ts\":1.4,\"kind\":\"span_end\",\"id\":2,\"name\":\"sat.solve\",\"dur\":0.8,\"request\":\"r1-0\"}\n\
   {\"ts\":1.5,\"kind\":\"span_end\",\"id\":1,\"name\":\"serve.request\",\"dur\":1.0,\"request\":\"r1-0\"}\n\
   {\"ts\":2.0,\"kind\":\"event\",\"name\":\"serve.admit\",\"request\":\"r2-0\"}\n"

let test_request_report_slices () =
  let p = parse_exn request_trace in
  (match An.request_ids p with
  | (busiest, n) :: _ ->
      Alcotest.(check string) "busiest request" "r1-0" busiest;
      Alcotest.(check int) "its event count" 5 n
  | [] -> Alcotest.fail "no request ids found");
  match An.report ~request:"r1-0" p with
  | None -> Alcotest.fail "slice not found"
  | Some r ->
      Alcotest.(check (option string)) "request id" (Some "r1-0") r.An.request;
      Alcotest.(check int) "events in slice" 5 r.An.events;
      Alcotest.(check (float 1e-9)) "wall" 1.5 r.An.wall_s;
      Alcotest.(check (float 1e-9)) "queue wait" 0.5 r.An.queue_wait_s;
      Alcotest.(check int) "no open spans" 0 r.An.open_spans;
      (* queue wait [0, 0.5] plus the root span [0.5, 1.5] tile the wall *)
      Alcotest.(check (float 1e-9)) "fully attributed" 1.5 r.An.attributed_s;
      Alcotest.(check (float 1e-6)) "pct" 100.0 r.An.attributed_pct;
      if r.An.phases = [] then Alcotest.fail "no phases attributed"

let test_request_report_extends_open_spans () =
  (* a reaped request: the solve never ends.  The open span must be
     extended to the slice end so the stall is attributed. *)
  let p =
    parse_exn
      "{\"ts\":0.0,\"kind\":\"event\",\"name\":\"serve.admit\",\"request\":\"r1-1\"}\n\
       {\"ts\":0.2,\"kind\":\"span_begin\",\"id\":5,\"name\":\"serve.request\",\"request\":\"r1-1\"}\n\
       {\"ts\":3.0,\"kind\":\"event\",\"name\":\"manager.reap\",\"request\":\"r1-1\",\"worker\":0}\n"
  in
  match An.report ~request:"r1-1" p with
  | None -> Alcotest.fail "slice not found"
  | Some r ->
      Alcotest.(check int) "one open span" 1 r.An.open_spans;
      Alcotest.(check (float 1e-9)) "wall" 3.0 r.An.wall_s;
      if r.An.attributed_pct < 90.0 then
        Alcotest.failf "stalled request underattributed: %.1f%%"
          r.An.attributed_pct

(* a request slice gets the same sections as the whole trace: two
   CEGIS iterations under the request span, the second one slower *)
let test_request_report_iterations () =
  let p =
    parse_exn
      "{\"ts\":0.0,\"kind\":\"event\",\"name\":\"serve.admit\",\"request\":\"r1-2\"}\n\
       {\"ts\":0.1,\"kind\":\"span_begin\",\"id\":1,\"name\":\"serve.request\",\"request\":\"r1-2\"}\n\
       {\"ts\":0.1,\"kind\":\"span_begin\",\"id\":2,\"parent\":1,\"name\":\"cegis.iteration\",\"iter\":1,\"request\":\"r1-2\"}\n\
       {\"ts\":0.3,\"kind\":\"span_end\",\"id\":2,\"name\":\"cegis.iteration\",\"dur\":0.2,\"request\":\"r1-2\"}\n\
       {\"ts\":0.3,\"kind\":\"span_begin\",\"id\":3,\"parent\":1,\"name\":\"cegis.iteration\",\"iter\":2,\"request\":\"r1-2\"}\n\
       {\"ts\":0.4,\"kind\":\"span_begin\",\"id\":4,\"parent\":3,\"name\":\"sat.solve\",\"request\":\"r1-2\"}\n\
       {\"ts\":0.9,\"kind\":\"span_end\",\"id\":4,\"name\":\"sat.solve\",\"dur\":0.5,\"conflicts\":7,\"request\":\"r1-2\"}\n\
       {\"ts\":1.0,\"kind\":\"span_end\",\"id\":3,\"name\":\"cegis.iteration\",\"dur\":0.7,\"request\":\"r1-2\"}\n\
       {\"ts\":1.0,\"kind\":\"span_end\",\"id\":1,\"name\":\"serve.request\",\"dur\":0.9,\"request\":\"r1-2\"}\n"
  in
  match An.report ~request:"r1-2" ~top:1 p with
  | None -> Alcotest.fail "slice not found"
  | Some r -> (
      Alcotest.(check int) "iterations" 2 r.An.iterations;
      Alcotest.(check (option int)) "sat conflicts" (Some 7)
        (List.assoc_opt "conflicts" r.An.sat_totals);
      match r.An.slowest with
      | [ (2, dur, [ ("sat.solve", solve) ]) ] ->
          Alcotest.(check (float 1e-9)) "slowest duration" 0.7 dur;
          Alcotest.(check (float 1e-9)) "its solve" 0.5 solve
      | _ -> Alcotest.fail "expected iteration 2 as the one slowest")

let test_request_report_missing_id () =
  match An.report ~request:"nope" (parse_exn request_trace) with
  | None -> ()
  | Some _ -> Alcotest.fail "made up a slice for an absent request"

(* ---------------------------------------------------------------- *)
(* span self-times and the folded-stack golden output                *)
(* ---------------------------------------------------------------- *)

(* a: [0.0, 0.5] with one child b: [0.1, 0.3] — a's self-time is 0.3 s *)
let nested_trace =
  "{\"ts\":0.0,\"kind\":\"span_begin\",\"id\":1,\"name\":\"a\"}\n\
   {\"ts\":0.1,\"kind\":\"span_begin\",\"id\":2,\"parent\":1,\"name\":\"b\"}\n\
   {\"ts\":0.3,\"kind\":\"span_end\",\"id\":2,\"name\":\"b\",\"dur\":0.2}\n\
   {\"ts\":0.5,\"kind\":\"span_end\",\"id\":1,\"name\":\"a\",\"dur\":0.5}\n"

let test_span_self_times () =
  match An.spans (parse_exn nested_trace) with
  | [ b; a ] ->
      Alcotest.(check string) "inner closes first" "b" b.An.name;
      Alcotest.(check (float 1e-9)) "b self = dur" 0.2 b.An.self;
      Alcotest.(check (float 1e-9)) "a self = dur - child" 0.3 a.An.self
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_flame_golden () =
  Alcotest.(check string)
    "folded stacks" "a 300000\na;b 200000\n"
    (An.flame_to_string (parse_exn nested_trace))

(* the nested trace with runtime-lens pauses: one inside b, one outside
   any span — the covered pause folds under a;b as a GC leaf frame and
   its µs leave b's self-time; the uncovered one becomes a root frame *)
let gc_folding_trace =
  "{\"ts\":0.0,\"kind\":\"span_begin\",\"id\":1,\"name\":\"a\"}\n\
   {\"ts\":0.1,\"kind\":\"span_begin\",\"id\":2,\"parent\":1,\"name\":\"b\"}\n\
   {\"ts\":0.2,\"kind\":\"event\",\"name\":\"runtime.gc.minor\",\"domain\":0,\"dur_s\":0.05}\n\
   {\"ts\":0.3,\"kind\":\"span_end\",\"id\":2,\"name\":\"b\",\"dur\":0.2}\n\
   {\"ts\":0.5,\"kind\":\"span_end\",\"id\":1,\"name\":\"a\",\"dur\":0.5}\n\
   {\"ts\":0.9,\"kind\":\"event\",\"name\":\"runtime.gc.major\",\"domain\":0,\"dur_s\":0.01}\n"

let test_flame_gc_folding () =
  Alcotest.(check string)
    "gc pauses fold under the covering span"
    "a 300000\na;b 150000\na;b;runtime.gc.minor 50000\nruntime.gc.major \
     10000\n"
    (An.flame_to_string (parse_exn gc_folding_trace))

(* ---------------------------------------------------------------- *)
(* the runtime section (trace report's GC lens view)                 *)
(* ---------------------------------------------------------------- *)

(* domain 0 tiles [0,2] with two interval points (0.2s minor, 0.1s
   major, 0.1s wait -> 1.6s mutator); domain 1 contributes one
   r1-tagged interval; one over-threshold pause point rides along *)
let runtime_trace =
  "{\"ts\":0.0,\"kind\":\"span_begin\",\"id\":1,\"name\":\"a\"}\n\
   {\"ts\":1.0,\"kind\":\"event\",\"name\":\"runtime.gc\",\"domain\":0,\"interval_s\":1.0,\"minor_s\":0.1,\"major_s\":0.0,\"wait_s\":0.0,\"minor_n\":3,\"major_n\":0,\"alloc_words\":1000}\n\
   {\"ts\":1.2,\"kind\":\"event\",\"name\":\"runtime.gc.minor\",\"domain\":0,\"dur_s\":0.05}\n\
   {\"ts\":1.5,\"kind\":\"event\",\"name\":\"runtime.gc\",\"domain\":1,\"interval_s\":0.5,\"minor_s\":0.05,\"major_s\":0.0,\"wait_s\":0.0,\"minor_n\":1,\"major_n\":0,\"alloc_words\":200,\"request\":\"r1\"}\n\
   {\"ts\":2.0,\"kind\":\"event\",\"name\":\"runtime.gc\",\"domain\":0,\"interval_s\":1.0,\"minor_s\":0.1,\"major_s\":0.1,\"wait_s\":0.1,\"minor_n\":2,\"major_n\":1,\"alloc_words\":500}\n\
   {\"ts\":2.0,\"kind\":\"span_end\",\"id\":1,\"name\":\"a\",\"dur\":2.0}\n"

let test_runtime_section () =
  match An.runtime (parse_exn runtime_trace) with
  | None -> Alcotest.fail "runtime data present but section is None"
  | Some rt ->
      Alcotest.(check int) "two domains" 2 (List.length rt.An.rt_domains);
      let d0 = List.hd rt.An.rt_domains in
      Alcotest.(check int) "domain index" 0 d0.An.rt_domain;
      Alcotest.(check (float 1e-9)) "covered tiles the run" 2.0
        d0.An.rt_covered_s;
      Alcotest.(check (float 1e-9)) "minor summed" 0.2 d0.An.rt_minor_s;
      Alcotest.(check (float 1e-9)) "major summed" 0.1 d0.An.rt_major_s;
      Alcotest.(check (float 1e-9)) "wait summed" 0.1 d0.An.rt_wait_s;
      Alcotest.(check (float 1e-9)) "mutator is the remainder" 1.6
        d0.An.rt_mutator_s;
      Alcotest.(check int) "minor collections" 5 d0.An.rt_minor_n;
      Alcotest.(check int) "major cycles" 1 d0.An.rt_major_n;
      Alcotest.(check int) "alloc words" 1500 d0.An.rt_alloc_words;
      Alcotest.(check int) "pause points counted" 1 rt.An.rt_pauses;
      Alcotest.(check (float 1e-9)) "max pause" 0.05 rt.An.rt_max_pause_s;
      (* domain 0 covers the full 2 s wall: the >=95% attribution gate *)
      Alcotest.(check (float 1e-6)) "coverage" 100.0 rt.An.rt_covered_pct

let test_runtime_section_request_slice () =
  match An.runtime ~request:"r1" (parse_exn runtime_trace) with
  | None -> Alcotest.fail "r1 runtime data present but section is None"
  | Some rt -> (
      Alcotest.(check int) "pauses outside r1 excluded" 0 rt.An.rt_pauses;
      match rt.An.rt_domains with
      | [ d1 ] ->
          Alcotest.(check int) "only domain 1" 1 d1.An.rt_domain;
          Alcotest.(check (float 1e-9)) "r1 interval" 0.5 d1.An.rt_covered_s;
          Alcotest.(check int) "r1 alloc" 200 d1.An.rt_alloc_words
      | ds -> Alcotest.failf "expected 1 domain, got %d" (List.length ds))

let test_runtime_section_absent () =
  Alcotest.(check bool) "lens-off trace has no section" true
    (An.runtime (parse_exn nested_trace) = None)

(* ---------------------------------------------------------------- *)
(* phase attribution on a real in-memory synthesis trace             *)
(* ---------------------------------------------------------------- *)

let test_report_on_real_trace () =
  let sink, events = Sink.memory () in
  let outcome =
    T.with_sink sink (fun () ->
        Synth.Cegis.synthesize ~timeout:60.0
          { Synth.Cegis.data_len = 4; check_len = 5; min_distance = 4;
            extra = [] })
  in
  (match outcome with
  | Synth.Report.Synthesized _ -> ()
  | _ -> Alcotest.fail "instance should synthesize");
  let p = { An.events = events (); truncated = false } in
  let r = Option.get (An.report p) in
  Alcotest.(check bool) "has iterations" true (r.An.iterations > 0);
  Alcotest.(check bool) "wall positive" true (r.An.wall_s > 0.0);
  let phase_names = List.map (fun ph -> ph.An.phase) r.An.phases in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " attributed") true
        (List.mem expected phase_names))
    [ "cegis.loop"; "smtlite.encode"; "cegis.verify"; "sat.propagate";
      "sat.analyze"; "sat.restart"; "sat.other" ];
  (* every named phase is span self-time, so their sum can never exceed
     the busy time, and attribution covers most of the wall *)
  let phase_sum =
    List.fold_left (fun acc ph -> acc +. ph.An.total_s) 0.0 r.An.phases
  in
  Alcotest.(check bool) "phases within busy time" true
    (phase_sum <= r.An.busy_s +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "attribution >= 80%% (got %.1f%%)" r.An.attributed_pct)
    true
    (r.An.attributed_pct >= 80.0);
  (* the solver's inner-loop split must carry real time on this instance *)
  let solver_time =
    List.fold_left
      (fun acc ph ->
        if
          List.mem ph.An.phase
            [ "sat.propagate"; "sat.analyze"; "sat.restart"; "sat.other" ]
        then acc +. ph.An.total_s
        else acc)
      0.0 r.An.phases
  in
  Alcotest.(check bool) "solver time present" true (solver_time > 0.0);
  Alcotest.(check bool) "sat totals counted" true
    (List.assoc "propagations" r.An.sat_totals > 0);
  Alcotest.(check int) "slowest list bounded" 3
    (min 3 (List.length r.An.slowest))

(* two root spans on two worker domains, [0, 0.6] and [0.2, 0.8], in a
   1.0 s trace: the union covers 0.8 s although the roots sum to 1.2 s *)
let test_report_overlapping_roots () =
  let p =
    parse_exn
      "{\"ts\":0.0,\"kind\":\"span_begin\",\"id\":1,\"name\":\"portfolio.worker\",\"worker\":0}\n\
       {\"ts\":0.2,\"kind\":\"span_begin\",\"id\":2,\"name\":\"portfolio.worker\",\"worker\":1}\n\
       {\"ts\":0.6,\"kind\":\"span_end\",\"id\":1,\"name\":\"portfolio.worker\",\"dur\":0.6,\"worker\":0}\n\
       {\"ts\":0.8,\"kind\":\"span_end\",\"id\":2,\"name\":\"portfolio.worker\",\"dur\":0.6,\"worker\":1}\n\
       {\"ts\":1.0,\"kind\":\"event\",\"name\":\"portfolio.winner\"}\n"
  in
  let r = Option.get (An.report p) in
  Alcotest.(check (float 1e-9)) "busy sums the roots" 1.2 r.An.busy_s;
  Alcotest.(check (float 1e-9)) "attributed is their union" 0.8
    r.An.attributed_s;
  Alcotest.(check (float 1e-6)) "pct" 80.0 r.An.attributed_pct;
  Alcotest.(check (float 1e-9)) "unattributed" 0.2 r.An.unattributed_s

(* a killed run: the trace is cut inside a solve, whose time still
   counts for its phase up to the last timestamp *)
let test_report_open_span () =
  let p =
    parse_exn
      "{\"ts\":0.0,\"kind\":\"span_begin\",\"id\":1,\"name\":\"ctx.check\"}\n\
       {\"ts\":0.1,\"kind\":\"span_end\",\"id\":1,\"name\":\"ctx.check\",\"dur\":0.1}\n\
       {\"ts\":0.1,\"kind\":\"span_begin\",\"id\":2,\"name\":\"sat.solve\"}\n\
       {\"ts\":2.0,\"kind\":\"event\",\"name\":\"manager.tick\"}\n\
       {\"ts\":2.1,\"kind\":\"span_e"
  in
  Alcotest.(check bool) "truncated" true p.An.truncated;
  let r = Option.get (An.report p) in
  Alcotest.(check int) "open spans" 1 r.An.open_spans;
  Alcotest.(check (float 1e-6)) "fully attributed" 100.0 r.An.attributed_pct;
  Alcotest.(check (option (float 1e-9))) "solve phase" (Some 1.9)
    (List.find_opt (fun ph -> ph.An.phase = "sat.solve") r.An.phases
    |> Option.map (fun ph -> ph.An.total_s));
  Alcotest.(check string) "flame carries the stall"
    "ctx.check 100000\nsat.solve 1900000\n" (An.flame_to_string p)

(* ---------------------------------------------------------------- *)
(* metric extraction and diffing                                     *)
(* ---------------------------------------------------------------- *)

let test_metrics_of_trace () =
  let m = An.metrics_of_trace (parse_exn nested_trace) in
  Alcotest.(check (option (float 1e-9))) "span total" (Some 0.5)
    (List.assoc_opt "span.a.total_s" m);
  Alcotest.(check (option (float 1e-9))) "span count" (Some 1.0)
    (List.assoc_opt "span.a.count" m);
  Alcotest.(check (option (float 1e-9))) "wall" (Some 0.5)
    (List.assoc_opt "wall_s" m)

let test_diff_threshold_semantics () =
  let a = [ ("x", 100.0); ("y", 100.0); ("z", 0.0); ("only_a", 1.0) ] in
  let b = [ ("x", 110.0); ("y", 111.0); ("z", 5.0); ("only_b", 1.0) ] in
  let d = An.diff ~threshold:10.0 a b in
  Alcotest.(check int) "shared" 3 d.An.shared;
  Alcotest.(check int) "only_a" 1 d.An.only_a;
  Alcotest.(check int) "only_b" 1 d.An.only_b;
  (* +10.0% is not beyond the threshold; +11% is; 0 -> 5 is infinite *)
  let keys = List.map (fun dl -> dl.An.key) d.An.regressions in
  Alcotest.(check (list string)) "regressions" [ "z"; "y" ]
    (List.sort compare keys |> List.rev);
  Alcotest.(check int) "no improvements" 0 (List.length d.An.improvements)

let test_diff_improvements () =
  let d =
    An.diff ~threshold:10.0 [ ("x", 100.0) ] [ ("x", 50.0) ]
  in
  Alcotest.(check int) "no regressions" 0 (List.length d.An.regressions);
  (match d.An.improvements with
  | [ dl ] -> Alcotest.(check (float 1e-9)) "pct" (-50.0) dl.An.pct
  | _ -> Alcotest.fail "expected one improvement");
  let d_eq = An.diff ~threshold:10.0 [ ("x", 100.0) ] [ ("x", 100.0) ] in
  Alcotest.(check int) "identical clean" 0
    (List.length d_eq.An.regressions + List.length d_eq.An.improvements)

let test_metrics_of_string_detects_bench () =
  let bench =
    "{\"pr\":\"pr4\",\"scale\":100,\"instances\":[{\"experiment\":\"t\",\
     \"instance\":\"i\",\"wall_s\":1.5,\"iterations\":7,\"conflicts\":3}]}\n"
  in
  match An.metrics_of_string bench with
  | Error msg -> Alcotest.failf "bench rejected: %s" msg
  | Ok (m, src) ->
      Alcotest.(check string) "detected" "bench" (An.source_name src);
      Alcotest.(check (option (float 1e-9))) "iterations" (Some 7.0)
        (List.assoc_opt "t/i/iterations" m);
      Alcotest.(check (option (float 1e-9))) "wall" (Some 1.5)
        (List.assoc_opt "t/i/wall_s" m)

let () =
  Alcotest.run "analyze"
    [
      ( "parse",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "truncated tail" `Quick test_parse_truncated_tail;
          Alcotest.test_case "midfile garbage" `Quick
            test_parse_rejects_midfile_garbage;
        ] );
      ( "check",
        [
          Alcotest.test_case "unbalanced" `Quick test_check_unbalanced;
          Alcotest.test_case "out of order" `Quick test_check_out_of_order;
          Alcotest.test_case "worker streams" `Quick
            test_check_workers_are_separate_streams;
          Alcotest.test_case "clean" `Quick test_check_clean;
          Alcotest.test_case "unknown fields warn" `Quick
            test_check_unknown_fields;
          Alcotest.test_case "known fields silent" `Quick
            test_check_known_fields_silent;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_span_self_times;
          Alcotest.test_case "flame golden" `Quick test_flame_golden;
          Alcotest.test_case "flame folds gc pauses" `Quick
            test_flame_gc_folding;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "aggregates interval points" `Quick
            test_runtime_section;
          Alcotest.test_case "request slice" `Quick
            test_runtime_section_request_slice;
          Alcotest.test_case "absent without lens data" `Quick
            test_runtime_section_absent;
        ] );
      ( "report",
        [
          Alcotest.test_case "real trace" `Quick test_report_on_real_trace;
          Alcotest.test_case "overlapping roots attributed as a union" `Quick
            test_report_overlapping_roots;
          Alcotest.test_case "open span attributed to its phase" `Quick
            test_report_open_span;
        ] );
      ( "request",
        [
          Alcotest.test_case "slices one request" `Quick
            test_request_report_slices;
          Alcotest.test_case "extends open spans" `Quick
            test_request_report_extends_open_spans;
          Alcotest.test_case "iterations and slowest" `Quick
            test_request_report_iterations;
          Alcotest.test_case "missing id" `Quick test_request_report_missing_id;
        ] );
      ( "diff",
        [
          Alcotest.test_case "trace metrics" `Quick test_metrics_of_trace;
          Alcotest.test_case "threshold semantics" `Quick
            test_diff_threshold_semantics;
          Alcotest.test_case "improvements" `Quick test_diff_improvements;
          Alcotest.test_case "bench detection" `Quick
            test_metrics_of_string_detects_bench;
        ] );
    ]
