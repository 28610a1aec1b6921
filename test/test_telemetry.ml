(* Tests for the telemetry subsystem: span bookkeeping, sink aggregation,
   NDJSON well-formedness, the Report.Stats merge monoid, and the presence
   of the instrumentation events the CLI trace contract promises. *)

module T = Telemetry
module Sink = Telemetry.Sink
module J = Telemetry.Json
module Stats = Synth.Report.Stats

(* ---------------------------------------------------------------- *)
(* enabled / with_sink basics                                        *)
(* ---------------------------------------------------------------- *)

let test_enabled_toggle () =
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  let saw = ref false in
  T.with_sink Sink.null (fun () -> saw := T.enabled ());
  Alcotest.(check bool) "enabled inside with_sink" true !saw;
  Alcotest.(check bool) "restored after with_sink" false (T.enabled ())

let test_with_sink_restores_on_exn () =
  (try T.with_sink Sink.null (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" false (T.enabled ())

let test_disabled_is_inert () =
  (* instrumentation points must be safe no-ops with no sink installed *)
  let sp = T.begin_span "nothing" in
  T.end_span sp;
  T.counter "c" 1;
  T.gauge "g" 1.0;
  T.point "p";
  T.span "s" (fun () -> ())

(* ---------------------------------------------------------------- *)
(* span nesting via the memory sink                                  *)
(* ---------------------------------------------------------------- *)

let test_span_nesting () =
  let sink, events = Sink.memory () in
  T.with_sink sink (fun () ->
      T.span "outer" (fun () ->
          T.span "inner" (fun () -> T.point "leaf");
          T.span "inner2" (fun () -> ())));
  let evs = events () in
  let begins =
    List.filter_map
      (function Sink.Span_begin b -> Some (b.name, b.id, b.parent) | _ -> None)
      evs
  in
  (match begins with
  | [ ("outer", outer_id, outer_parent); ("inner", _, p1); ("inner2", _, p2) ] ->
      Alcotest.(check (option int)) "outer has no parent" None outer_parent;
      Alcotest.(check (option int)) "inner nested in outer" (Some outer_id) p1;
      Alcotest.(check (option int)) "inner2 nested in outer" (Some outer_id) p2
  | _ -> Alcotest.failf "unexpected span_begin sequence (%d begins)"
           (List.length begins));
  let ends =
    List.filter_map (function Sink.Span_end e -> Some e.name | _ -> None) evs
  in
  Alcotest.(check (list string))
    "inner spans end before outer" [ "inner"; "inner2"; "outer" ] ends;
  List.iter
    (function
      | Sink.Span_end e ->
          if e.dur < 0.0 then Alcotest.failf "negative duration on %s" e.name
      | _ -> ())
    evs

let test_span_ids_unique () =
  let sink, events = Sink.memory () in
  T.with_sink sink (fun () ->
      for _ = 1 to 5 do
        T.span "s" (fun () -> ())
      done);
  let ids =
    List.filter_map
      (function Sink.Span_begin b -> Some b.id | _ -> None)
      (events ())
  in
  Alcotest.(check int) "five spans" 5 (List.length ids);
  Alcotest.(check int) "ids all distinct" 5
    (List.length (List.sort_uniq compare ids))

let test_span_exception_still_ends () =
  let sink, events = Sink.memory () in
  T.with_sink sink (fun () ->
      try T.span "failing" (fun () -> failwith "boom") with Failure _ -> ());
  let ends =
    List.filter_map (function Sink.Span_end e -> Some e.name | _ -> None)
      (events ())
  in
  Alcotest.(check (list string)) "span ended despite exception" [ "failing" ] ends

(* ---------------------------------------------------------------- *)
(* NDJSON sink well-formedness                                       *)
(* ---------------------------------------------------------------- *)

let collect_ndjson f =
  let buf = Buffer.create 4096 in
  T.with_sink (Sink.ndjson_writer (Buffer.add_string buf)) f;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let test_ndjson_every_line_parses () =
  let lines =
    collect_ndjson (fun () ->
        T.span "outer" ~fields:[ ("k", T.int 1) ] (fun () ->
            T.counter "c" 7 ~fields:[ ("enc", T.str "seq") ];
            T.gauge "g" 3.25;
            T.point "p" ~fields:[ ("ok", T.bool true); ("w", T.float 0.5) ]))
  in
  Alcotest.(check int) "five events" 5 (List.length lines);
  List.iteri
    (fun i line ->
      let j =
        try J.of_string line
        with J.Parse_error m -> Alcotest.failf "line %d unparseable: %s" i m
      in
      let str_field k =
        match Option.bind (J.member k j) J.to_string_opt with
        | Some s -> s
        | None -> Alcotest.failf "line %d missing string %S" i k
      in
      ignore (str_field "kind");
      ignore (str_field "name");
      match Option.bind (J.member "ts" j) J.to_float with
      | Some ts when ts >= 0.0 -> ()
      | _ -> Alcotest.failf "line %d missing numeric ts" i)
    lines

let test_ndjson_roundtrips_fields () =
  let lines =
    collect_ndjson (fun () ->
        T.point "probe"
          ~fields:
            [ ("s", T.str "a\"b\nc"); ("i", T.int (-3)); ("f", T.float 1.5);
              ("b", T.bool false) ])
  in
  match lines with
  | [ line ] ->
      let j = J.of_string line in
      Alcotest.(check (option string))
        "escaped string" (Some "a\"b\nc")
        (Option.bind (J.member "s" j) J.to_string_opt);
      Alcotest.(check (option int))
        "negative int" (Some (-3))
        (Option.bind (J.member "i" j) J.to_int);
      Alcotest.(check (option (float 1e-9)))
        "float" (Some 1.5)
        (Option.bind (J.member "f" j) J.to_float);
      Alcotest.(check (option string)) "kind" (Some "event")
        (Option.bind (J.member "kind" j) J.to_string_opt)
  | _ -> Alcotest.fail "expected exactly one line"

(* ---------------------------------------------------------------- *)
(* ambient span context                                              *)
(* ---------------------------------------------------------------- *)

let point_fields name evs =
  match
    List.find_map
      (function
        | Sink.Point p when p.name = name -> Some p.fields | _ -> None)
      evs
  with
  | Some fs -> fs
  | None -> Alcotest.failf "no point %S in trace" name

let test_context_stamps_events () =
  let sink, events = Sink.memory () in
  T.with_sink sink (fun () ->
      T.with_context [ ("request", T.str "r1") ] (fun () ->
          T.point "inside" ~fields:[ ("k", T.int 1) ];
          T.with_context [ ("worker", T.str "3") ] (fun () ->
              T.point "nested");
          T.point "after"));
  let evs = events () in
  let inside = point_fields "inside" evs in
  Alcotest.(check bool) "explicit field kept" true
    (List.mem_assoc "k" inside);
  Alcotest.(check bool) "context stamped" true
    (List.mem_assoc "request" inside);
  let nested = point_fields "nested" evs in
  Alcotest.(check bool) "inner context stamped" true
    (List.mem_assoc "worker" nested);
  Alcotest.(check bool) "outer context survives nesting" true
    (List.mem_assoc "request" nested);
  let after = point_fields "after" evs in
  Alcotest.(check bool) "inner context popped" false
    (List.mem_assoc "worker" after);
  Alcotest.(check bool) "outer context still present" true
    (List.mem_assoc "request" after);
  Alcotest.(check int) "context empty outside scope" 0
    (List.length (T.current_context ()))

let test_context_explicit_wins () =
  let sink, events = Sink.memory () in
  T.with_sink sink (fun () ->
      T.with_context [ ("request", T.str "ambient") ] (fun () ->
          T.point "p" ~fields:[ ("request", T.str "explicit") ]));
  match List.assoc_opt "request" (point_fields "p" (events ())) with
  | Some (Sink.Str "explicit") -> ()
  | _ -> Alcotest.fail "explicit field must shadow the ambient context"

let test_context_restored_on_exn () =
  (try T.with_context [ ("a", T.int 1) ] (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "context restored after exception" 0
    (List.length (T.current_context ()))

let test_context_crosses_spawn_when_reinstalled () =
  (* context is per-domain; the documented pattern is to capture it in
     the parent and reinstall in the child (as the portfolio does) *)
  T.with_context [ ("request", T.str "r9") ] (fun () ->
      let ctx = T.current_context () in
      let child =
        Domain.spawn (fun () ->
            let bare = T.current_context () in
            let installed =
              T.with_context ctx (fun () -> T.current_context ())
            in
            (bare, installed))
      in
      let bare, installed = Domain.join child in
      Alcotest.(check int) "fresh domain starts with empty context" 0
        (List.length bare);
      Alcotest.(check bool) "reinstalled context visible in child" true
        (List.mem_assoc "request" installed))

(* ---------------------------------------------------------------- *)
(* flight recorder                                                   *)
(* ---------------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "fec_flight" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_flight_roundtrip () =
  with_tmpdir (fun dir ->
      T.Flight.enable ~capacity:4 ~dir ();
      Fun.protect ~finally:T.Flight.disable (fun () ->
          Alcotest.(check bool) "enabled" true (T.Flight.enabled ());
          T.with_sink
            (Sink.tee [ T.Flight.sink () ])
            (fun () ->
              for i = 1 to 10 do
                T.point "tick" ~fields:[ ("i", T.int i) ]
              done);
          let snap = T.Flight.snapshot () in
          Alcotest.(check int) "ring keeps last capacity events" 4
            (List.length snap);
          let is_ =
            List.filter_map
              (function
                | Sink.Point p -> (
                    match List.assoc_opt "i" p.fields with
                    | Some (Sink.Int i) -> Some i
                    | _ -> None)
                | _ -> None)
              snap
          in
          Alcotest.(check (list int))
            "most recent events survive" [ 7; 8; 9; 10 ] is_;
          match
            T.Flight.dump ~reason:"test"
              ~fields:[ ("request", T.str "r1") ]
              ()
          with
          | None -> Alcotest.fail "dump returned no path while enabled"
          | Some path ->
              Alcotest.(check bool) "postmortem filename" true
                (Filename.check_suffix path ".ndjson");
              let lines = read_lines path in
              Alcotest.(check int) "snapshot + trailing dump point" 5
                (List.length lines);
              List.iteri
                (fun i l ->
                  try ignore (J.of_string l)
                  with J.Parse_error m ->
                    Alcotest.failf "postmortem line %d unparseable: %s" i m)
                lines;
              let last = J.of_string (List.nth lines 4) in
              Alcotest.(check (option string))
                "trailing point name" (Some "flight.dump")
                (Option.bind (J.member "name" last) J.to_string_opt);
              Alcotest.(check (option string))
                "reason stamped" (Some "test")
                (Option.bind (J.member "reason" last) J.to_string_opt);
              Alcotest.(check (option string))
                "caller fields stamped" (Some "r1")
                (Option.bind (J.member "request" last) J.to_string_opt)))

let test_flight_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (T.Flight.enabled ());
  T.Flight.record (Sink.Point { ts = 0.0; name = "p"; fields = [] });
  Alcotest.(check int) "snapshot empty when disabled" 0
    (List.length (T.Flight.snapshot ()));
  Alcotest.(check bool) "dump refuses when disabled" true
    (T.Flight.dump ~reason:"x" () = None)

let test_flight_disabled_allocates_nothing () =
  let ev = Sink.Point { ts = 0.0; name = "p"; fields = [] } in
  T.Flight.record ev;
  (* warm-up *)
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    T.Flight.record ev
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 100.0 then
    Alcotest.failf
      "disabled flight recorder allocated %.0f minor words over %d records"
      delta rounds

(* two domains dumping at the same instant must land in two distinct,
   individually parseable postmortem files (the sequence number is
   mutex-guarded; the ring reads are racy by design but each line must
   still parse) *)
let test_flight_concurrent_dumps () =
  with_tmpdir (fun dir ->
      T.Flight.enable ~capacity:8 ~dir ();
      Fun.protect ~finally:T.Flight.disable (fun () ->
          T.with_sink
            (Sink.tee [ T.Flight.sink () ])
            (fun () ->
              for i = 1 to 5 do
                T.point "tick" ~fields:[ ("i", T.int i) ]
              done);
          let barrier = Atomic.make 0 in
          let dump tag () =
            Atomic.incr barrier;
            while Atomic.get barrier < 2 do
              Domain.cpu_relax ()
            done;
            T.Flight.dump ~reason:tag ()
          in
          let d1 = Domain.spawn (dump "d1") in
          let d2 = Domain.spawn (dump "d2") in
          match (Domain.join d1, Domain.join d2) with
          | Some a, Some b ->
              Alcotest.(check bool) "two distinct postmortem files" true
                (a <> b);
              List.iter
                (fun path ->
                  let lines = read_lines path in
                  Alcotest.(check bool)
                    (path ^ " non-empty") true (lines <> []);
                  List.iteri
                    (fun i l ->
                      try ignore (J.of_string l)
                      with J.Parse_error m ->
                        Alcotest.failf "%s line %d unparseable: %s" path i m)
                    lines)
                [ a; b ]
          | _ -> Alcotest.fail "a concurrent dump returned no path"))

(* ---------------------------------------------------------------- *)
(* runtime lens                                                      *)
(* ---------------------------------------------------------------- *)

(* the lens-off fast path is one atomic load: polled from the serve
   select loop and the observability tee, it must never allocate *)
let test_runtime_disabled_allocates_nothing () =
  Alcotest.(check bool) "inactive by default" false (T.Runtime.active ());
  T.Runtime.tick ();
  (* warm-up *)
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    T.Runtime.tick ();
    T.Runtime.poll ();
    T.Runtime.set_request None
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 100.0 then
    Alcotest.failf
      "disabled runtime lens allocated %.0f minor words over %d ticks" delta
      rounds;
  Alcotest.(check bool) "snapshot refuses when inactive" true
    (T.Runtime.snapshot () = None)

(* live smoke: start the lens, churn the minor heap, force a poll and
   check that collections were observed and a runtime.gc interval point
   reached the sink *)
let test_runtime_lens_smoke () =
  let sink, events = Sink.memory () in
  T.Runtime.start ~min_interval:0.0 ~pause_threshold_us:0 ();
  if not (T.Runtime.active ()) then
    (* Runtime_events unavailable in this environment: start is
       specified to degrade to inactive, which is itself the contract *)
    ()
  else
    Fun.protect ~finally:T.Runtime.stop (fun () ->
        let snap =
          T.with_sink sink (fun () ->
              let keep = ref [] in
              for i = 1 to 300_000 do
                keep := (i, string_of_int i) :: !keep;
                if i mod 50_000 = 0 then keep := []
              done;
              Gc.minor ();
              T.Runtime.poll ~force:true ();
              T.Runtime.snapshot ())
        in
        match snap with
        | None -> Alcotest.fail "snapshot None while active"
        | Some s ->
            Alcotest.(check bool) "observed at least one domain" true
              (s.T.Runtime.domains >= 1);
            Alcotest.(check bool) "observed minor collections" true
              (s.T.Runtime.minor_n > 0);
            Alcotest.(check bool) "observed allocation" true
              (s.T.Runtime.alloc_words > 0);
            let names =
              List.sort_uniq compare (List.map Sink.event_name (events ()))
            in
            Alcotest.(check bool) "runtime.gc interval point emitted" true
              (List.mem "runtime.gc" names))

(* ---------------------------------------------------------------- *)
(* Report.Stats merge monoid (property tests)                        *)
(* ---------------------------------------------------------------- *)

(* elapsed uses integral values so float addition is exact and
   associativity can be checked with (=) *)
let stats_gen =
  QCheck.Gen.(
    map
      (fun ((a, b, c, d, e), (f, g), samples) ->
        { Stats.iterations = a; verifier_calls = b; elapsed = float_of_int c;
          syn_conflicts = d; ver_conflicts = e; worker_crashes = f;
          worker_restarts = g;
          learnt_hist = Telemetry.Metrics.Hist.of_list samples })
      (triple
         (tup5 (int_bound 10000) (int_bound 10000) (int_bound 10000)
            (int_bound 10000) (int_bound 10000))
         (pair (int_bound 100) (int_bound 100))
         (list_size (int_bound 6) (int_bound 500))))

let stats_arb =
  QCheck.make stats_gen ~print:(fun s -> Format.asprintf "%a" Stats.pp s)

let test_stats_add_assoc =
  QCheck.Test.make ~name:"Stats.add associative" ~count:200
    (QCheck.triple stats_arb stats_arb stats_arb)
    (fun (a, b, c) ->
      Stats.add (Stats.add a b) c = Stats.add a (Stats.add b c))

let test_stats_zero_identity =
  QCheck.Test.make ~name:"Stats.zero identity" ~count:200 stats_arb (fun s ->
      Stats.add Stats.zero s = s && Stats.add s Stats.zero = s)

let test_stats_sum_matches_fold =
  QCheck.Test.make ~name:"Stats.sum = fold add zero" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_bound 8) stats_arb) (fun l ->
      Stats.sum l = List.fold_left Stats.add Stats.zero l)

(* ---------------------------------------------------------------- *)
(* CEGIS instrumentation contract                                    *)
(* ---------------------------------------------------------------- *)

let test_cegis_event_kinds () =
  let sink, events = Sink.memory () in
  let outcome =
    T.with_sink sink (fun () ->
        Synth.Cegis.synthesize ~timeout:30.0
          { Synth.Cegis.data_len = 4; check_len = 3; min_distance = 3;
            extra = [] })
  in
  (match outcome with
  | Synth.Report.Synthesized _ -> ()
  | _ -> Alcotest.fail "expected (7,4)-style instance to synthesize");
  let names =
    List.sort_uniq compare (List.map Sink.event_name (events ()))
  in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "trace missing %S (got: %s)" expected
          (String.concat ", " names))
    [ "cegis.session"; "cegis.iteration"; "cegis.candidate"; "cegis.verify";
      "cegis.learn"; "ctx.check"; "sat.solve"; "card.encode" ];
  (* span begin/end pairing over the whole trace *)
  let depth = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Sink.Span_begin _ -> incr depth
      | Sink.Span_end _ ->
          decr depth;
          if !depth < 0 then Alcotest.fail "span_end without begin"
      | _ -> ())
    (events ());
  Alcotest.(check int) "all spans closed" 0 !depth

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "telemetry"
    [
      ( "core",
        [
          Alcotest.test_case "enabled toggle" `Quick test_enabled_toggle;
          Alcotest.test_case "with_sink restores on exn" `Quick
            test_with_sink_restores_on_exn;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and parents" `Quick test_span_nesting;
          Alcotest.test_case "ids unique" `Quick test_span_ids_unique;
          Alcotest.test_case "exception still ends span" `Quick
            test_span_exception_still_ends;
        ] );
      ( "ndjson",
        [
          Alcotest.test_case "every line parses" `Quick
            test_ndjson_every_line_parses;
          Alcotest.test_case "fields roundtrip" `Quick
            test_ndjson_roundtrips_fields;
        ] );
      ( "context",
        [
          Alcotest.test_case "stamps events" `Quick test_context_stamps_events;
          Alcotest.test_case "explicit fields win" `Quick
            test_context_explicit_wins;
          Alcotest.test_case "restored on exception" `Quick
            test_context_restored_on_exn;
          Alcotest.test_case "crosses spawn when reinstalled" `Quick
            test_context_crosses_spawn_when_reinstalled;
        ] );
      ( "flight",
        [
          Alcotest.test_case "record/snapshot/dump roundtrip" `Quick
            test_flight_roundtrip;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_flight_disabled_noop;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_flight_disabled_allocates_nothing;
          Alcotest.test_case "concurrent dumps get distinct files" `Quick
            test_flight_concurrent_dumps;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_runtime_disabled_allocates_nothing;
          Alcotest.test_case "live lens smoke" `Quick test_runtime_lens_smoke;
        ] );
      ( "stats",
        [ qt test_stats_add_assoc; qt test_stats_zero_identity;
          qt test_stats_sum_matches_fold ] );
      ( "cegis",
        [ Alcotest.test_case "event kinds present" `Quick
            test_cegis_event_kinds ] );
    ]
