(* Resilience tests: fault-injection plumbing, worker supervision,
   anytime (Partial) results at budget edges, and checkpoint/resume.

   The headline property: deterministic injected faults — solver crashes,
   spurious interrupts, worker-startup failures — never change the final
   answer of a portfolio synthesis, only its statistics.  Twenty seeded
   trial runs of the md-4 instance check exactly that. *)

module Fault = Synth.Fault
module Supervisor = Synth.Supervisor
module Checkpoint = Synth.Checkpoint
module Cegis = Synth.Cegis
module Portfolio = Synth.Portfolio
module Report = Synth.Report

let with_fault_spec text f =
  match Fault.parse text with
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" text msg
  | Ok spec ->
      Fun.protect
        ~finally:(fun () -> Fault.set_spec None)
        (fun () ->
          Fault.set_spec (Some spec);
          f ())

let md3_problem =
  { Cegis.data_len = 4; check_len = 3; min_distance = 3; extra = [] }

let md4_problem =
  { Cegis.data_len = 4; check_len = 4; min_distance = 4; extra = [] }

(* ---------------------------------------------------------------- *)
(* fault spec parsing and determinism                                *)
(* ---------------------------------------------------------------- *)

let test_fault_spec_parse () =
  match Fault.parse "seed=42,stall_ms=1.5,sat.solve.crash=0.02,worker.start.crash=1.0:max=1" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
      Alcotest.(check int) "seed" 42 spec.Fault.seed;
      Alcotest.(check (float 1e-9)) "stall_s" 0.0015 spec.Fault.stall_s;
      (match spec.Fault.directives with
      | [ d1; d2 ] ->
          Alcotest.(check string) "site 1" "sat.solve" d1.Fault.site;
          Alcotest.(check (float 1e-9)) "prob 1" 0.02 d1.Fault.probability;
          Alcotest.(check string) "site 2" "worker.start" d2.Fault.site;
          Alcotest.(check (option int)) "max 2" (Some 1) d2.Fault.max_injections
      | ds -> Alcotest.failf "expected 2 directives, got %d" (List.length ds))

let test_fault_spec_rejects_garbage () =
  let bad = [ "sat.solve.explode=0.1"; "sat.solve.crash=1.5"; "nonsense";
              "seed=abc"; "sat.solve.crash=0.1:max=no" ] in
  List.iter
    (fun text ->
      match Fault.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should have been rejected" text)
    bad

let crash_pattern text n =
  (* which of n probes of sat.solve inject, as a boolean list *)
  with_fault_spec text (fun () ->
      List.init n (fun _ ->
          match Fault.probe "sat.solve" with
          | () -> false
          | exception Fault.Injected _ -> true))

let test_fault_injection_deterministic () =
  let text = "seed=7,sat.solve.crash=0.3" in
  let a = crash_pattern text 200 in
  let b = crash_pattern text 200 in
  Alcotest.(check (list bool)) "same seed, same injections" a b;
  let c = crash_pattern "seed=8,sat.solve.crash=0.3" 200 in
  if a = c then Alcotest.fail "different seeds should give different patterns";
  if not (List.mem true a) then Alcotest.fail "p=0.3 should inject sometimes";
  if not (List.mem false a) then Alcotest.fail "p=0.3 should also not inject"

let test_fault_max_cap () =
  with_fault_spec "seed=1,sat.solve.crash=1.0:max=2" (fun () ->
      let crashes = ref 0 in
      for _ = 1 to 10 do
        try Fault.probe "sat.solve"
        with Fault.Injected _ -> incr crashes
      done;
      Alcotest.(check int) "capped at max" 2 !crashes;
      Alcotest.(check int) "injection_count agrees" 2 (Fault.injection_count ()))

(* ---------------------------------------------------------------- *)
(* supervisor                                                        *)
(* ---------------------------------------------------------------- *)

let fast_policy =
  { Supervisor.default_policy with
    Supervisor.backoff_base = 1e-4; backoff_max = 1e-3 }

let test_supervisor_restarts_through_crashes () =
  let r =
    Supervisor.run ~policy:fast_policy ~label:"t" (fun ~attempt ->
        if attempt < 2 then failwith "boom" else attempt)
  in
  (match r.Supervisor.result with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected attempt 2, got %d" n
  | Error e -> Alcotest.failf "expected success, got %s" (Printexc.to_string e));
  Alcotest.(check int) "crashes" 2 r.Supervisor.crashes;
  Alcotest.(check int) "restarts" 2 r.Supervisor.restarts

let test_supervisor_gives_up () =
  let r =
    Supervisor.run ~policy:fast_policy ~label:"t" (fun ~attempt:_ ->
        failwith "always")
  in
  (match r.Supervisor.result with
  | Error (Failure _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the last Failure back");
  Alcotest.(check int) "crashes" 4 r.Supervisor.crashes;
  Alcotest.(check int) "restarts" 3 r.Supervisor.restarts

let test_supervisor_cancellation_passes_through () =
  match
    Supervisor.run ~policy:fast_policy (fun ~attempt:_ ->
        raise Smtlite.Ctx.Timeout)
  with
  | _ -> Alcotest.fail "cancellation must not be captured"
  | exception Smtlite.Ctx.Timeout -> ()

(* ---------------------------------------------------------------- *)
(* checkpoint format                                                 *)
(* ---------------------------------------------------------------- *)

let temp_path () = Filename.temp_file "fec-ck" ".dat"

let sample_code = Lazy.force Hamming.Catalog.fig2_7_4

let sample_t =
  {
    Checkpoint.data_len = 4;
    check_len = 3;
    min_distance = 3;
    iterations = 17;
    opt_bound = Some 3;
    best = Some (sample_code, 2);
    cexes =
      [
        Cegis.Cex_data (Gf2.Bitvec.of_string "1010");
        Cegis.Cex_candidate sample_code;
        Cegis.Cex_data (Gf2.Bitvec.of_string "0111");
      ];
  }

let test_checkpoint_roundtrip () =
  let path = temp_path () in
  Checkpoint.save ~path sample_t;
  match Checkpoint.load ~path with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok t ->
      Sys.remove path;
      Alcotest.(check int) "data_len" 4 t.Checkpoint.data_len;
      Alcotest.(check int) "check_len" 3 t.Checkpoint.check_len;
      Alcotest.(check int) "min_distance" 3 t.Checkpoint.min_distance;
      Alcotest.(check int) "iterations" 17 t.Checkpoint.iterations;
      Alcotest.(check (option int)) "bound" (Some 3) t.Checkpoint.opt_bound;
      (match t.Checkpoint.best with
      | Some (code, 2) when Hamming.Code.equal code sample_code -> ()
      | _ -> Alcotest.fail "best not restored");
      (match t.Checkpoint.cexes with
      | [ Cegis.Cex_data a; Cegis.Cex_candidate c; Cegis.Cex_data b ] ->
          Alcotest.(check string) "cex 1" "1010" (Gf2.Bitvec.to_string a);
          Alcotest.(check string) "cex 3" "0111" (Gf2.Bitvec.to_string b);
          Alcotest.(check bool) "cex 2" true (Hamming.Code.equal c sample_code)
      | _ -> Alcotest.fail "cex pool not restored in order")

let test_checkpoint_detects_corruption () =
  let path = temp_path () in
  Checkpoint.save ~path sample_t;
  (* flip one byte in the middle of the file *)
  let text = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string text in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '1' then '0' else '1');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "bit flip must be detected"
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Checkpoint.error_to_string e));
  Sys.remove path

let test_checkpoint_detects_truncation () =
  let path = temp_path () in
  Checkpoint.save ~path sample_t;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub text 0 (String.length text / 2)));
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "truncation must be detected"
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Checkpoint.error_to_string e));
  Sys.remove path

(* write body lines with a correct CRC trailer, as save does *)
let write_raw path lines =
  let body = String.concat "\n" lines ^ "\n" in
  let crc = Zip.Crc32.digest body in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (body ^ Printf.sprintf "crc %08lX\n" crc))

let test_checkpoint_rejects_future_version () =
  let path = temp_path () in
  write_raw path [ "fecsynth-checkpoint 99"; "problem 4 3 3"; "end" ];
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Version_mismatch 99) -> ()
  | Ok _ -> Alcotest.fail "future version must be rejected"
  | Error e ->
      Alcotest.failf "expected Version_mismatch, got %s"
        (Checkpoint.error_to_string e));
  Sys.remove path

let test_checkpoint_rejects_misfit_witness () =
  let path = temp_path () in
  (* valid CRC, but the witness is longer than the declared data_len *)
  write_raw path
    [ "fecsynth-checkpoint 1"; "problem 4 3 3"; "cex d 10100"; "end" ];
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "misfit witness must be rejected"
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Checkpoint.error_to_string e));
  Sys.remove path

let test_checkpoint_matches_problem () =
  Alcotest.(check bool) "same problem" true
    (Checkpoint.matches_problem sample_t md3_problem);
  Alcotest.(check bool) "different problem" false
    (Checkpoint.matches_problem sample_t md4_problem)

let test_checkpoint_writer_accumulates () =
  let path = temp_path () in
  let w =
    Checkpoint.Writer.create ~min_interval:0.0 ~path ~data_len:4 ~check_len:3
      ~min_distance:3 ()
  in
  Checkpoint.Writer.record_cex w (Cegis.Cex_data (Gf2.Bitvec.of_string "1100"));
  Checkpoint.Writer.record_cex w (Cegis.Cex_data (Gf2.Bitvec.of_string "0011"));
  Checkpoint.Writer.record_best w sample_code 2;
  Checkpoint.Writer.record_best w sample_code 1 (* worse: must be ignored *);
  Checkpoint.Writer.record_bound w 3;
  Checkpoint.Writer.record_iterations w 9;
  Checkpoint.Writer.flush w;
  (match Checkpoint.load ~path with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok t ->
      Alcotest.(check int) "cex count" 2 (List.length t.Checkpoint.cexes);
      Alcotest.(check int) "iterations" 9 t.Checkpoint.iterations;
      Alcotest.(check (option int)) "bound" (Some 3) t.Checkpoint.opt_bound;
      (match t.Checkpoint.best with
      | Some (_, 2) -> ()
      | _ -> Alcotest.fail "best must keep the higher bound"));
  Sys.remove path

(* ---------------------------------------------------------------- *)
(* durable files: both sealed formats refuse every damaged copy      *)
(* ---------------------------------------------------------------- *)

module Cache = Fec_session.Cache

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* every strict prefix and every single-bit flip of [text] *)
let damaged text =
  let n = String.length text in
  let flip i =
    let b = Bytes.of_string text in
    Bytes.set b (i / 8) (Char.chr (Char.code text.[i / 8] lxor (1 lsl (i mod 8))));
    Bytes.to_string b
  in
  List.init n (fun len -> String.sub text 0 len) @ List.init (8 * n) flip

(* [text] is [seal body] for the body [unseal] finds in it *)
let sealed ~magic text =
  match Durable.unseal ~magic ~version:1 text with
  | Ok body -> Durable.seal ~magic ~version:1 body = text
  | Error _ -> false

let arb_checkpoint =
  QCheck.make
    ~print:(fun t -> Printf.sprintf "%d cexes" (List.length t.Checkpoint.cexes))
    QCheck.Gen.(
      let cex =
        frequency
          [
            ( 3,
              map
                (fun w -> Cegis.Cex_data (Gf2.Bitvec.of_string w))
                (string_size ~gen:(oneofl [ '0'; '1' ]) (return 4)) );
            (1, return (Cegis.Cex_candidate sample_code));
          ]
      in
      map4
        (fun iterations opt_bound best cexes ->
          {
            Checkpoint.data_len = 4;
            check_len = 3;
            min_distance = 3;
            iterations;
            opt_bound;
            best = Option.map (fun b -> (sample_code, b)) best;
            cexes;
          })
        (int_bound 100) (opt (int_bound 8)) (opt (int_range 1 3))
        (list_size (int_bound 4) cex))

let qcheck_checkpoint_refuses_damage =
  QCheck.Test.make ~name:"sealed checkpoint: exact or refused" ~count:8
    arb_checkpoint (fun t ->
      let path = temp_path () in
      Checkpoint.save ~path t;
      let text = Durable.read path in
      let refused copy =
        write_file path copy;
        match Checkpoint.load ~path with
        | Error (Checkpoint.Corrupt _) -> true
        | Ok _ | Error _ -> false
      in
      let ok = sealed ~magic:"fecsynth-checkpoint" text && List.for_all refused (damaged text) in
      Sys.remove path;
      ok)

let arb_entry =
  QCheck.make
    ~print:(fun (e : Cache.entry) -> e.key)
    QCheck.Gen.(
      map3
        (fun key iterations elapsed ->
          {
            Cache.key;
            created = "2026-01-01T00:00:00Z";
            code = sample_code;
            check_len = 3;
            md = 3;
            verified_md = 3;
            iterations;
            elapsed;
          })
        (string_size ~gen:printable (int_bound 12))
        (int_bound 1000) (float_bound_inclusive 10.0))

let qcheck_cache_entry_refuses_damage =
  QCheck.Test.make ~name:"sealed cache entry: exact or a miss" ~count:8 arb_entry
    (fun (e : Cache.entry) ->
      let dir = Filename.temp_file "fec-cache" "" in
      Sys.remove dir;
      let path = Filename.concat dir "d.entry" in
      Cache.store ~dir ~digest:"d" e;
      let text = Durable.read path in
      let lookup copy =
        write_file path copy;
        Cache.lookup ~dir ~digest:"d" ~key:e.key
      in
      let ok =
        sealed ~magic:"fecsynth-cache" text
        && lookup text <> None
        && List.for_all (fun copy -> lookup copy = None) (damaged text)
      in
      Sys.remove path;
      Sys.rmdir dir;
      ok)

(* An entry whose seal and CRC are intact but whose code is not a matrix
   is a miss, and [verify] lists it as corrupt instead of raising. *)
let test_cache_entry_bad_code () =
  let dir = Filename.temp_file "fec-cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "d.entry" in
  write_file path
    (Durable.seal ~magic:"fecsynth-cache" ~version:1
       ({|{"key":"k","created":"2026-01-01T00:00:00Z","code":"10x;01",|}
       ^ {|"check_len":1,"md":1,"verified_md":1,"iterations":0,"elapsed":0.0}|}
       ^ "\n"));
  Alcotest.(check bool) "lookup misses" true
    (Cache.lookup ~dir ~digest:"d" ~key:"k" = None);
  let v = Cache.verify ~dir in
  Alcotest.(check (pair int (list string))) "verify: 0 ok, listed corrupt"
    (0, [ "d.entry" ])
    (v.Cache.ok_entries, v.Cache.corrupt);
  Sys.remove path;
  Sys.rmdir dir

let test_metrics_file_whole () =
  let dir = Filename.temp_file "fec-metrics" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "metrics.prom" in
  let c = Telemetry.Metrics.counter "test.durable_metrics" in
  Fec_session.Observe.with_observability ~metrics:(Some path) (fun () ->
      Telemetry.Metrics.incr c 1;
      Telemetry.point "test.durable_metrics");
  Alcotest.(check (list string)) "no temp file beside it" [ "metrics.prom" ]
    (Array.to_list (Sys.readdir dir));
  (match Telemetry.Metrics.parse_exposition (Durable.read path) with
  | Ok samples ->
      Alcotest.(check bool) "counter exposed" true
        (List.mem_assoc "test_durable_metrics" samples)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  Sys.rmdir dir

(* ---------------------------------------------------------------- *)
(* budget edge cases: anytime results, no exceptions                 *)
(* ---------------------------------------------------------------- *)

let test_zero_timeout_returns_cleanly () =
  match Cegis.synthesize ~timeout:0.0 md3_problem with
  | Report.Timed_out _ -> ()
  | Report.Partial _ -> ()
  | Report.Synthesized _ -> Alcotest.fail "no time budget, yet synthesized?"
  | Report.Unsat_config _ -> Alcotest.fail "no time budget, yet refuted?"

let test_negative_timeout_returns_cleanly () =
  match Cegis.synthesize ~timeout:(-5.0) md3_problem with
  | Report.Timed_out _ | Report.Partial _ -> ()
  | _ -> Alcotest.fail "deadline in the past must yield Timed_out/Partial"

let test_immediate_interrupt_returns_cleanly () =
  match Cegis.synthesize ~interrupt:(fun () -> true) md3_problem with
  | Report.Timed_out _ | Report.Partial _ -> ()
  | _ -> Alcotest.fail "immediate interrupt must yield Timed_out/Partial"

let test_interrupt_after_first_cex_is_partial () =
  (* the flag flips inside on_progress, i.e. between the verification call
     that refuted the candidate and the next synthesis solver call *)
  let stop = ref false in
  match
    Cegis.synthesize
      ~interrupt:(fun () -> !stop)
      ~on_progress:(fun _ _ -> stop := true)
      md3_problem
  with
  | Report.Partial (code, _) ->
      (* an anytime candidate is a real generator, just not at target md *)
      Alcotest.(check int) "data_len" 4 (Hamming.Code.data_len code);
      Alcotest.(check int) "check_len" 3 (Hamming.Code.check_len code)
  | Report.Synthesized _ ->
      Alcotest.fail "interrupt after the first refutation must not decide"
  | _ -> Alcotest.fail "a refuted candidate exists: outcome must be Partial"

let test_interrupt_at_any_poll_boundary () =
  (* fire the genuine interrupt at the N-th poll for several small N: the
     abort lands at arbitrary points inside/between solver calls and must
     always come back as a clean outcome, never an exception.  The md-4
     instance needs at least two iterations (the unconstrained first
     candidate cannot reach distance 4), so tiny poll budgets can never
     reach a decision. *)
  List.iter
    (fun n ->
      let polls = ref 0 in
      let interrupt () =
        incr polls;
        !polls >= n
      in
      match Cegis.synthesize ~interrupt md4_problem with
      | outcome -> (
          match (outcome, n <= 3) with
          | (Report.Timed_out _ | Report.Partial _), _ -> ()
          | _, false -> () (* larger budgets may legitimately decide *)
          | _, true ->
              Alcotest.failf "poll budget %d should not reach a decision" n)
      | exception e ->
          Alcotest.failf "poll budget %d leaked %s" n (Printexc.to_string e))
    [ 1; 2; 3; 5; 8; 13 ]

let test_optimize_zero_timeout_returns_cleanly () =
  match
    Synth.Driver.run ~timeout:0.0
      (Synth.Driver.min_check_len ~data_len:4 ~md:3 ~check_lo:2 ~check_hi:5)
  with
  | Synth.Driver.Timeout _ | Synth.Driver.Partial _ -> ()
  | _ -> Alcotest.fail "zero budget walk must yield Timed_out/Partial"

let test_portfolio_immediate_interrupt () =
  match
    Portfolio.synthesize ~jobs:3 ~scheduler:`Interleaved
      ~interrupt:(fun () -> true)
      md3_problem
  with
  | Report.Timed_out _ | Report.Partial _ -> ()
  | _ -> Alcotest.fail "interrupted race must yield Timed_out/Partial"

(* ---------------------------------------------------------------- *)
(* resume warm start                                                 *)
(* ---------------------------------------------------------------- *)

let test_resume_uses_fewer_iterations () =
  let pool = ref [] in
  let cold =
    Cegis.synthesize ~on_progress:(fun _ cex -> pool := cex :: !pool)
      md4_problem
  in
  let cold_iters =
    match cold with
    | Report.Synthesized (_, stats) -> stats.Report.Stats.iterations
    | _ -> Alcotest.fail "md-4 instance must synthesize cold"
  in
  if cold_iters < 2 then
    Alcotest.fail "instance too easy to demonstrate a warm start";
  match Cegis.synthesize ~initial:(List.rev !pool) md4_problem with
  | Report.Synthesized (_, stats) ->
      if stats.Report.Stats.iterations >= cold_iters then
        Alcotest.failf "resumed run used %d iterations, cold used %d"
          stats.Report.Stats.iterations cold_iters
  | _ -> Alcotest.fail "resumed run must still synthesize"

(* ---------------------------------------------------------------- *)
(* portfolio under injected faults                                   *)
(* ---------------------------------------------------------------- *)

let check_md4 code =
  Alcotest.(check bool) "generator meets md 4" true
    (Hamming.Distance.min_distance code >= 4)

let test_worker_crash_still_decides () =
  (* the first worker start is killed outright; supervision restarts it and
     the race still decides *)
  with_fault_spec "seed=5,worker.start.crash=1.0:max=1" (fun () ->
      match
        Portfolio.synthesize ~jobs:3 ~scheduler:`Interleaved md3_problem
      with
      | Report.Synthesized (code, report) ->
          Alcotest.(check bool) "generator meets md 3" true
            (Hamming.Distance.min_distance code >= 3);
          if report.Portfolio.totals.Report.Stats.worker_crashes < 1 then
            Alcotest.fail "the injected crash must be counted"
      | _ -> Alcotest.fail "portfolio with one crashed worker must decide")

let test_spurious_interrupts_are_retried () =
  (* injected interrupts that no one requested: the sequential loop
     re-checks the genuine condition and retries the step *)
  with_fault_spec "seed=3,ctx.check.interrupt=0.2:max=5" (fun () ->
      match Cegis.synthesize md3_problem with
      | Report.Synthesized (code, _) ->
          Alcotest.(check bool) "generator meets md 3" true
            (Hamming.Distance.min_distance code >= 3)
      | _ -> Alcotest.fail "spurious interrupts must not change the answer")

let test_fault_trials_never_change_answer scheduler () =
  (* acceptance: 20 seeded fault-injection trials of the md-4 portfolio,
     every one must reach the same decision as the fault-free run with a
     generator that verifies *)
  (match Portfolio.synthesize ~jobs:3 ~scheduler md4_problem with
  | Report.Synthesized (code, _) -> check_md4 code
  | _ -> Alcotest.fail "fault-free baseline must synthesize");
  for seed = 1 to 20 do
    let spec =
      Printf.sprintf
        "seed=%d,sat.solve.crash=0.03:max=2,worker.start.crash=0.5:max=1,ctx.check.interrupt=0.05:max=3"
        seed
    in
    with_fault_spec spec (fun () ->
        match Portfolio.synthesize ~jobs:3 ~scheduler md4_problem with
        | Report.Synthesized (code, _) -> check_md4 code
        | _ -> Alcotest.failf "trial seed=%d changed the decision" seed)
  done

(* ---------------------------------------------------------------- *)
(* scheduler parity: both schedulers step the same supervised worker *)
(* ---------------------------------------------------------------- *)

let test_schedulers_report_alike scheduler () =
  (* the first worker start crashes: whichever scheduler runs the race,
     the crash and its restart are reported under the crashed worker's
     label, the totals count them once, and pool traffic shows up as
     publish/consume counters *)
  let sink, events = Telemetry.Sink.memory () in
  let outcome =
    with_fault_spec "seed=5,worker.start.crash=1.0:max=1" (fun () ->
        Telemetry.with_sink sink (fun () ->
            Portfolio.synthesize ~jobs:3 ~scheduler md4_problem))
  in
  let report =
    match outcome with
    | Report.Synthesized (code, report) ->
        check_md4 code;
        report
    | _ -> Alcotest.fail "the race must still decide"
  in
  (* the [worker] label of every point or counter named [name] *)
  let labels name =
    List.filter_map
      (function
        | Telemetry.Sink.Point { name = n; fields; _ }
        | Telemetry.Sink.Counter { name = n; fields; _ }
          when n = name -> (
            match List.assoc_opt "worker" fields with
            | Some (Telemetry.Sink.Str w) -> Some w
            | _ -> None)
        | _ -> None)
      (events ())
  in
  (match labels "supervisor.crash" with
  | [ crashed ] ->
      Alcotest.(check (list string))
        "restart under the crashed worker's label" [ crashed ]
        (labels "supervisor.restart")
  | ls -> Alcotest.failf "expected one supervisor.crash, got %d" (List.length ls));
  let totals = report.Portfolio.totals in
  Alcotest.(check int) "crashes" 1 totals.Report.Stats.worker_crashes;
  Alcotest.(check int) "restarts" 1 totals.Report.Stats.worker_restarts;
  List.iter
    (fun (w : Portfolio.worker_stats) ->
      let label = w.Portfolio.config.Portfolio.label in
      let counted name = List.mem label (labels name) in
      if w.Portfolio.shared_out > 0 && not (counted "portfolio.publish") then
        Alcotest.failf "%s published without a portfolio.publish counter"
          label;
      if w.Portfolio.shared_in > 0 && not (counted "portfolio.consume") then
        Alcotest.failf "%s consumed without a portfolio.consume counter" label)
    report.Portfolio.workers

let () =
  Alcotest.run "resilience"
    [
      ( "fault-spec",
        [
          Alcotest.test_case "parse" `Quick test_fault_spec_parse;
          Alcotest.test_case "rejects garbage" `Quick
            test_fault_spec_rejects_garbage;
          Alcotest.test_case "deterministic per seed" `Quick
            test_fault_injection_deterministic;
          Alcotest.test_case "max cap" `Quick test_fault_max_cap;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "restarts through crashes" `Quick
            test_supervisor_restarts_through_crashes;
          Alcotest.test_case "gives up after max restarts" `Quick
            test_supervisor_gives_up;
          Alcotest.test_case "cancellation passes through" `Quick
            test_supervisor_cancellation_passes_through;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "detects corruption" `Quick
            test_checkpoint_detects_corruption;
          Alcotest.test_case "detects truncation" `Quick
            test_checkpoint_detects_truncation;
          Alcotest.test_case "rejects future version" `Quick
            test_checkpoint_rejects_future_version;
          Alcotest.test_case "rejects misfit witness" `Quick
            test_checkpoint_rejects_misfit_witness;
          Alcotest.test_case "matches_problem" `Quick
            test_checkpoint_matches_problem;
          Alcotest.test_case "writer accumulates" `Quick
            test_checkpoint_writer_accumulates;
        ] );
      ( "durable",
        [
          QCheck_alcotest.to_alcotest qcheck_checkpoint_refuses_damage;
          QCheck_alcotest.to_alcotest qcheck_cache_entry_refuses_damage;
          Alcotest.test_case "sealed entry with a malformed code" `Quick
            test_cache_entry_bad_code;
          Alcotest.test_case "metrics file is rewritten whole" `Quick
            test_metrics_file_whole;
        ] );
      ( "budget-edges",
        [
          Alcotest.test_case "zero timeout" `Quick
            test_zero_timeout_returns_cleanly;
          Alcotest.test_case "negative timeout" `Quick
            test_negative_timeout_returns_cleanly;
          Alcotest.test_case "immediate interrupt" `Quick
            test_immediate_interrupt_returns_cleanly;
          Alcotest.test_case "interrupt between solver calls is Partial"
            `Quick test_interrupt_after_first_cex_is_partial;
          Alcotest.test_case "interrupt at any poll boundary" `Quick
            test_interrupt_at_any_poll_boundary;
          Alcotest.test_case "optimize zero timeout" `Quick
            test_optimize_zero_timeout_returns_cleanly;
          Alcotest.test_case "portfolio immediate interrupt" `Quick
            test_portfolio_immediate_interrupt;
        ] );
      ( "resume",
        [
          Alcotest.test_case "warm start uses fewer iterations" `Quick
            test_resume_uses_fewer_iterations;
        ] );
      ( "fault-trials",
        [
          Alcotest.test_case "worker crash still decides" `Quick
            test_worker_crash_still_decides;
          Alcotest.test_case "spurious interrupts retried" `Quick
            test_spurious_interrupts_are_retried;
          Alcotest.test_case "20 seeded trials, same answer" `Slow
            (test_fault_trials_never_change_answer `Interleaved);
          Alcotest.test_case "20 seeded trials on domains, same answer" `Slow
            (test_fault_trials_never_change_answer `Domains);
        ] );
      ( "sched-parity",
        [
          Alcotest.test_case "interleaved reports a crash" `Quick
            (test_schedulers_report_alike `Interleaved);
          Alcotest.test_case "domains report a crash" `Quick
            (test_schedulers_report_alike `Domains);
        ] );
    ]
