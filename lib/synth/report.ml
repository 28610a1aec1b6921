module Stats = struct
  type t = {
    iterations : int;
    verifier_calls : int;
    elapsed : float;
    syn_conflicts : int;
    ver_conflicts : int;
    worker_crashes : int;
    worker_restarts : int;
    learnt_hist : Telemetry.Metrics.Hist.t;
  }

  let zero =
    {
      iterations = 0;
      verifier_calls = 0;
      elapsed = 0.0;
      syn_conflicts = 0;
      ver_conflicts = 0;
      worker_crashes = 0;
      worker_restarts = 0;
      learnt_hist = Telemetry.Metrics.Hist.zero;
    }

  let add a b =
    {
      iterations = a.iterations + b.iterations;
      verifier_calls = a.verifier_calls + b.verifier_calls;
      elapsed = a.elapsed +. b.elapsed;
      syn_conflicts = a.syn_conflicts + b.syn_conflicts;
      ver_conflicts = a.ver_conflicts + b.ver_conflicts;
      worker_crashes = a.worker_crashes + b.worker_crashes;
      worker_restarts = a.worker_restarts + b.worker_restarts;
      learnt_hist = Telemetry.Metrics.Hist.add a.learnt_hist b.learnt_hist;
    }

  let sum = List.fold_left add zero

  let pp fmt t =
    Format.fprintf fmt
      "%d iterations, %d verifier calls, %.2f s, %d syn conflicts, %d ver conflicts"
      t.iterations t.verifier_calls t.elapsed t.syn_conflicts t.ver_conflicts;
    if t.worker_crashes > 0 || t.worker_restarts > 0 then
      Format.fprintf fmt ", %d worker crashes, %d restarts" t.worker_crashes
        t.worker_restarts

  let to_json t =
    Telemetry.Json.Obj
      [
        ("iterations", Telemetry.Json.Int t.iterations);
        ("verifier_calls", Telemetry.Json.Int t.verifier_calls);
        ("elapsed_s", Telemetry.Json.Float t.elapsed);
        ("syn_conflicts", Telemetry.Json.Int t.syn_conflicts);
        ("ver_conflicts", Telemetry.Json.Int t.ver_conflicts);
        ("worker_crashes", Telemetry.Json.Int t.worker_crashes);
        ("worker_restarts", Telemetry.Json.Int t.worker_restarts);
        ("learnt_size_hist", Telemetry.Metrics.Hist.to_json t.learnt_hist);
      ]

  (* Flat numeric view for the run ledger: stable [stats.*] keys so
     [fecsynth runs trend --metric stats.iterations] works across
     releases.  Histogram quantiles appear only when populated. *)
  let to_metrics t =
    [
      ("stats.iterations", float_of_int t.iterations);
      ("stats.verifier_calls", float_of_int t.verifier_calls);
      ("stats.elapsed_s", t.elapsed);
      ("stats.syn_conflicts", float_of_int t.syn_conflicts);
      ("stats.ver_conflicts", float_of_int t.ver_conflicts);
      ("stats.worker_crashes", float_of_int t.worker_crashes);
      ("stats.worker_restarts", float_of_int t.worker_restarts);
    ]
    @ List.filter_map
        (fun (name, q) ->
          Option.map
            (fun v -> (name, float_of_int v))
            (Telemetry.Metrics.Hist.quantile t.learnt_hist q))
        [
          ("stats.learnt_size_p50", 0.5);
          ("stats.learnt_size_p95", 0.95);
          ("stats.learnt_size_p99", 0.99);
        ]
end

type ('res, 'info) outcome =
  | Synthesized of 'res * 'info
  | Unsat_config of 'info
  | Timed_out of 'info
  | Partial of 'res * 'info

let outcome_kind = function
  | Synthesized _ -> "synthesized"
  | Unsat_config _ -> "unsat"
  | Timed_out _ -> "timeout"
  | Partial _ -> "partial"

let outcome_info = function
  | Synthesized (_, i) | Unsat_config i | Timed_out i | Partial (_, i) -> i
