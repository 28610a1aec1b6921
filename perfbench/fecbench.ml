(* The repository benchmark.

     fecbench --workload synth-mix|serve-mix --seed N --seconds S
              --trace 0|1

   Run from the root of a checkout (normally through perfbench/run.py,
   which builds it).  [--trace 0] measures the workload for S seconds and
   reports the end-to-end metrics named in BENCHMARK.json; [--trace 1] is
   the separate traced run: half the time untraced, half with in-memory
   spans around every layer call, plus short traced probes of the other
   workload and of the codec stream, and the isolated-layer calibration;
   it reports the per-layer metrics.  Every answer goes through an oracle; a wrong one
   makes the run exit 1.  The last line of standard output is the JSON
   result; a table of the same metrics with units and sample counts, and
   the run's provenance, precede it. *)

open Perfbench
open Common
module J = Telemetry.Json

let workloads = [ "synth-mix"; "serve-mix" ]

(* the metric names BENCHMARK.json lists under [key] *)
let declared key =
  match J.member key (J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)) with
  | Some (J.List ms) ->
      List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_string_opt) ms
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

let run_workload ?probe ~dir ~seed ~seconds ~wrong = function
  | "synth-mix" -> (Synth_mix.measure ?probe ~dir ~seed ~seconds ~wrong (), [])
  | "serve-mix" -> Serve_mix.measure ?probe ~dir ~seed ~seconds ~wrong ()
  | w -> invalid_arg w

(* The traced run: an untraced half for the overhead baseline, the traced
   half, traced probes of the other workload and the codec stream, then
   the calibration. *)
let traced ~dir ~seed ~seconds ~wrong workload =
  let plain, _ = run_workload ~dir ~seed ~seconds:(seconds /. 2.0) ~wrong workload in
  Span.on := true;
  let own, codes = run_workload ~dir ~seed ~seconds:(seconds /. 2.0) ~wrong workload in
  let probes =
    List.filter_map
      (fun w ->
        if w = workload then None
        else Some (run_workload ~probe:true ~dir ~seed ~seconds:0.0 ~wrong w))
      workloads
  in
  let codec = Codec_stream.probe ~seed ~wrong in
  let codes = codes @ List.concat_map snd probes in
  let calibration = Layers.calibrate ~dir ~wrong codes in
  let overhead = 100.0 *. (plain.headline -. own.headline) /. plain.headline in
  let layers =
    own.layers @ List.concat_map (fun (p, _) -> p.layers) probes @ codec @ calibration
    @ [
        metric "gc.minor_mwords" "Mword" (minor_words () /. 1e6);
        metric ~samples:2 "trace_overhead_pct" "%" overhead;
      ]
  in
  let trace_file = Filename.concat work_root (Printf.sprintf "trace-%s-seed%d.ndjson" workload seed) in
  Span.write trace_file;
  Printf.printf "trace: %d spans in %s\n" (List.length (Span.all ())) trace_file;
  {
    own with
    layers;
    attempted = plain.attempted + own.attempted;
    failed = plain.failed + own.failed;
  }

let provenance ~workload ~seed ~trace =
  let b = Telemetry.Buildinfo.detect () in
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("trace", J.Int trace);
      ("nproc", J.Str (nproc ()));
      ("ocaml", J.Str b.Telemetry.Buildinfo.ocaml);
      ("git", match b.Telemetry.Buildinfo.git with Some g -> J.Str g | None -> J.Null);
      ("code_version", J.Str b.Telemetry.Buildinfo.code_version);
    ]

let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let report ~workload ~seed ~trace ~(pass : pass) ~wrong =
  let names = declared (if trace = 1 then "per_layer" else "end_to_end") in
  let got = if trace = 1 then pass.layers else pass.e2e in
  let pick name =
    match List.find_opt (fun m -> m.name = name) got with
    | Some m when Float.is_finite m.value -> m
    | Some _ -> failwith (name ^ " has no finite value")
    | None -> failwith (name ^ " was not measured")
  in
  let ms = List.map pick names in
  let failed = min (pass.failed + List.length wrong) (max 1 pass.attempted) in
  Printf.printf "%s, seed %d, trace %d\n%-30s %16s  %-8s %s\n" workload seed trace "metric" "value" "unit"
    "samples";
  List.iter (fun m -> Printf.printf "%-30s %16.6g  %-8s %d\n" m.name m.value m.unit_ m.samples) ms;
  Printf.printf "%-30s %16.6g  %-8s %d\n" "error_rate" (float_of_int failed /. float_of_int (max 1 pass.attempted))
    "ratio" pass.attempted;
  List.iter (fun w -> Printf.printf "WRONG: %s\n" w) (List.rev wrong);
  Printf.printf "provenance: %s\n" (J.to_string (provenance ~workload ~seed ~trace));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (wrong = [])
    (max 1 pass.attempted) failed
    (String.concat ", "
       (List.map (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_) ms))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fecbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
    prerr_endline "fecbench: need --workload synth-mix|serve-mix, --seconds > 0, --trace 0|1";
    exit 2
  end;
  (* keep every side effect inside the checkout: scratch ledger and cache,
     and no git discovery above it *)
  let dir = fresh_dir !workload in
  Unix.putenv "FEC_LEDGER_DIR" (Filename.concat dir "ledger");
  Unix.putenv "FEC_CACHE_DIR" (Filename.concat dir "cache");
  Unix.putenv "GIT_CEILING_DIRECTORIES" (Filename.dirname (Sys.getcwd ()));
  let fecsynth_dir () = try Some (Unix.stat ".fecsynth").Unix.st_mtime with Unix.Unix_error _ -> None in
  let before = fecsynth_dir () in
  let wrong = ref [] in
  let pass =
    if !trace = 1 then traced ~dir ~seed:!seed ~seconds:!seconds ~wrong !workload
    else fst (run_workload ~dir ~seed:!seed ~seconds:!seconds ~wrong !workload)
  in
  if fecsynth_dir () <> before then wrong := "the run wrote under .fecsynth/" :: !wrong;
  rm_rf dir;
  report ~workload:!workload ~seed:!seed ~trace:!trace ~pass ~wrong:!wrong;
  exit (if !wrong = [] then 0 else 1)
