(* Isolated-layer calibration of the traced run: each layer driven alone
   through its public functions, every call one span, so its cost can be
   read without the layers around it. *)

open Common

let corpus_dir = Filename.concat "perfbench" "dimacs"

(* the satisfiable members of the corpus; every other file is unsatisfiable *)
let satisfiable = [ "parity_40_sat.cnf" ]
let expected_sat name = List.mem name satisfiable

let model_satisfies (cnf : Sat.Dimacs.cnf) model =
  List.for_all
    (List.exists (fun l -> Sat.Lit.apply l model.(Sat.Lit.var l)))
    cnf.Sat.Dimacs.clauses

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The DIMACS corpus through [Sat.Solver]: propagation and conflict rates
   over the whole corpus.  Answers are checked against the expected
   status, and a model against every clause. *)
let sat_corpus ~wrong =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cnf")
    |> List.sort compare
  in
  if files = [] then failwith "empty DIMACS corpus";
  let props = ref 0 and conflicts = ref 0 and wall = ref 0.0 in
  List.iteri
    (fun i f ->
      let cnf = Sat.Dimacs.parse (read_file (Filename.concat corpus_dir f)) in
      let s = Sat.Solver.create () in
      Sat.Dimacs.load_into s cnf;
      let answer, dt =
        timed (fun () ->
            Span.span ~req:(i + 1) "sat.solve" (fun _ -> Sat.Solver.solve s))
      in
      let st = Sat.Solver.stats s in
      props := !props + st.Sat.Solver.propagations;
      conflicts := !conflicts + st.Sat.Solver.conflicts;
      wall := !wall +. dt;
      match answer with
      | Sat.Solver.Sat when not (expected_sat f && model_satisfies cnf (Sat.Solver.model s)) ->
          wrong := (f ^ ": bad sat answer") :: !wrong
      | Sat.Solver.Unsat when expected_sat f ->
          wrong := (f ^ ": unexpected unsat") :: !wrong
      | _ -> ())
    files;
  let n = List.length files in
  [
    metric ~samples:n "sat.ns_per_prop" "ns" (!wall /. float_of_int !props *. 1e9);
    metric ~samples:n "sat.props_per_s" "1/s" (float_of_int !props /. !wall);
    metric ~samples:n "sat.conflicts_per_s" "1/s" (float_of_int !conflicts /. !wall);
  ]

(* [Cache.store] then [Cache.lookup] on fixed entries in a scratch cache,
   and the hit's generator re-verification cost ([Distance.min_distance])
   on the same generators.  [codes] are (md, generator) pairs. *)
let cache_and_distance ~dir ~wrong codes =
  let reps = 20 in
  let entries =
    List.mapi
      (fun i (md, code) ->
        let key = Printf.sprintf "perfbench-calibration-%d md=%d" i md in
        ( Fec_session.Key.digest key,
          {
            Fec_session.Cache.key;
            created = "2000-01-01T00:00:00Z";
            code;
            check_len = Hamming.Code.check_len code;
            md;
            verified_md = Hamming.Distance.min_distance code;
            iterations = 1;
            elapsed = 0.0;
          } ))
      codes
  in
  for r = 1 to reps do
    List.iter
      (fun (digest, entry) ->
        Span.span ~req:r "cache.store" (fun _ ->
            Fec_session.Cache.store ~dir ~digest entry);
        match
          Span.span ~req:r "cache.lookup" (fun _ ->
              Fec_session.Cache.lookup ~dir ~digest ~key:entry.Fec_session.Cache.key)
        with
        | Some e when Hamming.Code.equal e.Fec_session.Cache.code entry.Fec_session.Cache.code -> ()
        | _ -> wrong := ("cache lost entry " ^ entry.Fec_session.Cache.key) :: !wrong)
      entries;
    List.iter
      (fun (_, code) ->
        ignore
          (Span.span ~req:r "distance.min_distance" (fun _ ->
               Hamming.Distance.min_distance code)))
      codes
  done;
  [
    ms_p "cache.lookup_ms_p50" 0.5 (Span.durations "cache.lookup");
    ms_p "cache.store_ms_p50" 0.5 (Span.durations "cache.store");
    ms_p "distance.reverify_ms_p50" 0.5 (Span.durations "distance.min_distance");
  ]

(* [Ledger.start] + [Ledger.finish]: one appended record per call. *)
let ledger ~dir =
  let build = Telemetry.Buildinfo.current () in
  for r = 1 to 50 do
    Span.span ~req:r "ledger.append" (fun _ ->
        let p =
          Telemetry.Ledger.start ~dir ~ts:(Telemetry.Ledger.utc_timestamp ())
            ~subcommand:"perfbench" ~problem:"calibration" ~config:[] ~build ()
        in
        Telemetry.Ledger.finish p ~metrics:[ ("x", 1.0) ] ~outcome:"ok" ~exit_code:0)
  done;
  [ ms_p "ledger.append_ms_p50" 0.5 (Span.durations "ledger.append") ]

let calibrate ~dir ~wrong codes =
  let cache_dir = Filename.concat dir "calib-cache" and ledger_dir = Filename.concat dir "calib-ledger" in
  mkdir_p cache_dir;
  mkdir_p ledger_dir;
  sat_corpus ~wrong @ cache_and_distance ~dir:cache_dir ~wrong codes @ ledger ~dir:ledger_dir
