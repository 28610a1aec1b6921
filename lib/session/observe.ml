(* FEC_FORCE_TTY=1 makes --progress render without a real TTY so cram
   tests can assert the line's shape; the sink then draws its final state
   followed by a newline instead of erasing itself. *)
let force_tty () = Sys.getenv_opt "FEC_FORCE_TTY" = Some "1"

let with_observability ?(trace = None) ?(metrics = None) ?(progress = false) f =
  let cleanups = ref [] in
  let sinks = ref [] in
  (match trace with
  | Some path ->
      let oc = open_out path in
      cleanups := (fun () -> close_out oc) :: !cleanups;
      sinks := Telemetry.Sink.ndjson oc :: !sinks
  | None -> ());
  (match metrics with
  | Some path -> sinks := Telemetry.Metrics.flush_sink (Durable.write path) :: !sinks
  | None -> ());
  if progress && (Unix.isatty Unix.stderr || force_tty ()) then begin
    let write s =
      output_string stderr s;
      flush stderr
    in
    let final = force_tty () && not (Unix.isatty Unix.stderr) in
    sinks := Telemetry.Progress.sink ~final write :: !sinks
  end;
  (* When the runtime lens is live, let its poller ride on this run's
     event traffic, and force a final drain while the tee is still
     installed so the closing [runtime.gc] intervals land in the trace.
     The tick-driver sink is only added when this run installs sinks of
     its own: with none, the ambient sink (a daemon's trace tee, whose
     select loop already ticks the lens) must stay installed — teeing
     over it here would replace it and swallow the run's events. *)
  let f =
    if Telemetry.Runtime.active () then begin
      if !sinks <> [] then sinks := Telemetry.Runtime.sink () :: !sinks;
      fun () ->
        Fun.protect
          ~finally:(fun () -> Telemetry.Runtime.poll ~force:true ())
          f
    end
    else f
  in
  match List.rev !sinks with
  | [] -> f ()
  | sinks ->
      Fun.protect
        ~finally:(fun () -> List.iter (fun c -> c ()) !cleanups)
        (fun () -> Telemetry.with_sink (Telemetry.Sink.tee sinks) f)
