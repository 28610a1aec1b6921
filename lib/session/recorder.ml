(* Ledger recording with crash coverage and an absolute opt-out.

   The registry holds every pending record not yet finished; the at_exit
   hook drains it as "crash"/2.  The hook re-checks FEC_NO_LEDGER when it
   fires: opting out must hold on every exit path, including the crash
   one, so an opted-out process never creates .fecsynth/ledger/. *)

type token =
  | Inert
  | Live of { id : int; pending : Telemetry.Ledger.pending }

let env_disabled () = Sys.getenv_opt "FEC_NO_LEDGER" = Some "1"
let enabled ?(no_ledger = false) () = not (no_ledger || env_disabled ())

(* The build identity cannot change within one process, and detecting it
   forks a `git describe` — milliseconds that would dominate a served
   cache hit if paid per request. *)
let build = lazy (Telemetry.Buildinfo.detect ())

let lock = Mutex.create ()
let registry : (int, Telemetry.Ledger.pending) Hashtbl.t = Hashtbl.create 8
let next_id = ref 0
let hook_installed = ref false

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let install_hook () =
  if not !hook_installed then begin
    hook_installed := true;
    at_exit (fun () ->
        (* Ledger.finish is idempotent, so normally-finished runs make
           this a no-op; the true exit status is unknowable here — 2
           matches the CLI's uncaught-exception handlers. *)
        if not (env_disabled ()) then
          let remaining =
            with_lock (fun () ->
                let ps = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
                Hashtbl.reset registry;
                ps)
          in
          match remaining with
          | [] -> ()
          | remaining ->
              List.iter
                (fun p ->
                  Telemetry.Ledger.finish p ~outcome:"crash" ~exit_code:2)
                remaining;
              (* runs died mid-flight: preserve the last telemetry events
                 alongside the crash records (no-op when the flight
                 recorder is disabled) *)
              ignore (Telemetry.Flight.dump ~reason:"crash" ()))
  end

let start ?no_ledger ?dir ?journaled ~subcommand ~problem ~config () =
  if not (enabled ?no_ledger ()) then Inert
  else begin
    let pending =
      Telemetry.Ledger.start ?dir ?journaled
        ~ts:(Telemetry.Ledger.utc_timestamp ())
        ~subcommand ~problem ~config
        ~build:(Lazy.force build)
        ()
    in
    with_lock (fun () ->
        install_hook ();
        let id = !next_id in
        incr next_id;
        Hashtbl.replace registry id pending;
        Live { id; pending })
  end

let journal = function
  | Inert -> ()
  | Live { pending; _ } -> Telemetry.Ledger.journal pending

let finish ?stats ?metrics ?cache_hit token ~outcome ~exit_code () =
  match token with
  | Inert -> ()
  | Live { id; pending } ->
      with_lock (fun () -> Hashtbl.remove registry id);
      Telemetry.Ledger.finish ?stats ?metrics ?cache_hit pending ~outcome
        ~exit_code
