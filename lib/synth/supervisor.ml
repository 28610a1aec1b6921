(* Crash supervision for synthesis workers.

   A supervised body may raise anything: cooperative-cancellation
   exceptions (Ctx.Timeout / Ctx.Interrupted by default) pass through
   untouched — they are the normal way a losing portfolio worker stops —
   while every other exception is captured as a crash, recorded in
   telemetry, and answered by restarting the body after a jittered
   exponential backoff.  The attempt index is handed to the body so each
   incarnation can reseed itself.  Crash/restart totals feed the new
   Report.Stats counters, so a degraded run is visible in --stats. *)

type policy = {
  max_restarts : int;
  backoff_base : float;
  backoff_max : float;
  jitter : float;
  seed : int;
}

let default_policy =
  {
    max_restarts = 3;
    backoff_base = 0.01;
    backoff_max = 0.5;
    jitter = 0.5;
    seed = 0;
  }

type 'a run = {
  result : ('a, exn) Stdlib.result;
  crashes : int;
  restarts : int;
}

let default_cancellation = function
  | Smtlite.Ctx.Timeout | Smtlite.Ctx.Interrupted -> true
  | _ -> false

(* splitmix64, as in Fault: backoff jitter must be deterministic per
   (seed, label, attempt) so seeded resilience trials are reproducible *)
let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let unit_draw ~seed ~label ~attempt =
  let h = Hashtbl.hash (label, attempt) in
  let bits =
    Int64.shift_right_logical
      (splitmix64 (Int64.of_int (seed lxor (h * 0x9E3779B9))))
      11
  in
  Int64.to_float bits /. 9007199254740992.0

let backoff_delay policy ~label ~attempt =
  let base =
    Float.min policy.backoff_max
      (policy.backoff_base *. Float.pow 2.0 (float_of_int attempt))
  in
  let u = unit_draw ~seed:policy.seed ~label ~attempt in
  Float.max 0.0 (base *. (1.0 +. (policy.jitter *. (u -. 0.5))))

let on_crash policy ~label ~attempt e =
  let point name fields =
    if Telemetry.enabled () then
      Telemetry.point name ~fields:(("worker", Telemetry.str label) :: fields)
  in
  point "supervisor.crash"
    [
      ("attempt", Telemetry.int attempt);
      ("exn", Telemetry.str (Printexc.to_string e));
    ];
  if attempt >= policy.max_restarts then begin
    point "supervisor.giveup" [ ("crashes", Telemetry.int (attempt + 1)) ];
    None
  end
  else begin
    let delay = backoff_delay policy ~label ~attempt in
    point "supervisor.restart"
      [
        ("attempt", Telemetry.int (attempt + 1));
        ("delay_s", Telemetry.float delay);
      ];
    Some delay
  end

let run ?(policy = default_policy) ?(label = "worker")
    ?(is_cancellation = default_cancellation) body =
  let rec go attempt =
    match body ~attempt with
    | v -> { result = Ok v; crashes = attempt; restarts = attempt }
    | exception e when not (is_cancellation e) -> (
        match on_crash policy ~label ~attempt e with
        | None -> { result = Error e; crashes = attempt + 1; restarts = attempt }
        | Some delay ->
            if delay > 0.0 then Unix.sleepf delay;
            go (attempt + 1))
  in
  go 0
