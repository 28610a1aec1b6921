module J = Telemetry.Json

type command =
  | Ping
  | Submit of {
      request : Session.request;
      await : bool;
      deadline_s : float option;
    }
  | Status of int
  | Await of int
  | Cancel of int
  | Stats
  | Metrics
  | Shutdown

(* ---------- responses ---------- *)

let ok fields = J.to_string (J.Obj (("ok", J.Bool true) :: fields)) ^ "\n"

let error ?kind msg =
  J.to_string
    (J.Obj
       (("ok", J.Bool false)
       :: ((match kind with Some k -> [ ("kind", J.Str k) ] | None -> [])
          @ [ ("error", J.Str msg) ])))
  ^ "\n"

let status_to_json = function
  | Session.Manager.Queued -> J.Obj [ ("state", J.Str "queued") ]
  | Session.Manager.Running -> J.Obj [ ("state", J.Str "running") ]
  | Session.Manager.Cancelled -> J.Obj [ ("state", J.Str "cancelled") ]
  | Session.Manager.Failed msg ->
      J.Obj [ ("state", J.Str "failed"); ("error", J.Str msg) ]
  | Session.Manager.Done r ->
      J.Obj [ ("state", J.Str "done"); ("result", J.Obj (Session.result_fields r)) ]
  | Session.Manager.Timed_out -> J.Obj [ ("state", J.Str "timeout") ]

(* ---------- requests ---------- *)

let member_int k j = Option.bind (J.member k j) J.to_int
let member_str k j = Option.bind (J.member k j) J.to_string_opt

let member_bool k j =
  match J.member k j with Some (J.Bool b) -> Some b | _ -> None

let member_float k j = Option.bind (J.member k j) J.to_float

let id_of j =
  match member_int "id" j with
  | Some id -> Ok id
  | None -> Error "missing id"

let job_of j =
  match (member_str "spec" j, J.member "optimize" j) with
  | Some _, Some _ -> Error "give either spec or optimize, not both"
  | Some prop, None ->
      let weights =
        match J.member "weights" j with
        | Some (J.List ws) ->
            let ints = List.filter_map J.to_int ws in
            if List.length ints = List.length ws then
              Some (Array.of_list ints)
            else None
        | _ -> None
      in
      let jobs = Option.value (member_int "jobs" j) ~default:4 in
      let portfolio =
        Option.value (member_bool "portfolio" j) ~default:false
      in
      if jobs < 1 then Error "jobs must be >= 1"
      else Ok (Session.Synth { prop; weights; portfolio; jobs })
  | None, Some o -> (
      match
        ( member_int "data_len" o,
          member_int "md" o,
          member_int "check_lo" o,
          member_int "check_hi" o )
      with
      | Some data_len, Some md, lo, hi ->
          let check_lo = Option.value lo ~default:1 in
          let check_hi = Option.value hi ~default:16 in
          if data_len < 1 || md < 1 || check_lo < 1 || check_hi < check_lo
          then
            Error
              "need data_len >= 1, md >= 1, 1 <= check_lo <= check_hi"
          else Ok (Session.Optimize { data_len; md; check_lo; check_hi })
      | _ -> Error "optimize needs data_len and md")
  | None, None -> Error "submit needs spec or optimize"

let submit_of ~(defaults : Session.request) j =
  match job_of j with
  | Error _ as e -> e
  | Ok job -> (
      let deadline =
        match member_int "deadline_ms" j with
        | Some ms when ms > 0 -> Ok (Some (float_of_int ms /. 1000.0))
        | Some _ -> Error "deadline_ms must be a positive integer"
        | None -> Ok None
      in
      match deadline with
      | Error _ as e -> e
      | Ok deadline_s ->
          Ok
            (Submit
               {
                 request =
                   {
                     defaults with
                     Session.job;
                     timeout =
                       Option.value (member_float "timeout" j)
                         ~default:defaults.Session.timeout;
                     cache =
                       Option.value (member_bool "cache" j)
                         ~default:defaults.Session.cache;
                   };
                 await = Option.value (member_bool "await" j) ~default:false;
                 deadline_s;
               }))

let command_of_json ~defaults j =
  match member_str "op" j with
  | None -> Error "missing op"
  | Some "ping" -> Ok Ping
  | Some "submit" -> submit_of ~defaults j
  | Some "status" -> Stdlib.Result.map (fun id -> Status id) (id_of j)
  | Some "await" -> Stdlib.Result.map (fun id -> Await id) (id_of j)
  | Some "cancel" -> Stdlib.Result.map (fun id -> Cancel id) (id_of j)
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
