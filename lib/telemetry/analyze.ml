(* Offline analysis of NDJSON traces (and BENCH_*.json files): the read
   side of the telemetry layer.  Everything here works on file *content*
   strings so it is trivially testable without touching the filesystem. *)

(* ---------- NDJSON parsing ---------- *)

type parsed = { events : Sink.event list; truncated : bool }

let value_of_json = function
  | Json.Bool b -> Sink.Bool b
  | Json.Int n -> Sink.Int n
  | Json.Float f -> Sink.Float f
  | Json.Str s -> Sink.Str s
  | (Json.Null | Json.List _ | Json.Obj _) as j -> Sink.Str (Json.to_string j)

let event_of_json j =
  let str_field key =
    match Option.bind (Json.member key j) Json.to_string_opt with
    | Some s -> s
    | None -> raise (Json.Parse_error (Printf.sprintf "missing %s" key))
  in
  let kind = str_field "kind" in
  let name = str_field "name" in
  let ts =
    match Option.bind (Json.member "ts" j) Json.to_float with
    | Some ts -> ts
    | None -> raise (Json.Parse_error "missing ts")
  in
  let int_field key = Option.bind (Json.member key j) Json.to_int in
  let float_field key = Option.bind (Json.member key j) Json.to_float in
  let structural =
    [ "ts"; "kind"; "name"; "id"; "parent"; "dur"; "value" ]
  in
  let fields =
    match j with
    | Json.Obj entries ->
        List.filter_map
          (fun (k, v) ->
            if List.mem k structural then None else Some (k, value_of_json v))
          entries
    | _ -> raise (Json.Parse_error "event is not an object")
  in
  match kind with
  | "span_begin" ->
      let id =
        match int_field "id" with
        | Some id -> id
        | None -> raise (Json.Parse_error "span_begin: missing id")
      in
      Sink.Span_begin { ts; id; parent = int_field "parent"; name; fields }
  | "span_end" ->
      let id =
        match int_field "id" with
        | Some id -> id
        | None -> raise (Json.Parse_error "span_end: missing id")
      in
      let dur = Option.value (float_field "dur") ~default:0.0 in
      Sink.Span_end { ts; id; name; dur; fields }
  | "counter" ->
      let value = Option.value (int_field "value") ~default:0 in
      Sink.Counter { ts; name; value; fields }
  | "gauge" ->
      let value = Option.value (float_field "value") ~default:0.0 in
      Sink.Gauge { ts; name; value; fields }
  | _ ->
      (* "event", and any kind a future writer invents: keep the
         ts/name/fields payload rather than failing the whole trace *)
      Sink.Point { ts; name; fields }

(* A process killed mid-write leaves a final line with no newline
   terminator: that specific damage is tolerated ([truncated] = true), so
   a trace survives the very crash telemetry exists to explain.  Any
   malformed line that is newline-terminated is real corruption and an
   [Error] naming the line. *)
let of_string content =
  let ends_with_newline =
    String.length content = 0 || content.[String.length content - 1] = '\n'
  in
  let lines =
    match List.rev (String.split_on_char '\n' content) with
    | "" :: rest -> List.rev rest (* drop the split artifact after a final \n *)
    | rest -> List.rev rest
  in
  let n_lines = List.length lines in
  let truncated = ref false in
  let rec go acc line_no = function
    | [] -> Ok { events = List.rev acc; truncated = !truncated }
    | "" :: rest -> go acc (line_no + 1) rest
    | line :: rest -> (
        match event_of_json (Json.of_string line) with
        | ev -> go (ev :: acc) (line_no + 1) rest
        | exception Json.Parse_error msg ->
            if line_no = n_lines && not ends_with_newline then begin
              truncated := true;
              go acc (line_no + 1) rest
            end
            else Error (Printf.sprintf "line %d: %s" line_no msg))
  in
  go [] 1 lines

(* ---------- validation (trace check) ---------- *)

type check = {
  total : int;
  counts : ((string * string) * int) list;
  check_truncated : bool;
  unbalanced_spans : int;
  out_of_order : int;
  unknown_fields : int;
  unknown_field_names : string list;
}

(* Every custom field key the current writers emit and the analyzers
   understand.  Keys outside this set come from a newer writer (the way
   "request" did when span context was introduced): they are kept as
   custom fields and surfaced by [check] as a warning count, never an
   error — forward compatibility is part of the trace format contract. *)
let known_fields =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace tbl k ())
    [
      "action"; "alloc_words"; "analyze_s"; "attempt"; "backoff_attempt";
      "budget_s"; "cand_weight"; "cex_mode"; "cex_weight"; "cexes";
      "check_len"; "clauses"; "config"; "conflicts"; "consumed"; "crashes";
      "data_len"; "decisions"; "delay_s"; "domain"; "dur_s"; "encoding";
      "error_prob"; "exn"; "extra_constraints"; "finished"; "flips_ge_md";
      "id"; "interval_s"; "iter";
      "iterations"; "jobs"; "k"; "learnt_size_hist"; "level"; "major_n";
      "major_s"; "min_distance"; "minor_n"; "minor_s";
      "n"; "new_clauses"; "new_vars"; "op"; "outcome"; "param"; "portfolio";
      "proof_steps"; "propagate_s"; "propagations"; "published";
      "queue_depth"; "queue_wait_s"; "reason"; "request";
      "restart_interval_s"; "restart_s"; "restarts"; "result";
      "resumed_cexes"; "round"; "rounds"; "samples"; "scale"; "scheduler";
      "seed"; "session"; "set_bits"; "site"; "stats.elapsed_s"; "symmetry";
      "stats.iterations"; "stats.learnt_size_p50"; "stats.learnt_size_p95";
      "stats.learnt_size_p99"; "stats.syn_conflicts"; "stats.ver_conflicts";
      "stats.verifier_calls"; "stats.worker_crashes"; "stats.worker_restarts";
      "timeout"; "timeout_s"; "undetected"; "vars"; "verdict"; "verifier";
      "wait_s"; "walk"; "wall_s"; "winner"; "words"; "worker";
    ];
  tbl

(* Cross-domain events funnel through one sink mutex, so a later-captured
   timestamp can legitimately be written slightly before an earlier one
   from another domain.  Only regressions beyond this slack are flagged. *)
let reorder_slack = 0.05

let stream_of_fields fields =
  match List.assoc_opt "worker" fields with
  | Some (Sink.Int n) -> string_of_int n
  | Some (Sink.Str s) -> s
  | Some (Sink.Bool b) -> string_of_bool b
  | Some (Sink.Float f) -> string_of_float f
  | None -> ""

let event_fields = function
  | Sink.Span_begin { fields; _ }
  | Sink.Span_end { fields; _ }
  | Sink.Counter { fields; _ }
  | Sink.Gauge { fields; _ }
  | Sink.Point { fields; _ } -> fields

let event_ts = function
  | Sink.Span_begin { ts; _ }
  | Sink.Span_end { ts; _ }
  | Sink.Counter { ts; _ }
  | Sink.Gauge { ts; _ }
  | Sink.Point { ts; _ } -> ts

let check (p : parsed) =
  let counts : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
  let open_spans : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let last_ts : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let unknown : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let unbalanced = ref 0 and out_of_order = ref 0 and total = ref 0 in
  let unknown_events = ref 0 in
  List.iter
    (fun ev ->
      incr total;
      let strange =
        List.fold_left
          (fun acc (k, _) ->
            if Hashtbl.mem known_fields k then acc
            else begin
              Hashtbl.replace unknown k ();
              true
            end)
          false (event_fields ev)
      in
      if strange then incr unknown_events;
      let key = (Sink.event_kind ev, Sink.event_name ev) in
      Hashtbl.replace counts key
        (1 + Option.value (Hashtbl.find_opt counts key) ~default:0);
      (match ev with
      | Sink.Span_begin { id; _ } -> Hashtbl.replace open_spans id ()
      | Sink.Span_end { id; _ } ->
          if Hashtbl.mem open_spans id then Hashtbl.remove open_spans id
          else incr unbalanced (* end without a begin *)
      | _ -> ());
      let stream = stream_of_fields (event_fields ev) in
      let ts = event_ts ev in
      (match Hashtbl.find_opt last_ts stream with
      | Some prev when ts < prev -. reorder_slack -> incr out_of_order
      | _ -> ());
      match Hashtbl.find_opt last_ts stream with
      | Some prev when prev > ts -> ()
      | _ -> Hashtbl.replace last_ts stream ts)
    p.events;
  {
    total = !total;
    counts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
    check_truncated = p.truncated;
    unbalanced_spans = !unbalanced + Hashtbl.length open_spans;
    out_of_order = !out_of_order;
    unknown_fields = !unknown_events;
    unknown_field_names =
      List.sort String.compare
        (Hashtbl.fold (fun k () acc -> k :: acc) unknown []);
  }

(* ---------- slices, span tree and phase attribution ---------- *)

let request_of_fields fields =
  match List.assoc_opt "request" fields with
  | Some (Sink.Str id) -> Some id
  | _ -> None

(* request ids present in the trace, busiest first *)
let request_ids (p : parsed) =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match request_of_fields (event_fields ev) with
      | Some id ->
          Hashtbl.replace tbl id
            (1 + Option.value (Hashtbl.find_opt tbl id) ~default:0)
      | None -> ())
    p.events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, ca) (b, cb) ->
         match compare cb ca with 0 -> String.compare a b | c -> c)

(* The events one analysis runs over: the whole trace, or the events
   stamped with one request id. *)
let slice ?request (p : parsed) =
  match request with
  | None -> p.events
  | Some r ->
      List.filter (fun ev -> request_of_fields (event_fields ev) = Some r) p.events

(* first and last timestamp of a non-empty slice *)
let time_bounds evs =
  List.fold_left
    (fun (lo, hi) ev ->
      let ts = event_ts ev in
      (Float.min lo ts, Float.max hi ts))
    (infinity, neg_infinity) evs

let wall_of evs =
  match evs with
  | [] -> 0.0
  | _ ->
      let lo, hi = time_bounds evs in
      hi -. lo

type span = {
  id : int;
  name : string;
  parent : int option;
  t0 : float;
  dur : float;
  self : float; (* dur minus the summed durations of direct children *)
  still_open : bool;
  begin_fields : Sink.fields;
  end_fields : Sink.fields;
}

let float_field fields key =
  match List.assoc_opt key fields with
  | Some (Sink.Float f) -> Some f
  | Some (Sink.Int n) -> Some (float_of_int n)
  | _ -> None

let int_field fields key =
  match List.assoc_opt key fields with
  | Some (Sink.Int n) -> Some n
  | _ -> None

(* The one begin/end pairing.  Completed spans come in end order; spans
   still open when the slice ends (a killed run, a reaped stall) follow
   in begin order, extended to the slice's last timestamp so their time
   is attributed to the phase they were stuck in.  Self-times subtract
   the durations of direct children, open ones included. *)
let spans_of_events evs =
  let t_end = snd (time_bounds evs) in
  let begins = Hashtbl.create 64 in
  let completed = ref [] in
  let span id (t0, parent, name, begin_fields) ~dur ~still_open end_fields =
    { id; name; parent; t0; dur; self = 0.0; still_open; begin_fields;
      end_fields }
  in
  List.iter
    (function
      | Sink.Span_begin { ts; id; parent; name; fields } ->
          Hashtbl.replace begins id (ts, parent, name, fields)
      | Sink.Span_end { id; dur; fields; _ } -> (
          match Hashtbl.find_opt begins id with
          | None -> ()
          | Some b ->
              Hashtbl.remove begins id;
              completed := span id b ~dur ~still_open:false fields :: !completed)
      | _ -> ())
    evs;
  let still_open =
    Hashtbl.fold
      (fun id ((t0, _, _, _) as b) acc ->
        span id b ~dur:(Float.max 0.0 (t_end -. t0)) ~still_open:true [] :: acc)
      begins []
    |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))
  in
  let all = List.rev_append !completed still_open in
  let child_time : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      Option.iter
        (fun pid ->
          Hashtbl.replace child_time pid
            (sp.dur +. Option.value (Hashtbl.find_opt child_time pid) ~default:0.0))
        sp.parent)
    all;
  List.map
    (fun sp ->
      let children = Option.value (Hashtbl.find_opt child_time sp.id) ~default:0.0 in
      { sp with self = Float.max 0.0 (sp.dur -. children) })
    all

let spans (p : parsed) = spans_of_events p.events

type phase = { phase : string; total_s : float; calls : int }

type report = {
  request : string option;
  events : int;
  wall_s : float;
  queue_wait_s : float; (* request slices only: first event to first span *)
  busy_s : float; (* summed root-span time; > wall_s when domains overlap *)
  open_spans : int;
  attributed_s : float; (* interval union of root spans and queue wait *)
  unattributed_s : float;
  attributed_pct : float;
  iterations : int;
  phases : phase list; (* sorted by total_s, descending *)
  sat_totals : (string * int) list;
  slowest : (int * float * (string * float) list) list;
      (* (iteration number, duration, direct children by name) *)
}

(* Map one span's self-time onto named phases.  [sat.solve] spans carry
   their own inner-loop split (propagate/analyze/restart seconds measured
   by the solver when tracing is on); the remainder of the solver's
   self-time is clause management, branching and encoding walk
   ("sat.other"). *)
let phases_of_span sp =
  match sp.name with
  | "sat.solve" -> (
      match
        ( float_field sp.end_fields "propagate_s",
          float_field sp.end_fields "analyze_s",
          float_field sp.end_fields "restart_s" )
      with
      | Some p, Some a, Some r ->
          [
            ("sat.propagate", p);
            ("sat.analyze", a);
            ("sat.restart", r);
            ("sat.other", Float.max 0.0 (sp.self -. p -. a -. r));
          ]
      | _ -> [ ("sat.solve", sp.self) ])
  | "ctx.check" -> [ ("smtlite.encode", sp.self) ]
  | "cegis.iteration" -> [ ("cegis.loop", sp.self) ]
  | "portfolio.worker" -> [ ("portfolio.idle", sp.self) ]
  | name -> [ (name, sp.self) ]

(* Total length of the union of [(start, dur)] intervals.  Disjoint
   intervals add their [dur] unchanged, so a trace whose intervals never
   overlap gets exactly their sum. *)
let union_length intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  fst
    (List.fold_left
       (fun (acc, reach) (s, d) ->
         let e = s +. d in
         if s >= reach then (acc +. d, e)
         else (acc +. Float.max 0.0 (e -. reach), Float.max reach e))
       (0.0, neg_infinity) sorted)

(* One attribution rule for the whole trace and for a request slice:
   the slice's wall clock covered by root spans (spans whose parent is
   not in the slice) and, for a request, its queue wait — an interval
   union, since roots on concurrent worker domains overlap. *)
let report ?request ?(top = 3) (p : parsed) =
  let evs = slice ?request p in
  if request <> None && evs = [] then None
  else
    let sps = spans_of_events evs in
    let ids = Hashtbl.create 64 in
    List.iter (fun sp -> Hashtbl.replace ids sp.id ()) sps;
    let roots =
      List.filter
        (fun sp ->
          match sp.parent with None -> true | Some pid -> not (Hashtbl.mem ids pid))
        sps
    in
    let queue_wait, queue_interval =
      match (request, sps) with
      | Some _, _ :: _ ->
          let t0 = fst (time_bounds evs) in
          let first = List.fold_left (fun acc sp -> Float.min acc sp.t0) infinity sps in
          let w = Float.max 0.0 (first -. t0) in
          (w, if w > 0.0 then [ (t0, w) ] else [])
      | _ -> (0.0, [])
    in
    let phase_tbl : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
    let add_phase name s count =
      let t, c = Option.value (Hashtbl.find_opt phase_tbl name) ~default:(0.0, 0) in
      Hashtbl.replace phase_tbl name (t +. s, c + count)
    in
    List.iter
      (fun sp ->
        match phases_of_span sp with
        | [ (name, s) ] -> add_phase name s 1
        | parts -> List.iter (fun (name, s) -> add_phase name s 0) parts)
      sps;
    (* count sat.solve calls once for the split rows *)
    let solve_calls =
      List.length (List.filter (fun sp -> sp.name = "sat.solve") sps)
    in
    List.iter
      (fun n ->
        match Hashtbl.find_opt phase_tbl n with
        | Some (t, 0) -> Hashtbl.replace phase_tbl n (t, solve_calls)
        | _ -> ())
      [ "sat.propagate"; "sat.analyze"; "sat.restart"; "sat.other" ];
    if queue_wait > 0.0 then add_phase "queue.wait" queue_wait 1;
    let wall = wall_of evs in
    let busy = List.fold_left (fun acc sp -> acc +. sp.dur) 0.0 roots in
    let covered =
      union_length (queue_interval @ List.map (fun sp -> (sp.t0, sp.dur)) roots)
    in
    let unattributed = Float.max 0.0 (wall -. covered) in
    let iters =
      List.filter (fun sp -> sp.name = "cegis.iteration") sps
    in
    let sat_totals =
      List.map
        (fun k ->
          ( k,
            List.fold_left
              (fun acc sp ->
                if sp.name = "sat.solve" then
                  acc + Option.value (int_field sp.end_fields k) ~default:0
                else acc)
              0 sps ))
        [ "decisions"; "propagations"; "conflicts"; "restarts" ]
    in
    let slowest =
      List.sort (fun a b -> Float.compare b.dur a.dur) iters
      |> List.filteri (fun i _ -> i < top)
      |> List.map (fun sp ->
             let n = Option.value (int_field sp.begin_fields "iter") ~default:0 in
             let kids = Hashtbl.create 4 in
             List.iter
               (fun c ->
                 if c.parent = Some sp.id then
                   Hashtbl.replace kids c.name
                     (c.dur +. Option.value (Hashtbl.find_opt kids c.name) ~default:0.0))
               sps;
             let kid_list =
               Hashtbl.fold (fun k v acc -> (k, v) :: acc) kids []
               |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
             in
             (n, sp.dur, kid_list))
    in
    Some
      {
        request;
        events = List.length evs;
        wall_s = wall;
        queue_wait_s = queue_wait;
        busy_s = busy;
        open_spans = List.length (List.filter (fun sp -> sp.still_open) sps);
        attributed_s = wall -. unattributed;
        unattributed_s = unattributed;
        attributed_pct =
          (if wall <= 0.0 then 100.0 else 100.0 *. (wall -. unattributed) /. wall);
        iterations = List.length iters;
        phases =
          Hashtbl.fold
            (fun name (t, c) acc -> { phase = name; total_s = t; calls = c } :: acc)
            phase_tbl []
          |> List.sort (fun a b ->
                 match Float.compare b.total_s a.total_s with
                 | 0 -> String.compare a.phase b.phase
                 | c -> c);
        sat_totals;
        slowest;
      }

(* ---------- folded flamegraph stacks ---------- *)

(* One line per distinct span-name stack, "root;child;leaf <self µs>",
   the folded-stack format consumed by flamegraph.pl and speedscope.
   Output is sorted by stack for determinism.

   Runtime-lens GC pause points ([runtime.gc.minor]/[runtime.gc.major],
   each carrying [dur_s]) fold in as leaf frames under the innermost
   span covering their timestamp, with the pause microseconds moved out
   of that span's self-time — so a GC-bound phase shows its GC share as
   a distinct frame instead of inflating the phase itself.  Pauses
   landing outside any span become root-level GC frames. *)
let flame (p : parsed) =
  let sps = spans p in
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.id sp) sps;
  let rec stack sp =
    match sp.parent with
    | Some pid when Hashtbl.mem by_id pid ->
        stack (Hashtbl.find by_id pid) ^ ";" ^ sp.name
    | _ -> sp.name
  in
  let folded : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add key us =
    Hashtbl.replace folded key
      (us + Option.value (Hashtbl.find_opt folded key) ~default:0)
  in
  (* µs of GC pause charged to each span, to deduct from its self-time *)
  let gc_in_span : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | Sink.Point
          { ts; name = ("runtime.gc.minor" | "runtime.gc.major") as name;
            fields } -> (
          let dur = Option.value (float_field fields "dur_s") ~default:0.0 in
          let us = int_of_float ((dur *. 1e6) +. 0.5) in
          if us > 0 then
            let innermost =
              List.fold_left
                (fun acc sp ->
                  if sp.t0 <= ts && ts <= sp.t0 +. sp.dur then
                    match acc with
                    | None -> Some sp
                    | Some best ->
                        if
                          sp.t0 > best.t0
                          || (sp.t0 = best.t0 && sp.dur < best.dur)
                        then Some sp
                        else acc
                  else acc)
                None sps
            in
            match innermost with
            | Some sp ->
                add (stack sp ^ ";" ^ name) us;
                Hashtbl.replace gc_in_span sp.id
                  (us
                  + Option.value (Hashtbl.find_opt gc_in_span sp.id) ~default:0)
            | None -> add name us)
      | _ -> ())
    p.events;
  List.iter
    (fun sp ->
      let us = int_of_float ((sp.self *. 1e6) +. 0.5) in
      let gc = Option.value (Hashtbl.find_opt gc_in_span sp.id) ~default:0 in
      add (stack sp) (max 0 (us - gc)))
    sps;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) folded []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let flame_to_string p =
  String.concat ""
    (List.map (fun (stack, us) -> Printf.sprintf "%s %d\n" stack us) (flame p))

(* ---------- metric extraction and diffing ---------- *)

type source = Trace | Bench

let source_name = function Trace -> "trace" | Bench -> "bench"

let metrics_of_trace (p : parsed) =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let bump k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0) in
  List.iter
    (fun ev ->
      match ev with
      | Sink.Span_end { name; dur; _ } ->
          bump ("span." ^ name ^ ".total_s") dur;
          bump ("span." ^ name ^ ".count") 1.0
      | Sink.Counter { name; value; _ } ->
          bump ("counter." ^ name) (float_of_int value)
      | Sink.Point { name; _ } -> bump ("event." ^ name) 1.0
      | Sink.Span_begin _ | Sink.Gauge _ -> ())
    p.events;
  if p.events <> [] then Hashtbl.replace tbl "wall_s" (wall_of p.events);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* BENCH_*.json as written by bench/main.exe:
   {"pr":...,"scale":...,"instances":[{"experiment","instance","wall_s",
   "iterations","conflicts"}...]} *)
let metrics_of_bench j =
  match Json.member "instances" j with
  | Some (Json.List instances) ->
      let row acc inst =
        match acc with
        | Error _ -> acc
        | Ok rows -> (
            let str k = Option.bind (Json.member k inst) Json.to_string_opt in
            match (str "experiment", str "instance") with
            | Some e, Some i ->
                let base = e ^ "/" ^ i ^ "/" in
                let num k =
                  Option.bind (Json.member k inst) Json.to_float
                  |> Option.map (fun v -> (base ^ k, v))
                in
                Ok
                  (List.filter_map num [ "wall_s"; "iterations"; "conflicts" ]
                  @ rows)
            | _ -> Error "bench instance missing experiment/instance")
      in
      Result.map
        (List.sort (fun (a, _) (b, _) -> String.compare a b))
        (List.fold_left row (Ok []) instances)
  | _ -> Error "not a bench file: no \"instances\" array"

(* Auto-detect the file flavor: a single JSON object with an "instances"
   array is a bench file, otherwise the content must parse as an NDJSON
   trace. *)
let metrics_of_string content =
  let as_bench =
    match Json.of_string (String.trim content) with
    | j -> Some (metrics_of_bench j)
    | exception Json.Parse_error _ -> None
  in
  match as_bench with
  | Some (Ok rows) -> Ok (rows, Bench)
  | _ -> (
      match of_string content with
      | Ok p -> Ok (metrics_of_trace p, Trace)
      | Error e -> Error ("neither bench json nor ndjson trace: " ^ e))

type delta = { key : string; va : float; vb : float; pct : float }

type diff = {
  shared : int;
  only_a : int;
  only_b : int;
  added : string list; (* present only in b, sorted *)
  removed : string list; (* present only in a, sorted *)
  regressions : delta list; (* pct > threshold, worst first *)
  improvements : delta list; (* pct < -threshold, best first *)
}

(* ---------- runtime lens section (trace report) ---------- *)

(* Aggregate the runtime lens's [runtime.gc] interval points into a
   per-domain mutator/GC/wait split.  Each point covers the interval
   since the previous one on its domain ([interval_s]), so summing them
   tiles that domain's observed wall time; mutator time is the
   remainder after GC and condition-wait.  With [request], only points
   tagged with that id count — the per-request view of a daemon trace. *)

type runtime_domain = {
  rt_domain : int;
  rt_covered_s : float;  (* summed interval_s: observed wall on this domain *)
  rt_minor_s : float;
  rt_major_s : float;
  rt_wait_s : float;
  rt_mutator_s : float;  (* covered minus GC minus wait *)
  rt_minor_n : int;
  rt_major_n : int;
  rt_alloc_words : int;
}

type runtime_section = {
  rt_domains : runtime_domain list;  (* sorted by domain index *)
  rt_gc_s : float;  (* minor + major over all domains *)
  rt_total_mutator_s : float;
  rt_total_wait_s : float;
  rt_pauses : int;  (* over-threshold pause points in the slice *)
  rt_max_pause_s : float;
  rt_covered_pct : float;
      (* best per-domain coverage against the slice's wall clock: how
         much of the run the lens actually observed and attributed *)
}

let runtime ?request (p : parsed) =
  let evs = slice ?request p in
  let wall = wall_of evs in
  let tbl : (int, runtime_domain) Hashtbl.t = Hashtbl.create 8 in
  let pauses = ref 0 in
  let max_pause = ref 0.0 in
  List.iter
    (fun ev ->
      match ev with
      | Sink.Point { name = "runtime.gc"; fields; _ } ->
          let f k = Option.value (float_field fields k) ~default:0.0 in
          let i k = Option.value (int_field fields k) ~default:0 in
          let d = i "domain" in
          let prev =
            Option.value (Hashtbl.find_opt tbl d)
              ~default:
                {
                  rt_domain = d;
                  rt_covered_s = 0.0;
                  rt_minor_s = 0.0;
                  rt_major_s = 0.0;
                  rt_wait_s = 0.0;
                  rt_mutator_s = 0.0;
                  rt_minor_n = 0;
                  rt_major_n = 0;
                  rt_alloc_words = 0;
                }
          in
          Hashtbl.replace tbl d
            {
              prev with
              rt_covered_s = prev.rt_covered_s +. f "interval_s";
              rt_minor_s = prev.rt_minor_s +. f "minor_s";
              rt_major_s = prev.rt_major_s +. f "major_s";
              rt_wait_s = prev.rt_wait_s +. f "wait_s";
              rt_minor_n = prev.rt_minor_n + i "minor_n";
              rt_major_n = prev.rt_major_n + i "major_n";
              rt_alloc_words = prev.rt_alloc_words + i "alloc_words";
            }
      | Sink.Point
          { name = "runtime.gc.minor" | "runtime.gc.major"; fields; _ } ->
          incr pauses;
          let d = Option.value (float_field fields "dur_s") ~default:0.0 in
          if d > !max_pause then max_pause := d
      | _ -> ())
    evs;
  if Hashtbl.length tbl = 0 && !pauses = 0 then None
  else
    let domains =
      Hashtbl.fold (fun _ rd acc -> rd :: acc) tbl []
      |> List.map (fun rd ->
             {
               rd with
               rt_mutator_s =
                 Float.max 0.0
                   (rd.rt_covered_s -. rd.rt_minor_s -. rd.rt_major_s
                  -. rd.rt_wait_s);
             })
      |> List.sort (fun a b -> compare a.rt_domain b.rt_domain)
    in
    let sum f = List.fold_left (fun acc rd -> acc +. f rd) 0.0 domains in
    let best_covered =
      List.fold_left (fun acc rd -> Float.max acc rd.rt_covered_s) 0.0 domains
    in
    Some
      {
        rt_domains = domains;
        rt_gc_s = sum (fun rd -> rd.rt_minor_s +. rd.rt_major_s);
        rt_total_mutator_s = sum (fun rd -> rd.rt_mutator_s);
        rt_total_wait_s = sum (fun rd -> rd.rt_wait_s);
        rt_pauses = !pauses;
        rt_max_pause_s = !max_pause;
        rt_covered_pct =
          (if wall <= 0.0 then 100.0
           else Float.min 100.0 (100.0 *. best_covered /. wall));
      }

let diff ~threshold a b =
  let tbl_a = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl_a k v) a;
  let shared = ref 0 and added = ref [] in
  let deltas =
    List.filter_map
      (fun (k, vb) ->
        match Hashtbl.find_opt tbl_a k with
        | None ->
            added := k :: !added;
            None
        | Some va ->
            incr shared;
            Hashtbl.remove tbl_a k;
            let pct =
              if va = 0.0 && vb = 0.0 then 0.0
              else if va = 0.0 then infinity
              else (vb -. va) /. va *. 100.0
            in
            Some { key = k; va; vb; pct })
      b
  in
  let removed =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl_a [])
  in
  let added = List.sort String.compare !added in
  {
    shared = !shared;
    only_a = List.length removed;
    only_b = List.length added;
    added;
    removed;
    regressions =
      List.filter (fun d -> d.pct > threshold) deltas
      |> List.sort (fun x y -> Float.compare y.pct x.pct);
    improvements =
      List.filter (fun d -> d.pct < -.threshold) deltas
      |> List.sort (fun x y -> Float.compare x.pct y.pct);
  }
