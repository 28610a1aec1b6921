(* Shared plumbing of the benchmark: clocks, order statistics, process
   facts, the sandbox directory, the in-memory span recorder and the
   metric records every workload returns. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---------- order statistics ---------- *)

(* Nearest-rank quantile (rank ceil(q·n)); [nan] on no samples. *)
let quantile xs q = Option.value (Telemetry.Ledger.quantile xs q) ~default:Float.nan

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }
let ms_p name q xs = metric ~samples:(List.length xs) name "ms" (quantile xs q *. 1e3)

(* ---------- process facts ---------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* VmHWM (peak resident set) of a live process, in MiB; 0 when unreadable. *)
let vm_hwm_mb pid =
  let field =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  in
  match field with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let self_hwm_mb () = vm_hwm_mb "self"

(* Minor-heap words allocated by this process and the forked children it
   ran work in. *)
let child_minor_words = ref 0.0
let minor_words () = Gc.minor_words () +. !child_minor_words

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "?"
  | ic ->
      let v = try String.trim (input_line ic) with End_of_file -> "?" in
      ignore (Unix.close_process_in ic);
      v

(* ---------- sandbox ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every file a run writes lives under [perfbench/_work] of the checkout
   (relative, so daemon socket paths stay short); the caller removes its
   directory when the run ends. *)
let work_root = Filename.concat "perfbench" "_work"

let fresh_dir tag =
  let d =
    Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  rm_rf d;
  mkdir_p d;
  d

(* ---------- spans ---------- *)

(* The traced run's in-memory spans: one record per timed call, tagged
   with the request it serves and its parent span, kept under a mutex
   because serve-mix clients run on two threads.  Off by default; a run
   turns it on only for its traced pass. *)
module Span = struct
  type t = {
    id : int;
    req : int;
    parent : int;  (** 0 for a root span *)
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let lock = Mutex.create ()
  let next = ref 0
  let recorded : t list ref = ref []

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let fresh_id () =
    locked (fun () ->
        incr next;
        !next)

  let record s = locked (fun () -> recorded := s :: !recorded)

  (* [span ?parent ~req name f] times [f id] as one span; [id] is what
     children pass as their [parent]. *)
  let span ?(parent = 0) ~req name f =
    if not !on then f 0
    else begin
      let id = fresh_id () in
      let t0 = now () in
      let close () = record { id; req; parent; name; t0; t1 = now () } in
      match f id with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e
    end

  (* [adopt ~req ~parent f] runs [f] under a telemetry memory sink and
     records the spans the library itself emits during that execution
     ([cegis.iteration], [ctx.check], [cegis.verify], [sat.solve]) as
     descendants of [parent], so one call's wall can be split by layer
     without a second execution. *)
  let adopt ~req ~parent f =
    if not !on then f ()
    else begin
      let sink, events = Telemetry.Sink.memory () in
      let offset = now () -. Telemetry.now () in
      let v = Telemetry.with_sink sink f in
      let ours = Hashtbl.create 64 and opened = Hashtbl.create 64 in
      List.iter
        (function
          | Telemetry.Sink.Span_begin { ts; id; parent = p; name; _ } ->
              let mine = fresh_id () in
              Hashtbl.replace ours id mine;
              let up = Option.value (Option.bind p (Hashtbl.find_opt ours)) ~default:parent in
              Hashtbl.replace opened id (mine, up, name, ts)
          | Telemetry.Sink.Span_end { ts; id; _ } -> (
              match Hashtbl.find_opt opened id with
              | Some (mine, up, name, t0) ->
                  record { id = mine; req; parent = up; name; t0 = t0 +. offset; t1 = ts +. offset }
              | None -> ())
          | _ -> ())
        (events ());
      v
    end

  let dur s = s.t1 -. s.t0
  let all () = locked (fun () -> List.rev !recorded)

  (* Spans recorded after [mark ()] returned [m], oldest first, and
     folding such spans from a forked child back into this process. *)
  let mark () = locked (fun () -> !next)
  let since m = List.filter (fun s -> s.id > m) (all ())

  let merge spans =
    locked (fun () ->
        recorded := List.rev_append spans !recorded;
        next := List.fold_left (fun m s -> max m s.id) !next spans)

  (* durations of the spans called [name], leaving out set-up work, which
     runs under request id 0 *)
  let durations name =
    List.filter_map (fun s -> if s.name = name && s.req <> 0 then Some (dur s) else None) (all ())

  (* Self time: a span's duration minus that of its direct children. *)
  let self_times spans =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
      spans;
    List.map
      (fun s ->
        (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
      spans

  let write path =
    let oc = open_out path in
    List.iter
      (fun (s, self) ->
        Printf.fprintf oc
          "{\"id\":%d,\"req\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.6f,\"dur_ms\":%.4f,\"self_ms\":%.4f}\n"
          s.id s.req s.parent s.name s.t0 (dur s *. 1e3) (self *. 1e3))
      (self_times (all ()));
    close_out oc

end

(* ---------- seeded draws ---------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* What one measured pass of a workload returns.  Oracle rejections are
   collected separately, in the [wrong] list every pass is handed. *)
type pass = {
  e2e : metric list;  (** the end-to-end metrics, [setup_s] included *)
  layers : metric list;  (** per-layer metrics; empty unless traced *)
  headline : float;  (** the throughput compared for trace overhead *)
  attempted : int;
  failed : int;  (** failed, refused or timed-out requests *)
}
