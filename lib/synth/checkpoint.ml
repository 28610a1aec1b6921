(* On-disk checkpoints of a synthesis session.

   A checkpoint captures everything a CEGIS run has paid for that a fresh
   process can reuse: the counterexample pool (raw witnesses, so any
   configuration can re-encode them), the best-so-far generator with its
   verified bound, the optimization bound in force, and the iteration count
   of the interrupted run (so a resumed run can demonstrate it started
   warm).  This module holds only the line-record payload; the file is a
   {!Durable} sealed envelope written by {!Durable.write} (DESIGN.md,
   "Durable files"). *)

let version = 1

type t = {
  data_len : int;
  check_len : int;
  min_distance : int;
  iterations : int;
  opt_bound : int option;
  best : (Hamming.Code.t * int) option;
  cexes : Cegis.cex list;
}

type error = Io of string | Corrupt of string | Version_mismatch of int

let error_to_string = function
  | Io msg -> "cannot read checkpoint: " ^ msg
  | Corrupt msg -> "corrupt checkpoint: " ^ msg
  | Version_mismatch v ->
      Printf.sprintf "checkpoint version %d is not supported (expected %d)" v
        version

(* one-line code rendering: rows joined with ';' (Matrix.of_string_rows
   accepts it back) *)
let code_to_line code =
  String.map (fun c -> if c = '\n' then ';' else c) (Hamming.Code.to_string code)

let magic = "fecsynth-checkpoint"

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "problem %d %d %d\n" t.data_len t.check_len t.min_distance);
  Buffer.add_string b (Printf.sprintf "iterations %d\n" t.iterations);
  (match t.opt_bound with
  | Some n -> Buffer.add_string b (Printf.sprintf "bound %d\n" n)
  | None -> ());
  (match t.best with
  | Some (code, bound) ->
      Buffer.add_string b
        (Printf.sprintf "best %d %s\n" bound (code_to_line code))
  | None -> ());
  List.iter
    (fun cex ->
      match cex with
      | Cegis.Cex_data d ->
          Buffer.add_string b
            (Printf.sprintf "cex d %s\n" (Gf2.Bitvec.to_string d))
      | Cegis.Cex_candidate code ->
          Buffer.add_string b (Printf.sprintf "cex c %s\n" (code_to_line code)))
    t.cexes;
  Buffer.add_string b "end\n";
  Durable.seal ~magic ~version (Buffer.contents b)

let save ~path t = Durable.write path (render t)

exception Bad of string

let parse records =
  let ints ~what n parts =
    let fail () = raise (Bad (Printf.sprintf "unreadable %s record" what)) in
    if List.length parts <> n then fail ()
    else
      List.map
        (fun p -> match int_of_string_opt p with Some v -> v | None -> fail ())
        parts
  in
  let parse_code ~what s =
    match Hamming.Code.of_string s with
    | code -> code
    | exception _ -> raise (Bad (Printf.sprintf "unreadable %s generator" what))
  in
  let problem = ref None in
  let iterations = ref 0 in
  let opt_bound = ref None in
  let best = ref None in
  let cexes = ref [] in
  let seen_end = ref false in
  List.iter
    (fun line ->
      if !seen_end then raise (Bad "records after end");
      match String.split_on_char ' ' line with
      | "problem" :: parts -> (
          match ints ~what:"problem" 3 parts with
          | [ d; c; m ] when d >= 1 && c >= 1 && m >= 1 ->
              problem := Some (d, c, m)
          | _ -> raise (Bad "unreadable problem record"))
      | "iterations" :: parts -> (
          match ints ~what:"iterations" 1 parts with
          | [ n ] when n >= 0 -> iterations := n
          | _ -> raise (Bad "unreadable iterations record"))
      | "bound" :: parts -> (
          match ints ~what:"bound" 1 parts with
          | [ n ] -> opt_bound := Some n
          | _ -> raise (Bad "unreadable bound record"))
      | [ "best"; bound; code ] -> (
          match int_of_string_opt bound with
          | Some b -> best := Some (parse_code ~what:"best" code, b)
          | None -> raise (Bad "unreadable best record"))
      | [ "cex"; "d"; bits ] -> (
          match Gf2.Bitvec.of_string bits with
          | d -> cexes := Cegis.Cex_data d :: !cexes
          | exception _ -> raise (Bad "unreadable data witness"))
      | [ "cex"; "c"; code ] ->
          cexes := Cegis.Cex_candidate (parse_code ~what:"cex" code) :: !cexes
      | [ "end" ] -> seen_end := true
      | _ -> raise (Bad ("unknown record: " ^ line)))
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' records));
  if not !seen_end then raise (Bad "missing end record (truncated?)");
  let data_len, check_len, min_distance =
    match !problem with
    | Some p -> p
    | None -> raise (Bad "missing problem record")
  in
  (* reject witnesses that do not fit the declared problem: learning
     them would index out of the coefficient matrix *)
  List.iter
    (fun cex ->
      match cex with
      | Cegis.Cex_data d ->
          if Gf2.Bitvec.length d <> data_len then
            raise (Bad "data witness length mismatch")
      | Cegis.Cex_candidate code ->
          if
            Hamming.Code.data_len code <> data_len
            || Hamming.Code.check_len code <> check_len
          then raise (Bad "candidate shape mismatch"))
    !cexes;
  {
    data_len;
    check_len;
    min_distance;
    iterations = !iterations;
    opt_bound = !opt_bound;
    best = !best;
    cexes = List.rev !cexes;
  }

let load ~path =
  match Durable.read path with
  | exception Sys_error msg -> Error (Io msg)
  | text -> (
      match Durable.unseal ~magic ~version text with
      | Error Durable.Truncated -> Error (Corrupt "missing crc trailer (truncated?)")
      | Error Durable.Bad_crc -> Error (Corrupt "crc mismatch")
      | Error Durable.Wrong_magic -> Error (Corrupt "not a fecsynth checkpoint")
      | Error (Durable.Version v) -> Error (Version_mismatch v)
      | Ok records -> ( try Ok (parse records) with Bad msg -> Error (Corrupt msg)))

let matches_problem t (p : Cegis.problem) =
  t.data_len = p.Cegis.data_len
  && t.check_len = p.Cegis.check_len
  && t.min_distance = p.Cegis.min_distance

(* ---------- incremental writer ---------- *)

module Writer = struct
  type w = {
    path : string;
    min_interval : float;
    mutex : Mutex.t;
    data_len : int;
    check_len : int;
    min_distance : int;
    mutable iterations : int;
    mutable opt_bound : int option;
    mutable best : (Hamming.Code.t * int) option;
    mutable cexes_rev : Cegis.cex list;
    mutable n_cexes : int;
    mutable last_write : float;
    mutable dirty : bool;
  }

  let create ?(min_interval = 0.25) ~path ~data_len ~check_len ~min_distance
      () =
    {
      path;
      min_interval;
      mutex = Mutex.create ();
      data_len;
      check_len;
      min_distance;
      iterations = 0;
      opt_bound = None;
      best = None;
      cexes_rev = [];
      n_cexes = 0;
      last_write = 0.0;
      dirty = false;
    }

  let snapshot_locked w =
    {
      data_len = w.data_len;
      check_len = w.check_len;
      min_distance = w.min_distance;
      iterations = w.iterations;
      opt_bound = w.opt_bound;
      best = w.best;
      cexes = List.rev w.cexes_rev;
    }

  let write_locked w =
    save ~path:w.path (snapshot_locked w);
    w.last_write <- Unix.gettimeofday ();
    w.dirty <- false;
    if Telemetry.enabled () then
      Telemetry.point "checkpoint.write"
        ~fields:
          [
            ("cexes", Telemetry.int w.n_cexes);
            ("iterations", Telemetry.int w.iterations);
          ]

  let maybe_write_locked w =
    if w.dirty && Unix.gettimeofday () -. w.last_write >= w.min_interval then
      write_locked w

  let with_lock w f =
    Mutex.protect w.mutex (fun () ->
        f w;
        maybe_write_locked w)

  let record_cex w cex =
    with_lock w (fun w ->
        w.cexes_rev <- cex :: w.cexes_rev;
        w.n_cexes <- w.n_cexes + 1;
        w.dirty <- true)

  let record_best w code bound =
    with_lock w (fun w ->
        match w.best with
        | Some (_, b) when b >= bound -> ()
        | _ ->
            w.best <- Some (code, bound);
            w.dirty <- true)

  let record_bound w bound =
    with_lock w (fun w ->
        if w.opt_bound <> Some bound then begin
          w.opt_bound <- Some bound;
          w.dirty <- true
        end)

  let record_iterations w n =
    with_lock w (fun w ->
        if w.iterations <> n then begin
          w.iterations <- n;
          w.dirty <- true
        end)

  let flush w =
    Mutex.protect w.mutex (fun () -> if w.dirty then write_locked w)

  let snapshot w = Mutex.protect w.mutex (fun () -> snapshot_locked w)
end
