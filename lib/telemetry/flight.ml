(* In-memory flight recorder: a bounded ring of the most recent
   telemetry events per domain, kept so that when a worker is reaped or
   a crash record is journaled, the daemon can dump "what was it doing"
   as a postmortem NDJSON tail.

   Discipline mirrors the rest of the telemetry stack:

   - disabled costs one atomic load and allocates nothing (the same
     guard shape as [State.enabled], asserted by Gc.minor_words in
     test_telemetry);
   - recording is lock-free on the hot path: each domain owns its ring
     (single writer), registered once under a mutex; writes are a plain
     array store plus a position bump;
   - [snapshot]/[dump] read other domains' rings racily — events are
     immutable values, so the worst case is a slightly torn view of
     *which* events made the cut, never a torn event.  Postmortems are
     diagnostics, not ground truth; the ledger stays authoritative. *)

type ring = {
  domain : int;  (* Domain id at registration, for labeling only *)
  slots : Sink.event array;
  mutable written : int;  (* total events ever recorded into [slots] *)
}

type t = {
  capacity : int;
  dir : string;  (* where postmortem files land *)
  mutex : Mutex.t;  (* guards [rings] registration and [dumped] *)
  mutable rings : ring list;
  mutable dumped : int;  (* postmortem sequence number *)
}

let state : t option Atomic.t = Atomic.make None

let enabled () = Atomic.get state <> None

let enable ?(capacity = 512) ~dir () =
  let capacity = max 1 capacity in
  Atomic.set state
    (Some { capacity; dir; mutex = Mutex.create (); rings = []; dumped = 0 })

let disable () = Atomic.set state None

(* A ring is found via DLS; the recorder instance it was registered with
   rides along so enable/disable cycles (tests) never write into a ring
   the current instance does not know about. *)
let ring_key : (t * ring) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let dummy = Sink.Point { ts = 0.0; name = ""; fields = [] }

let register t cell =
  let r =
    {
      domain = (Domain.self () :> int);
      slots = Array.make t.capacity dummy;
      written = 0;
    }
  in
  Mutex.protect t.mutex (fun () -> t.rings <- r :: t.rings);
  cell := Some (t, r);
  r

let record ev =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      let cell = Domain.DLS.get ring_key in
      let r =
        match !cell with
        | Some (t', r) when t' == t -> r
        | _ -> register t cell
      in
      r.slots.(r.written mod t.capacity) <- ev;
      r.written <- r.written + 1

let sink () = { Sink.emit = record; flush = (fun () -> ()) }

let snapshot () =
  match Atomic.get state with
  | None -> []
  | Some t ->
      let rings = Mutex.protect t.mutex (fun () -> t.rings) in
      List.concat_map
        (fun r ->
          let written = r.written in
          let n = min written t.capacity in
          let start = written - n in
          List.init n (fun i -> r.slots.((start + i) mod t.capacity)))
        rings
      |> List.sort (fun a b -> Float.compare (Sink.event_ts a) (Sink.event_ts b))

(* Postmortems are whole-file artifacts, written by Durable.write like
   the dashboard: a reader never sees a half-written tail on top of a
   crash. *)
let dump ?(fields = []) ~reason () =
  match Atomic.get state with
  | None -> None
  | Some t ->
      let events = snapshot () in
      let seq =
        Mutex.protect t.mutex (fun () ->
            let n = t.dumped in
            t.dumped <- n + 1;
            n)
      in
      let path =
        Filename.concat t.dir
          (Printf.sprintf "postmortem-%d-%d.ndjson" (Unix.getpid ()) seq)
      in
      let last_ts =
        match List.rev events with [] -> State.now () | ev :: _ -> Sink.event_ts ev
      in
      let trailer =
        (* stamped after every recorded event so the postmortem is a
           self-describing, parseable trace: the trailer names the dump
           reason and carries correlation fields (e.g. the reaped
           request id) *)
        Sink.Point
          {
            ts = last_ts;
            name = "flight.dump";
            fields = ("reason", Sink.Str reason) :: fields;
          }
      in
      let b = Buffer.create 4096 in
      List.iter
        (fun ev ->
          Buffer.add_string b (Json.to_string (Sink.json_of_event ev));
          Buffer.add_char b '\n')
        (events @ [ trailer ]);
      (try
         Durable.write path (Buffer.contents b);
         Some path
       with Sys_error _ -> None)
