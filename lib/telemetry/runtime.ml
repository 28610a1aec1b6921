(* Runtime-observability lens: a self-process Runtime_events consumer.
   See runtime.mli for the contract.

   Concurrency model: all cursor reads happen under [poll_mutex], taken
   with [try_lock] only — a contended (or reentrant, via the tee) poll
   is simply skipped, never waited for.  The per-ring accounting tables
   are touched exclusively under that mutex, so the callbacks need no
   further synchronization.  [set_request] runs on worker domains and
   only touches the token table (its own mutex) plus a user-event write
   into the calling domain's own ring — the consumer replays it in ring
   order, which is what makes request attribution exact at
   boundaries. *)

module RE = Runtime_events

(* ---------- phase classification ----------

   Pauses are attributed per class with a per-class depth counter: only
   the outermost span of a class accumulates, so nested phases of the
   same class (EV_MAJOR_SLICE inside EV_MAJOR, STW sub-phases) never
   double count.  Minor-inside-major overlap can in principle count a
   sliver twice; mutator time is computed as a remainder downstream, so
   the worst case is a slightly conservative mutator figure. *)

type cls = Minor | Major | Wait

let classify : RE.runtime_phase -> cls option = function
  | RE.EV_MINOR | RE.EV_EXPLICIT_GC_MINOR -> Some Minor
  | RE.EV_MAJOR | RE.EV_MAJOR_SLICE | RE.EV_MAJOR_GC_STW
  | RE.EV_MAJOR_FINISH_CYCLE | RE.EV_MAJOR_FINISH_MARKING
  | RE.EV_MAJOR_FINISH_SWEEPING | RE.EV_EXPLICIT_GC_MAJOR
  | RE.EV_EXPLICIT_GC_FULL_MAJOR | RE.EV_EXPLICIT_GC_MAJOR_SLICE
  | RE.EV_EXPLICIT_GC_COMPACT -> Some Major
  | RE.EV_DOMAIN_CONDITION_WAIT -> Some Wait
  | _ -> None

(* ---------- registry instruments ---------- *)

type instruments = {
  h_minor : Metrics.histogram;
  h_major : Metrics.histogram;
  c_alloc : Metrics.counter;
  c_promoted : Metrics.counter;
  c_minor_n : Metrics.counter;
  c_major_n : Metrics.counter;
  c_pause_us : Metrics.counter;
  c_lost : Metrics.counter;
  g_last_minor : Metrics.gauge;
  g_last_major : Metrics.gauge;
}

let instruments =
  lazy
    {
      h_minor =
        Metrics.histogram ~help:"Minor GC pause durations (microseconds)"
          "gc.minor_pause_us";
      h_major =
        Metrics.histogram ~help:"Major GC pause durations (microseconds)"
          "gc.major_pause_us";
      c_alloc =
        Metrics.counter ~help:"Minor-heap words allocated"
          "gc.allocated_words_total";
      c_promoted =
        Metrics.counter ~help:"Words promoted to the major heap"
          "gc.promoted_words_total";
      c_minor_n =
        Metrics.counter ~help:"Minor collections" "gc.minor_collections_total";
      c_major_n =
        Metrics.counter ~help:"Completed major GC cycles"
          "gc.major_collections_total";
      c_pause_us =
        Metrics.counter ~help:"Total GC pause time (microseconds)"
          "gc.pause_us_total";
      c_lost =
        Metrics.counter ~help:"Runtime events dropped by ring overflow"
          "runtime.events_lost_total";
      g_last_minor =
        Metrics.gauge ~help:"Most recent minor GC pause (seconds)"
          "gc.last_minor_pause_s";
      g_last_major =
        Metrics.gauge ~help:"Most recent major GC pause (seconds)"
          "gc.last_major_pause_s";
    }

(* ---------- per-ring accounting ---------- *)

type ring = {
  index : int;
  g_util : Metrics.gauge;
  mutable req : string option;  (* request currently on this domain *)
  (* per-class outermost-span tracking *)
  mutable minor_depth : int;
  mutable minor_start : int64;
  mutable major_depth : int;
  mutable major_start : int64;
  mutable wait_depth : int;
  mutable wait_start : int64;
  (* totals since lens start *)
  minor_hist : Metrics.Histogram.t;  (* µs, lens-local (ungated) *)
  major_hist : Metrics.Histogram.t;
  mutable minor_s : float;
  mutable major_s : float;
  mutable wait_s : float;
  mutable minor_n : int;
  mutable major_n : int;
  mutable alloc_words : int;
  mutable promoted_words : int;
  (* deltas since the last emitted runtime.gc point *)
  mutable d_minor_s : float;
  mutable d_major_s : float;
  mutable d_wait_s : float;
  mutable d_minor_n : int;
  mutable d_major_n : int;
  mutable d_alloc : int;
  mutable d_since : float;  (* State.now of the last flush *)
}

type t = {
  cursor : RE.cursor;
  mutable callbacks : RE.Callbacks.t;  (* set once, after [t] exists *)
  poll_mutex : Mutex.t;
  rings : (int, ring) Hashtbl.t;
  mutable last_poll : float;
  min_interval : float;
  pause_threshold_us : int;
  mutable lost : int;
  (* monotonic-ns -> telemetry-epoch offset.  Every batched event was
     generated before the poll that reads it, so [poll_now - event_ns]
     upper-bounds the true offset; keeping the minimum across batches
     converges on it (the freshest event before some poll is ms away).
     A first-event-only estimate can run a whole poll interval late,
     stamping pause points in the future and past the trace's wall. *)
  mutable ns_offset : float option;
  (* State.now () sampled at the top of each poll, before [read_poll] *)
  mutable poll_now : float;
}

let state : t option Atomic.t = Atomic.make None
let active () = Atomic.get state <> None

let ns_to_s ns = Int64.to_float ns /. 1e9

let refine_offset t ts =
  let cand = t.poll_now -. ns_to_s (RE.Timestamp.to_int64 ts) in
  match t.ns_offset with
  | Some off when off <= cand -> ()
  | _ -> t.ns_offset <- Some cand

let event_now t ts =
  let s = ns_to_s (RE.Timestamp.to_int64 ts) in
  let off =
    match t.ns_offset with
    | Some off -> off
    | None ->
        let off = t.poll_now -. s in
        t.ns_offset <- Some off;
        off
  in
  (* never stamp past the reading poll: a skewed offset must not push
     points beyond the trace's wall *)
  Float.min (s +. off) (State.now ())

(* Emit through the installed telemetry sink directly (this module sits
   below [Telemetry], so it cannot use the stamped helpers; request
   correlation is explicit via ring tags instead of ambient context). *)
let emit_point ~ts name fields =
  match Atomic.get State.state with
  | None -> ()
  | Some s -> s.Sink.emit (Sink.Point { ts; name; fields })

let req_field r = match r.req with
  | None -> []
  | Some id -> [ ("request", Sink.Str id) ]

let get_ring t index =
  match Hashtbl.find_opt t.rings index with
  | Some r -> r
  | None ->
      let r =
        {
          index;
          g_util =
            Metrics.gauge ~help:"Mutator fraction of the last poll interval"
              ~labels:[ ("domain", string_of_int index) ]
              "domain.util";
          req = None;
          minor_depth = 0;
          minor_start = 0L;
          major_depth = 0;
          major_start = 0L;
          wait_depth = 0;
          wait_start = 0L;
          minor_hist = Metrics.Histogram.create ();
          major_hist = Metrics.Histogram.create ();
          minor_s = 0.0;
          major_s = 0.0;
          wait_s = 0.0;
          minor_n = 0;
          major_n = 0;
          alloc_words = 0;
          promoted_words = 0;
          d_minor_s = 0.0;
          d_major_s = 0.0;
          d_wait_s = 0.0;
          d_minor_n = 0;
          d_major_n = 0;
          d_alloc = 0;
          (* rings are created lazily inside [read_poll], so the events
             feeding this ring's first interval date back to the previous
             drain point — not to now, which would drop everything before
             the first poll on the floor (a domain spawned mid-interval
             overclaims at most one [min_interval] of mutator time) *)
          d_since = t.last_poll;
        }
      in
      Hashtbl.replace t.rings index r;
      r

(* Flush a ring's pending deltas as one aggregate [runtime.gc] point and
   refresh its util gauge.  Quiet intervals are folded into the next
   active one (d_since only advances on emission), so the emitted
   intervals tile the run without flooding idle daemons with points. *)
let flush_ring r ~now ~force =
  let interval = now -. r.d_since in
  let activity =
    r.d_minor_n > 0 || r.d_major_n > 0 || r.d_alloc > 0
    || r.d_minor_s > 0.0 || r.d_major_s > 0.0 || r.d_wait_s > 0.0
  in
  if interval > 0.0 && (activity || (force && r.req <> None)) then begin
    let gc = r.d_minor_s +. r.d_major_s in
    let util =
      Float.max 0.0 (Float.min 1.0 (1.0 -. ((gc +. r.d_wait_s) /. interval)))
    in
    Metrics.set r.g_util util;
    emit_point ~ts:now "runtime.gc"
      ([
         ("domain", Sink.Int r.index);
         ("interval_s", Sink.Float interval);
         ("minor_s", Sink.Float r.d_minor_s);
         ("major_s", Sink.Float r.d_major_s);
         ("wait_s", Sink.Float r.d_wait_s);
         ("minor_n", Sink.Int r.d_minor_n);
         ("major_n", Sink.Int r.d_major_n);
         ("alloc_words", Sink.Int r.d_alloc);
       ]
      @ req_field r);
    r.d_minor_s <- 0.0;
    r.d_major_s <- 0.0;
    r.d_wait_s <- 0.0;
    r.d_minor_n <- 0;
    r.d_major_n <- 0;
    r.d_alloc <- 0;
    r.d_since <- now
  end
  else if interval > 0.0 && force && not activity then
    (* nothing to report; restart the quiet interval so a later point
       does not claim wall time that belongs before this flush *)
    r.d_since <- now

let on_phase_begin t index ts phase =
  refine_offset t ts;
  match classify phase with
  | None -> ()
  | Some cls ->
      let r = get_ring t index in
      let ns = RE.Timestamp.to_int64 ts in
      (match cls with
      | Minor ->
          if r.minor_depth = 0 then r.minor_start <- ns;
          r.minor_depth <- r.minor_depth + 1
      | Major ->
          if r.major_depth = 0 then r.major_start <- ns;
          r.major_depth <- r.major_depth + 1
      | Wait ->
          if r.wait_depth = 0 then r.wait_start <- ns;
          r.wait_depth <- r.wait_depth + 1)

let on_phase_end t index ts phase =
  refine_offset t ts;
  match classify phase with
  | None -> ()
  | Some cls ->
      let r = get_ring t index in
      let ns = RE.Timestamp.to_int64 ts in
      let i = Lazy.force instruments in
      let finish start =
        let dur_s = Float.max 0.0 (ns_to_s (Int64.sub ns start)) in
        let dur_us = int_of_float (dur_s *. 1e6) in
        (dur_s, dur_us)
      in
      let pause_point name dur_s =
        if dur_s *. 1e6 >= float_of_int t.pause_threshold_us then
          emit_point ~ts:(event_now t ts) name
            ([ ("domain", Sink.Int r.index); ("dur_s", Sink.Float dur_s) ]
            @ req_field r)
      in
      (match cls with
      | Minor ->
          if r.minor_depth > 0 then begin
            r.minor_depth <- r.minor_depth - 1;
            if r.minor_depth = 0 then begin
              let dur_s, dur_us = finish r.minor_start in
              r.minor_s <- r.minor_s +. dur_s;
              r.d_minor_s <- r.d_minor_s +. dur_s;
              r.minor_n <- r.minor_n + 1;
              r.d_minor_n <- r.d_minor_n + 1;
              Metrics.Histogram.observe r.minor_hist dur_us;
              Metrics.observe i.h_minor dur_us;
              Metrics.incr i.c_minor_n 1;
              Metrics.incr i.c_pause_us dur_us;
              Metrics.set i.g_last_minor dur_s;
              pause_point "runtime.gc.minor" dur_s
            end
          end
      | Major ->
          if r.major_depth > 0 then begin
            r.major_depth <- r.major_depth - 1;
            if r.major_depth = 0 then begin
              let dur_s, dur_us = finish r.major_start in
              r.major_s <- r.major_s +. dur_s;
              r.d_major_s <- r.d_major_s +. dur_s;
              Metrics.Histogram.observe r.major_hist dur_us;
              Metrics.observe i.h_major dur_us;
              Metrics.incr i.c_pause_us dur_us;
              Metrics.set i.g_last_major dur_s;
              pause_point "runtime.gc.major" dur_s
            end
          end;
          (* a completed cycle, not a slice, is "a major collection" *)
          if phase = RE.EV_MAJOR_FINISH_CYCLE then begin
            r.major_n <- r.major_n + 1;
            r.d_major_n <- r.d_major_n + 1;
            Metrics.incr i.c_major_n 1
          end
      | Wait ->
          if r.wait_depth > 0 then begin
            r.wait_depth <- r.wait_depth - 1;
            if r.wait_depth = 0 then begin
              let dur_s, _ = finish r.wait_start in
              r.wait_s <- r.wait_s +. dur_s;
              r.d_wait_s <- r.d_wait_s +. dur_s
            end
          end)

let on_counter t index _ts counter v =
  let r = get_ring t index in
  let i = Lazy.force instruments in
  match counter with
  | RE.EV_C_MINOR_ALLOCATED ->
      r.alloc_words <- r.alloc_words + v;
      r.d_alloc <- r.d_alloc + v;
      Metrics.incr i.c_alloc v
  | RE.EV_C_MINOR_PROMOTED ->
      r.promoted_words <- r.promoted_words + v;
      Metrics.incr i.c_promoted v
  | _ -> ()

let on_lifecycle t index ts life _arg =
  match life with
  | RE.EV_DOMAIN_SPAWN ->
      emit_point ~ts:(event_now t ts) "runtime.domain.spawn"
        [ ("domain", Sink.Int index) ]
  | RE.EV_DOMAIN_TERMINATE ->
      (* the ring index may be recycled by a later domain: close out the
         departing domain's accounting and drop its request tag *)
      (match Hashtbl.find_opt t.rings index with
      | Some r ->
          flush_ring r ~now:(State.now ()) ~force:true;
          r.req <- None;
          r.minor_depth <- 0;
          r.major_depth <- 0;
          r.wait_depth <- 0
      | None -> ());
      emit_point ~ts:(event_now t ts) "runtime.domain.terminate"
        [ ("domain", Sink.Int index) ]
  | _ -> ()

let on_lost t _index n =
  t.lost <- t.lost + n;
  Metrics.incr (Lazy.force instruments).c_lost n

(* ---------- request beacons ---------- *)

type RE.User.tag += Fec_request

let beacon = lazy (RE.User.register "fec.request" Fec_request RE.Type.int)

(* token -> request id, bridging the int-only user-event payload; the
   consumer consumes (and removes) tokens in ring order *)
let tokens : (int, string option) Hashtbl.t = Hashtbl.create 16
let token_mutex = Mutex.create ()
let next_token = ref 1

let set_request req =
  match Atomic.get state with
  | None -> ()
  | Some _ ->
      let tok =
        Mutex.protect token_mutex (fun () ->
            let tok = !next_token in
            next_token := tok + 1;
            Hashtbl.replace tokens tok req;
            tok)
      in
      RE.User.write (Lazy.force beacon) tok

let on_user t index _ts ev tok =
  match RE.User.tag ev with
  | Fec_request -> (
      match
        Mutex.protect token_mutex (fun () ->
            let r = Hashtbl.find_opt tokens tok in
            Hashtbl.remove tokens tok;
            r)
      with
      | None -> ()
      | Some req ->
          let r = get_ring t index in
          (* attribute everything up to this boundary to the old tag *)
          flush_ring r ~now:(State.now ()) ~force:true;
          r.req <- req)
  | _ -> ()

(* ---------- polling ---------- *)

let poll_locked t ~force =
  t.poll_now <- State.now ();
  ignore (RE.read_poll t.cursor t.callbacks None);
  let now = State.now () in
  t.last_poll <- now;
  if force then Hashtbl.iter (fun _ r -> flush_ring r ~now ~force:true) t.rings
  else Hashtbl.iter (fun _ r -> flush_ring r ~now ~force:false) t.rings

let poll ?(force = false) () =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      if Mutex.try_lock t.poll_mutex then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.poll_mutex)
          (fun () -> poll_locked t ~force)

let tick () =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      if State.now () -. t.last_poll >= t.min_interval then
        if Mutex.try_lock t.poll_mutex then
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.poll_mutex)
            (fun () ->
              if State.now () -. t.last_poll >= t.min_interval then
                poll_locked t ~force:false)

let sink () =
  { Sink.emit = (fun _ -> tick ()); flush = (fun () -> poll ~force:true ()) }

(* ---------- lifecycle ---------- *)

(* The runtime parses OCAML_RUNTIME_EVENTS_DIR at process startup, so a
   putenv here cannot redirect our own ring file: it lands in the ring
   directory (the env var's launch-time value, else the working
   directory) and the runtime unlinks it at clean teardown.  A killed
   process leaks its ~65MB ring, so before starting ours sweep
   <pid>.events files whose owning pid is gone — the same sweep the
   result cache applies to its tmp files (Durable.sweep). *)
let scavenge_stale_rings () =
  let dir =
    match Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.current_dir_name
  in
  let owner name =
    Option.bind (Filename.chop_suffix_opt ~suffix:".events" name) int_of_string_opt
  in
  ignore (Durable.sweep ~dir ~owner ())

let start ?(min_interval = 0.25) ?(pause_threshold_us = 500) () =
  match Atomic.get state with
  | Some _ -> ()
  | None -> (
      try
        scavenge_stale_rings ();
        RE.start ();
        RE.resume ();
        ignore (Lazy.force instruments);
        ignore (Lazy.force beacon);
        let t =
          {
            cursor = RE.create_cursor None;
            callbacks = RE.Callbacks.create ();
            poll_mutex = Mutex.create ();
            rings = Hashtbl.create 8;
            last_poll = State.now ();
            min_interval;
            pause_threshold_us;
            lost = 0;
            ns_offset = None;
            poll_now = State.now ();
          }
        in
        t.callbacks <-
          RE.Callbacks.create
            ~runtime_begin:(fun i ts ph -> on_phase_begin t i ts ph)
            ~runtime_end:(fun i ts ph -> on_phase_end t i ts ph)
            ~runtime_counter:(fun i ts c v -> on_counter t i ts c v)
            ~lifecycle:(fun i ts l arg -> on_lifecycle t i ts l arg)
            ~lost_events:(fun i n -> on_lost t i n)
            ()
          |> RE.Callbacks.add_user_event RE.Type.int (fun i ts ev v ->
                 on_user t i ts ev v);
        Atomic.set state (Some t);
        (* baseline drain: consume whatever predates the lens so the
           first emitted intervals start at [start] time *)
        Mutex.protect t.poll_mutex (fun () ->
            t.poll_now <- State.now ();
            ignore (RE.read_poll t.cursor t.callbacks None);
            let now = State.now () in
            t.last_poll <- now;
            Hashtbl.iter
              (fun _ r ->
                r.d_minor_s <- 0.0;
                r.d_major_s <- 0.0;
                r.d_wait_s <- 0.0;
                r.d_minor_n <- 0;
                r.d_major_n <- 0;
                r.d_alloc <- 0;
                r.d_since <- now)
              t.rings)
      with _ -> ())

let stop () =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      Atomic.set state None;
      Mutex.protect t.poll_mutex (fun () -> RE.free_cursor t.cursor);
      (try RE.pause () with _ -> ())

(* ---------- aggregate snapshot ---------- *)

type totals = {
  domains : int;
  minor_s : float;
  major_s : float;
  wait_s : float;
  minor_n : int;
  major_n : int;
  alloc_words : int;
  promoted_words : int;
  minor_pauses_us : Metrics.Hist.t;
  major_pauses_us : Metrics.Hist.t;
  lost_events : int;
}

let snapshot () =
  match Atomic.get state with
  | None -> None
  | Some t ->
      Some
        (Mutex.protect t.poll_mutex (fun () ->
             Hashtbl.fold
               (fun _ (r : ring) acc ->
                 {
                   acc with
                   domains = acc.domains + 1;
                   minor_s = acc.minor_s +. r.minor_s;
                   major_s = acc.major_s +. r.major_s;
                   wait_s = acc.wait_s +. r.wait_s;
                   minor_n = acc.minor_n + r.minor_n;
                   major_n = acc.major_n + r.major_n;
                   alloc_words = acc.alloc_words + r.alloc_words;
                   promoted_words = acc.promoted_words + r.promoted_words;
                   minor_pauses_us =
                     Metrics.Hist.add acc.minor_pauses_us
                       (Metrics.Histogram.snapshot r.minor_hist);
                   major_pauses_us =
                     Metrics.Hist.add acc.major_pauses_us
                       (Metrics.Histogram.snapshot r.major_hist);
                 })
               t.rings
               {
                 domains = 0;
                 minor_s = 0.0;
                 major_s = 0.0;
                 wait_s = 0.0;
                 minor_n = 0;
                 major_n = 0;
                 alloc_words = 0;
                 promoted_words = 0;
                 minor_pauses_us = Metrics.Hist.zero;
                 major_pauses_us = Metrics.Hist.zero;
                 lost_events = t.lost;
               }))
