module Json = Json
module Sink = Sink
module Metrics = Metrics
module Flight = Flight
module Runtime = Runtime
module Analyze = Analyze
module Progress = Progress
module Buildinfo = Buildinfo
module Ledger = Ledger
module Html = Html

(* The shared epoch/sink state lives in [State] so that [Metrics] can use
   the same single-atomic-load guard without a module cycle. *)
let now = State.now
let state = State.state
let enabled = State.enabled

let emit ev =
  match Atomic.get state with None -> () | Some s -> s.Sink.emit ev

let with_sink sink f =
  let prev = Atomic.get state in
  Atomic.set state (Some sink);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set state prev;
      sink.Sink.flush ())
    f

let int n = Sink.Int n
let float f = Sink.Float f
let str s = Sink.Str s
let bool b = Sink.Bool b

(* ---------- ambient span context ---------- *)

(* Per-domain ambient fields (request correlation in the serve daemon)
   stamped onto every event emitted while installed.  The cell lives in
   domain-local storage and is only read on the enabled path, so the
   disabled fast path stays a single atomic load with no allocation.
   Context does not cross [Domain.spawn] by itself: spawn sites capture
   [current_context] in the parent and reinstall it in the child. *)
let context_key : Sink.fields ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_context () = !(Domain.DLS.get context_key)

let with_context fields f =
  let cell = Domain.DLS.get context_key in
  let prev = !cell in
  cell := fields @ prev;
  Fun.protect ~finally:(fun () -> cell := prev) f

(* explicit fields first, so they win [List.assoc] lookups downstream *)
let stamp fields =
  match !(Domain.DLS.get context_key) with
  | [] -> fields
  | ctx -> fields @ ctx

(* ---------- spans ---------- *)

type span = { id : int; name : string; start : float; live : bool }

let null_span = { id = 0; name = ""; start = 0.0; live = false }
let next_id = Atomic.make 1

(* per-domain stack of open span ids, for parent attribution *)
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let begin_span ?(fields = []) name =
  if not (enabled ()) then null_span
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> None | p :: _ -> Some p in
    stack := id :: !stack;
    let ts = now () in
    emit (Sink.Span_begin { ts; id; parent; name; fields = stamp fields });
    { id; name; start = ts; live = true }
  end

let end_span ?(fields = []) sp =
  if sp.live then begin
    let stack = Domain.DLS.get stack_key in
    (* normally [sp] is the innermost open span; tolerate unbalanced
       nesting (an escaped exception ended an outer span first) by
       removing just this id *)
    (match !stack with
    | x :: rest when x = sp.id -> stack := rest
    | xs -> stack := List.filter (fun x -> x <> sp.id) xs);
    let ts = now () in
    emit
      (Sink.Span_end
         { ts; id = sp.id; name = sp.name; dur = ts -. sp.start;
           fields = stamp fields })
  end

let span ?fields name f =
  if not (enabled ()) then f ()
  else begin
    let sp = begin_span ?fields name in
    Fun.protect ~finally:(fun () -> end_span sp) f
  end

(* ---------- scalar events ---------- *)

let counter ?(fields = []) name value =
  if enabled () then
    emit (Sink.Counter { ts = now (); name; value; fields = stamp fields })

let gauge ?(fields = []) name value =
  if enabled () then
    emit (Sink.Gauge { ts = now (); name; value; fields = stamp fields })

let point ?(fields = []) name =
  if enabled () then
    emit (Sink.Point { ts = now (); name; fields = stamp fields })
