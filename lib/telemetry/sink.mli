(** The pluggable consumer side of the telemetry layer.

    A sink is two closures: [emit] receives every event, [flush] is called
    when a scope closes (see {!Telemetry.with_sink}).  All built-in sinks
    are safe to share across domains — the portfolio synthesizer emits
    from several domains into one sink — because each serializes its
    internal state under a private mutex. *)

(** A typed field value attached to an event. *)
type value = Bool of bool | Int of int | Float of float | Str of string

type fields = (string * value) list

(** One telemetry event.  [ts] is seconds since the process's telemetry
    epoch (a monotonic-in-practice offset base, immune to the absolute
    clock's magnitude). *)
type event =
  | Span_begin of {
      ts : float;
      id : int;  (** unique per process *)
      parent : int option;  (** innermost enclosing span of this domain *)
      name : string;
      fields : fields;
    }
  | Span_end of {
      ts : float;
      id : int;
      name : string;
      dur : float;  (** seconds since the matching [Span_begin] *)
      fields : fields;
    }
  | Counter of { ts : float; name : string; value : int; fields : fields }
      (** a named monotonic count incremented by [value] *)
  | Gauge of { ts : float; name : string; value : float; fields : fields }
      (** a point-in-time level; aggregation keeps the last value *)
  | Point of { ts : float; name : string; fields : fields }
      (** an instantaneous occurrence *)

type t = { emit : event -> unit; flush : unit -> unit }

val event_kind : event -> string
(** ["span_begin" | "span_end" | "counter" | "gauge" | "event"] *)

val event_name : event -> string

val event_ts : event -> float

(** [json_of_event e] flattens the event into one JSON object:
    [ts]/[kind]/[name] plus the variant's own keys ([id], [parent], [dur],
    [value]) plus the custom fields. *)
val json_of_event : event -> Json.t

(** A sink that drops everything (distinct from having {e no} sink
    installed: events are still constructed). *)
val null : t

(** [tee sinks] fans every event (and flush) out to each of [sinks] in
    order — e.g. an NDJSON trace plus a live progress display. *)
val tee : t list -> t

(** [ndjson_writer write] serializes each event as one JSON line handed to
    [write] (line terminator included), under a mutex. *)
val ndjson_writer : (string -> unit) -> t

(** [ndjson oc] is {!ndjson_writer} onto a channel; [flush] flushes it. *)
val ndjson : out_channel -> t

(** [memory ()] is a sink accumulating events in order plus a function
    retrieving the events seen so far. *)
val memory : unit -> t * (unit -> event list)
