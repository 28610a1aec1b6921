type value = Bool of bool | Int of int | Float of float | Str of string
type fields = (string * value) list

type event =
  | Span_begin of {
      ts : float;
      id : int;
      parent : int option;
      name : string;
      fields : fields;
    }
  | Span_end of { ts : float; id : int; name : string; dur : float; fields : fields }
  | Counter of { ts : float; name : string; value : int; fields : fields }
  | Gauge of { ts : float; name : string; value : float; fields : fields }
  | Point of { ts : float; name : string; fields : fields }

type t = { emit : event -> unit; flush : unit -> unit }

let event_kind = function
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Point _ -> "event"

let event_name = function
  | Span_begin { name; _ }
  | Span_end { name; _ }
  | Counter { name; _ }
  | Gauge { name; _ }
  | Point { name; _ } -> name

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let json_of_event ev =
  let head ts name = [ ("ts", Json.Float ts); ("kind", Json.Str (event_kind ev)); ("name", Json.Str name) ] in
  let custom fields = List.map (fun (k, v) -> (k, json_of_value v)) fields in
  let entries =
    match ev with
    | Span_begin { ts; id; parent; name; fields } ->
        head ts name
        @ [ ("id", Json.Int id) ]
        @ (match parent with None -> [] | Some p -> [ ("parent", Json.Int p) ])
        @ custom fields
    | Span_end { ts; id; name; dur; fields } ->
        head ts name @ [ ("id", Json.Int id); ("dur", Json.Float dur) ] @ custom fields
    | Counter { ts; name; value; fields } ->
        head ts name @ [ ("value", Json.Int value) ] @ custom fields
    | Gauge { ts; name; value; fields } ->
        head ts name @ [ ("value", Json.Float value) ] @ custom fields
    | Point { ts; name; fields } -> head ts name @ custom fields
  in
  Json.Obj entries

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

let tee = function
  | [ s ] -> s
  | sinks ->
      {
        emit = (fun ev -> List.iter (fun s -> s.emit ev) sinks);
        flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
      }

let ndjson_writer write =
  let mutex = Mutex.create () in
  {
    emit =
      (fun ev ->
        let line = Json.to_string (json_of_event ev) ^ "\n" in
        Mutex.protect mutex (fun () -> write line));
    flush = (fun () -> ());
  }

let ndjson oc =
  let s = ndjson_writer (output_string oc) in
  { s with flush = (fun () -> flush oc) }

let memory () =
  let mutex = Mutex.create () in
  let events = ref [] in
  ( {
      emit = (fun ev -> Mutex.protect mutex (fun () -> events := ev :: !events));
      flush = (fun () -> ());
    },
    fun () -> Mutex.protect mutex (fun () -> List.rev !events) )
