(* Typed metrics registry: counters, gauges and log-bucketed histograms,
   guarded by the same single-atomic-load probe as the event layer
   ([State.enabled]).  See metrics.mli for the contract. *)

(* ---------- bucket geometry ----------

   HDR-style log-linear buckets with [sub_bits] = 5: values in [0, 64)
   get one exact bucket each; each power-of-two range [2^k, 2^(k+1)) for
   k >= 6 is split into 32 equal sub-buckets, so the representative
   (bucket lower bound) underestimates a value by at most a factor of
   1/32.  Quantiles over small values (learnt clause sizes, iteration
   counts) are therefore *exact*, and heavy tails stay within ~3%. *)

let sub_bits = 5
let sub_buckets = 1 lsl sub_bits (* 32 *)
let linear_limit = 2 * sub_buckets (* 64: values below get exact buckets *)

let floor_log2 v =
  (* v >= 1 *)
  let k = ref 0 and x = ref v in
  while !x > 1 do
    x := !x lsr 1;
    incr k
  done;
  !k

let index_of v =
  let v = if v < 0 then 0 else v in
  if v < linear_limit then v
  else
    let k = floor_log2 v in
    linear_limit
    + ((k - (sub_bits + 1)) * sub_buckets)
    + ((v lsr (k - sub_bits)) - sub_buckets)

let lower_bound idx =
  if idx < linear_limit then idx
  else
    let off = idx - linear_limit in
    let k = (off / sub_buckets) + sub_bits + 1 in
    (sub_buckets + (off mod sub_buckets)) lsl (k - sub_bits)

(* exclusive upper bound of bucket [idx]; lower_bound is monotonic across
   power-of-two boundaries so this is just the next bucket's lower bound *)
let upper_bound idx = if idx < linear_limit then idx + 1 else lower_bound (idx + 1)

(* ---------- immutable histogram snapshots ---------- *)

module Hist = struct
  type t = {
    counts : int array; (* trailing zeros trimmed: canonical, so (=) works *)
    total : int;
    sum : int;
    vmin : int; (* max_int sentinel when empty *)
    vmax : int; (* min_int sentinel when empty *)
  }

  let trim counts =
    let n = ref (Array.length counts) in
    while !n > 0 && counts.(!n - 1) = 0 do
      decr n
    done;
    Array.sub counts 0 !n

  let make ~counts ~total ~sum ~vmin ~vmax =
    if total = 0 then
      { counts = [||]; total = 0; sum = 0; vmin = max_int; vmax = min_int }
    else { counts = trim counts; total; sum; vmin; vmax }

  let zero = make ~counts:[||] ~total:0 ~sum:0 ~vmin:max_int ~vmax:min_int

  let count h = h.total
  let sum h = h.sum
  let min_value h = if h.total = 0 then None else Some h.vmin
  let max_value h = if h.total = 0 then None else Some h.vmax
  let equal (a : t) b = a = b

  let observe h v =
    let v = if v < 0 then 0 else v in
    let idx = index_of v in
    let counts =
      Array.init
        (max (Array.length h.counts) (idx + 1))
        (fun i ->
          (if i < Array.length h.counts then h.counts.(i) else 0)
          + if i = idx then 1 else 0)
    in
    make ~counts ~total:(h.total + 1) ~sum:(h.sum + v) ~vmin:(min h.vmin v)
      ~vmax:(max h.vmax v)

  let of_list vs = List.fold_left observe zero vs

  let add a b =
    let n = max (Array.length a.counts) (Array.length b.counts) in
    let at c i = if i < Array.length c then c.(i) else 0 in
    make
      ~counts:(Array.init n (fun i -> at a.counts i + at b.counts i))
      ~total:(a.total + b.total) ~sum:(a.sum + b.sum) ~vmin:(min a.vmin b.vmin)
      ~vmax:(max a.vmax b.vmax)

  (* [sub a b] is the per-bucket delta of two cumulative snapshots of the
     same histogram (b taken earlier than a).  min/max are recomputed from
     the surviving buckets (lower bounds), since the true extrema of the
     delta window are not recoverable. *)
  let sub a b =
    let n = max (Array.length a.counts) (Array.length b.counts) in
    let at c i = if i < Array.length c then c.(i) else 0 in
    let counts = Array.init n (fun i -> max 0 (at a.counts i - at b.counts i)) in
    let total = ref 0 and vmin = ref max_int and vmax = ref min_int in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          total := !total + c;
          if lower_bound i < !vmin then vmin := lower_bound i;
          if lower_bound i > !vmax then vmax := lower_bound i
        end)
      counts;
    make ~counts ~total:!total
      ~sum:(max 0 (a.sum - b.sum))
      ~vmin:!vmin ~vmax:!vmax

  (* nearest-rank quantile: rank = max 1 (ceil (q*N)); the result is the
     lower bound of the bucket holding that rank, which for values below
     [linear_limit] is the exact sorted-array answer *)
  let quantile h q =
    if h.total = 0 then None
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int h.total)) in
        if r < 1 then 1 else if r > h.total then h.total else r
      in
      let res = ref None and cum = ref 0 and i = ref 0 in
      while !res = None && !i < Array.length h.counts do
        cum := !cum + h.counts.(!i);
        if !cum >= rank then res := Some (lower_bound !i);
        incr i
      done;
      !res
    end

  let buckets h =
    let acc = ref [] in
    Array.iteri
      (fun i c ->
        if c > 0 then acc := (lower_bound i, upper_bound i, c) :: !acc)
      h.counts;
    List.rev !acc

  (* non-zero buckets as "lower:count,..." — compact enough to ship as one
     string field per solve event *)
  let to_csv h =
    let b = Buffer.create 32 in
    List.iter
      (fun (lo, _, c) ->
        if Buffer.length b > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int lo);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int c))
      (buckets h);
    Buffer.contents b

  let to_json h =
    let q p = match quantile h p with Some v -> Json.Int v | None -> Json.Null in
    Json.Obj
      [
        ("count", Json.Int h.total);
        ("sum", Json.Int h.sum);
        ("min", (match min_value h with Some v -> Json.Int v | None -> Json.Null));
        ("max", (match max_value h with Some v -> Json.Int v | None -> Json.Null));
        ("p50", q 0.5);
        ("p95", q 0.95);
        ("p99", q 0.99);
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, _, c) -> Json.List [ Json.Int lo; Json.Int c ])
               (buckets h)) );
      ]

  let pp fmt h =
    match (min_value h, quantile h 0.5, quantile h 0.95, max_value h) with
    | Some mn, Some p50, Some p95, Some mx ->
        Format.fprintf fmt "n=%d min=%d p50=%d p95=%d max=%d" h.total mn p50
          p95 mx
    | _ -> Format.fprintf fmt "n=0"
end

(* ---------- mutable accumulator ---------- *)

module Histogram = struct
  type t = {
    mutable counts : int array;
    mutable total : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let create () =
    {
      counts = Array.make linear_limit 0;
      total = 0;
      sum = 0;
      vmin = max_int;
      vmax = min_int;
    }

  let observe h v =
    let v = if v < 0 then 0 else v in
    let idx = index_of v in
    if idx >= Array.length h.counts then begin
      let counts = Array.make (idx + 16) 0 in
      Array.blit h.counts 0 counts 0 (Array.length h.counts);
      h.counts <- counts
    end;
    h.counts.(idx) <- h.counts.(idx) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum + v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v

  let snapshot h =
    Hist.make ~counts:(Array.copy h.counts) ~total:h.total ~sum:h.sum
      ~vmin:h.vmin ~vmax:h.vmax
end

(* ---------- metric names and series labels ----------

   A registry key is the full series name: a base metric name plus an
   optional canonical label block, e.g. [serve.worker.busy{worker="0"}].
   The block is canonical at registration time — keys sanitized like
   metric names, pairs sorted, values escaped — so the same labels in
   any order alias the same series and exposition needs no re-sorting. *)

let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char b c
      | '0' .. '9' -> if i = 0 then Buffer.add_char b '_' else Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      let labels =
        List.map (fun (k, v) -> (sanitize k, v)) labels
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let series_key ?(labels = []) name = name ^ render_labels labels

let split_key key =
  match String.index_opt key '{' with
  | None -> (key, "")
  | Some i -> (String.sub key 0 i, String.sub key i (String.length key - i))

(* sanitize only the base name; the label block is already canonical *)
let sanitize_key key =
  let base, labels = split_key key in
  sanitize base ^ labels

(* ---------- the named registry ---------- *)

type counter = { c_value : int Atomic.t }
type gauge = { g_value : float Atomic.t }
type histogram = { h_acc : Histogram.t; h_mutex : Mutex.t }

type entry =
  | E_counter of counter
  | E_gauge of gauge
  | E_histogram of histogram

type sample = Counter of int | Gauge of float | Histogram of Hist.t

let registry : (string, string option * entry) Hashtbl.t = Hashtbl.create 32
let reg_mutex = Mutex.create ()

let register name help make_entry =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (_, e) -> e
      | None ->
          let e = make_entry () in
          Hashtbl.replace registry name (help, e);
          e)

let counter ?help ?labels name =
  let key = series_key ?labels name in
  match register key help (fun () -> E_counter { c_value = Atomic.make 0 }) with
  | E_counter c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ key ^ " registered with another type")

let gauge ?help ?labels name =
  let key = series_key ?labels name in
  match register key help (fun () -> E_gauge { g_value = Atomic.make 0.0 }) with
  | E_gauge g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ key ^ " registered with another type")

let histogram ?help ?labels name =
  let key = series_key ?labels name in
  match
    register key help (fun () ->
        E_histogram { h_acc = Histogram.create (); h_mutex = Mutex.create () })
  with
  | E_histogram h -> h
  | _ ->
      invalid_arg ("Metrics.histogram: " ^ key ^ " registered with another type")

(* updates: one atomic load when disabled, nothing allocated *)

let incr c n = if State.enabled () then ignore (Atomic.fetch_and_add c.c_value n)
let set g v = if State.enabled () then Atomic.set g.g_value v

let observe h v =
  if State.enabled () then begin
    Mutex.lock h.h_mutex;
    Histogram.observe h.h_acc v;
    Mutex.unlock h.h_mutex
  end

(* reads (never gated: inspection must work after the sink is gone) *)

let counter_value c = Atomic.get c.c_value
let gauge_value g = Atomic.get g.g_value

let histogram_value h =
  Mutex.protect h.h_mutex (fun () -> Histogram.snapshot h.h_acc)

let sample_of = function
  | E_counter c -> Counter (counter_value c)
  | E_gauge g -> Gauge (gauge_value g)
  | E_histogram h -> Histogram (histogram_value h)

let dump () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.fold (fun name (_, e) acc -> (name, sample_of e) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- Prometheus text exposition ---------- *)

let float_repr v =
  (* shortest representation that round-trips through float_of_string *)
  let s = Printf.sprintf "%.12g" v in
  let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
  (* keep the token float-shaped: the parser distinguishes counters from
     gauges by whether the value parses as an int *)
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

(* merge a canonical label block with an extra le pair for bucket lines *)
let with_le lbl le =
  if lbl = "" then Printf.sprintf "{le=\"%s\"}" le
  else
    String.sub lbl 0 (String.length lbl - 1) ^ Printf.sprintf ",le=\"%s\"}" le

(* [header] is true on the first series of a family: labeled series share
   one # HELP/# TYPE block under the sanitized base name *)
let expose_sample b ~header name lbl help sample =
  let n = sanitize name in
  if header then
    match help with
    | Some h -> Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" n h)
    | None -> ()
  else ();
  (match sample with
  | Counter _ when header ->
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n)
  | Gauge _ when header ->
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n)
  | Histogram _ when header ->
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n)
  | _ -> ());
  match sample with
  | Counter v -> Buffer.add_string b (Printf.sprintf "%s%s %d\n" n lbl v)
  | Gauge v ->
      Buffer.add_string b (Printf.sprintf "%s%s %s\n" n lbl (float_repr v))
  | Histogram h ->
      let cum = ref 0 in
      List.iter
        (fun (_, up, c) ->
          cum := !cum + c;
          (* buckets hold integer values in [lo, up): the inclusive
             Prometheus upper bound is up - 1 *)
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" n
               (with_le lbl (string_of_int (up - 1)))
               !cum))
        (Hist.buckets h);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" n (with_le lbl "+Inf") (Hist.count h));
      Buffer.add_string b (Printf.sprintf "%s_sum%s %d\n" n lbl (Hist.sum h));
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" n lbl (Hist.count h));
      (match (Hist.min_value h, Hist.max_value h) with
      | Some mn, Some mx ->
          (* non-standard extension lines so exposition round-trips
             losslessly back into a Hist.t *)
          Buffer.add_string b (Printf.sprintf "%s_min%s %d\n" n lbl mn);
          Buffer.add_string b (Printf.sprintf "%s_max%s %d\n" n lbl mx)
      | _ -> ())

let expose () =
  let b = Buffer.create 1024 in
  let entries =
    (* family order: sanitized base name, then label block — same-base
       series stay adjacent even when an unrelated name sorts between
       their raw keys (e.g. [foo_bar] between [foo] and [foo{...}]) *)
    dump ()
    |> List.map (fun (key, s) ->
           let base, lbl = split_key key in
           (key, base, lbl, s))
    |> List.sort (fun (_, b1, l1, _) (_, b2, l2, _) ->
           match String.compare (sanitize b1) (sanitize b2) with
           | 0 -> String.compare l1 l2
           | c -> c)
  in
  let last_family = ref None in
  List.iter
    (fun (key, base, lbl, s) ->
      let help =
        Mutex.protect reg_mutex (fun () ->
            Option.bind (Hashtbl.find_opt registry key) fst)
      in
      let family = sanitize base in
      let header = !last_family <> Some family in
      last_family := Some family;
      expose_sample b ~header base lbl help s)
    entries;
  Buffer.contents b

(* ---------- exposition parser (tests, trace diff on metrics files) ---------- *)

(* [parse_labels] reads a text-format label block ([{k="v",...}],
   backslash/quote/newline escapes in values) and returns the pairs in
   order of appearance; callers re-canonicalize via [render_labels]. *)
let parse_labels s =
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then None
  else if n = 2 then Some []
  else begin
    let pos = ref 1 and out = ref [] and ok = ref true in
    (try
       while !pos < n - 1 do
         let start = !pos in
         while !pos < n && s.[!pos] <> '=' do
           pos := !pos + 1
         done;
         if !pos >= n - 1 then raise Exit;
         let k = String.sub s start (!pos - start) in
         pos := !pos + 1;
         if !pos >= n || s.[!pos] <> '"' then raise Exit;
         pos := !pos + 1;
         let b = Buffer.create 8 in
         let closed = ref false in
         while not !closed do
           if !pos >= n then raise Exit;
           (match s.[!pos] with
           | '"' -> closed := true
           | '\\' ->
               if !pos + 1 >= n then raise Exit;
               (match s.[!pos + 1] with
               | 'n' -> Buffer.add_char b '\n'
               | c -> Buffer.add_char b c);
               pos := !pos + 1
           | c -> Buffer.add_char b c);
           pos := !pos + 1
         done;
         out := (k, Buffer.contents b) :: !out;
         if !pos < n - 1 then
           if s.[!pos] = ',' then pos := !pos + 1 else raise Exit
         else if !pos <> n - 1 then raise Exit
       done
     with Exit -> ok := false);
    if !ok then Some (List.rev !out) else None
  end

let parse_exposition text =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  (* histogram family under construction: one series per label set *)
  let module S = struct
    type st = {
      mutable buckets : (int * int) list; (* (le, cumulative), reversed *)
      mutable sum : int;
      mutable count : int;
      mutable vmin : int option;
      mutable vmax : int option;
    }
  end in
  let hname = ref None in
  let hseries : (string, S.st) Hashtbl.t = Hashtbl.create 4 in
  let horder = ref [] (* label blocks in order of first appearance *) in
  let hget lbl =
    match Hashtbl.find_opt hseries lbl with
    | Some st -> st
    | None ->
        let st =
          { S.buckets = []; sum = 0; count = 0; vmin = None; vmax = None }
        in
        Hashtbl.replace hseries lbl st;
        horder := lbl :: !horder;
        st
  in
  let out = ref [] in
  let finish_hist () =
    match !hname with
    | None -> Ok ()
    | Some n ->
        let ok = ref (Ok ()) in
        List.iter
          (fun lbl ->
            let st = Hashtbl.find hseries lbl in
            let counts = ref (Array.make 1 0) in
            let prev = ref 0 in
            List.iter
              (fun (le, cum) ->
                let idx = index_of le in
                if idx >= Array.length !counts then begin
                  let c = Array.make (idx + 1) 0 in
                  Array.blit !counts 0 c 0 (Array.length !counts);
                  counts := c
                end;
                if cum < !prev then ok := err "%s: non-monotonic buckets" n
                else begin
                  !counts.(idx) <- cum - !prev;
                  prev := cum
                end)
              (List.rev st.S.buckets);
            match !ok with
            | Error _ -> ()
            | Ok () ->
                let vmin = Option.value st.S.vmin ~default:max_int in
                let vmax = Option.value st.S.vmax ~default:min_int in
                out :=
                  ( n ^ lbl,
                    Histogram
                      (Hist.make ~counts:!counts ~total:st.S.count
                         ~sum:st.S.sum ~vmin ~vmax) )
                  :: !out)
          (List.rev !horder);
        let res = !ok in
        hname := None;
        Hashtbl.reset hseries;
        horder := [];
        res
  in
  let split_line l =
    (* "name{labels} value" or "name value".  The label block cannot be
       cut at the first space: quoted label values may legally contain
       spaces, commas and braces, so the block end is found by walking
       it quote-aware (backslash escapes honoured). *)
    let n = String.length l in
    let brace =
      match (String.index_opt l '{', String.index_opt l ' ') with
      | Some br, Some sp when sp < br -> None (* '{' is inside the value *)
      | br, _ -> br
    in
    match brace with
    | None -> (
        match String.index_opt l ' ' with
        | None -> None
        | Some sp ->
            let name = String.sub l 0 sp in
            let value = String.trim (String.sub l sp (n - sp)) in
            Some (name, None, value))
    | Some br ->
        let pos = ref (br + 1) and in_q = ref false and close = ref None in
        while !close = None && !pos < n do
          (match l.[!pos] with
          | '"' -> in_q := not !in_q
          | '\\' when !in_q -> pos := !pos + 1
          | '}' when not !in_q -> close := Some !pos
          | _ -> ());
          pos := !pos + 1
        done;
        (match !close with
        | None -> None
        | Some e ->
            let value = String.trim (String.sub l (e + 1) (n - e - 1)) in
            if value = "" then None
            else
              Some
                ( String.sub l 0 br,
                  Some (String.sub l br (e + 1 - br)),
                  value ))
  in
  (* parsed labels, canonically re-rendered; "" when absent *)
  let canonical_labels label =
    match label with
    | None -> Some []
    | Some lbl -> parse_labels lbl
  in
  let strip_suffix s suf =
    let ls = String.length s and lf = String.length suf in
    if ls > lf && String.sub s (ls - lf) lf = suf then Some (String.sub s 0 (ls - lf))
    else None
  in
  let rec go = function
    | [] -> ( match finish_hist () with Ok () -> Ok () | Error _ as e -> e)
    | l :: rest ->
        let l = String.trim l in
        if String.length l > 0 && l.[0] = '#' then begin
          match String.split_on_char ' ' l with
          | "#" :: "TYPE" :: name :: [ kind ] -> (
              match finish_hist () with
              | Error _ as e -> e
              | Ok () ->
                  if kind = "histogram" then hname := Some name;
                  go rest)
          | _ -> go rest (* HELP and comments *)
        end
        else
          match split_line l with
          | None -> err "unparseable line: %s" l
          | Some (name, label, value) -> (
              let int_member st field =
                match int_of_string_opt value with
                | Some v ->
                    (match field with
                    | `Sum -> st.S.sum <- v
                    | `Count -> st.S.count <- v
                    | `Min -> st.S.vmin <- Some v
                    | `Max -> st.S.vmax <- Some v);
                    go rest
                | None -> err "%s: bad value: %s" name value
              in
              match !hname with
              | Some hn when strip_suffix name "_bucket" = Some hn -> (
                  match (canonical_labels label, int_of_string_opt value) with
                  | Some pairs, Some cum -> (
                      let le, others =
                        List.partition (fun (k, _) -> k = "le") pairs
                      in
                      let lbl = render_labels others in
                      match le with
                      | [ (_, "+Inf") ] -> go rest (* redundant with _count *)
                      | [ (_, le) ] -> (
                          match int_of_string_opt le with
                          | Some le ->
                              let st = hget lbl in
                              st.S.buckets <- (le, cum) :: st.S.buckets;
                              go rest
                          | None -> err "%s: bad bucket line: %s" hn l)
                      | _ -> err "%s: bad bucket line: %s" hn l)
                  | _ -> err "%s: bad bucket line: %s" hn l)
              | Some hn when name = hn ^ "_sum" -> (
                  match canonical_labels label with
                  | Some pairs -> int_member (hget (render_labels pairs)) `Sum
                  | None -> err "%s: bad labels: %s" hn l)
              | Some hn when name = hn ^ "_count" -> (
                  match canonical_labels label with
                  | Some pairs -> int_member (hget (render_labels pairs)) `Count
                  | None -> err "%s: bad labels: %s" hn l)
              | Some hn when name = hn ^ "_min" -> (
                  match canonical_labels label with
                  | Some pairs -> int_member (hget (render_labels pairs)) `Min
                  | None -> err "%s: bad labels: %s" hn l)
              | Some hn when name = hn ^ "_max" -> (
                  match canonical_labels label with
                  | Some pairs -> int_member (hget (render_labels pairs)) `Max
                  | None -> err "%s: bad labels: %s" hn l)
              | _ -> (
                  match finish_hist () with
                  | Error _ as e -> e
                  | Ok () -> (
                      match canonical_labels label with
                      | None -> err "%s: bad labels: %s" name l
                      | Some pairs -> (
                          let key = name ^ render_labels pairs in
                          (* scalar: prefer int (counter), else float (gauge) *)
                          match int_of_string_opt value with
                          | Some v ->
                              out := (key, Counter v) :: !out;
                              go rest
                          | None -> (
                              match float_of_string_opt value with
                              | Some v ->
                                  out := (key, Gauge v) :: !out;
                                  go rest
                              | None -> err "%s: bad value: %s" name value)))))
  in
  match go lines with
  | Error _ as e -> e
  | Ok () ->
      Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev !out))

(* ---------- periodic-flush sink ---------- *)

let flush_sink ?(min_interval = 1.0) write =
  let mutex = Mutex.create () in
  let last = ref neg_infinity in
  let flush_now () =
    Mutex.protect mutex (fun () ->
        last := State.now ();
        write (expose ()))
  in
  {
    Sink.emit =
      (fun _ ->
        (* racy fast check on purpose; the mutex re-check decides *)
        if State.now () -. !last >= min_interval then
          Mutex.protect mutex (fun () ->
              if State.now () -. !last >= min_interval then begin
                last := State.now ();
                write (expose ())
              end));
    flush = flush_now;
  }
