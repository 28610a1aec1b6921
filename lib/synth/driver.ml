open Spec

type task =
  | Fixed of single
  | Min_check_len of single
  | Min_set_bits of single * int
  | Max_distance of single
  | Weighted_mapping of Weighted.gen_shape * Weighted.gen_shape

and single = {
  data_len : int;
  check_lo : int;
  check_hi : int;
  md : int;
  len1_max : int option;
  fixed_bits : (int * int * bool) list;
}

include Outcome

(* constant folding for the config-level arithmetic of specifications *)
let rec const_int : Ast.expr -> int option = function
  | Ast.Int n -> Some n
  | Ast.Real r when Float.is_integer r -> Some (int_of_float r)
  | Ast.Real _ -> None
  | Ast.Add (a, b) -> Option.bind (const_int a) (fun x -> Option.map (( + ) x) (const_int b))
  | Ast.Sub (a, b) ->
      Option.bind (const_int a) (fun x -> Option.map (fun y -> x - y) (const_int b))
  | Ast.Mul (a, b) -> Option.bind (const_int a) (fun x -> Option.map (( * ) x) (const_int b))
  | Ast.Neg a -> Option.map (fun x -> -x) (const_int a)
  | _ -> None

(* per-generator accumulated facts *)
type gen_facts = {
  mutable data_len_ : int option;
  mutable c_lo : int;
  mutable c_hi : int;
  mutable md_ : int option;
  mutable len1_max_ : int option;
  mutable bits : (int * int * bool) list;
}

let fresh_facts () =
  { data_len_ = None; c_lo = 1; c_hi = 16; md_ = None; len1_max_ = None; bits = [] }

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

let analyze prop =
  try
    let conj = Ast.conjuncts prop in
    let len_g = ref 1 in
    let facts : (int, gen_facts) Hashtbl.t = Hashtbl.create 4 in
    let get_facts i =
      match Hashtbl.find_opt facts i with
      | Some f -> f
      | None ->
          let f = fresh_facts () in
          Hashtbl.add facts i f;
          f
    in
    let objectives = ref [] in
    let gen_index e =
      match const_int e with
      | Some i when i >= 0 -> i
      | _ -> unsupported "generator index must be a constant"
    in
    let rec handle_cmp op a b =
      match (a, b) with
      | Ast.Len_g, rhs -> (
          match (op, const_int rhs) with
          | Ast.Eq, Some n when n >= 1 -> len_g := n
          | _ -> unsupported "len_G must be constrained as len_G = <n>")
      | Ast.Func (Ast.Len_d, g), rhs -> (
          match (op, const_int rhs) with
          | Ast.Eq, Some n when n >= 1 -> (get_facts (gen_index g)).data_len_ <- Some n
          | _ -> unsupported "len_d must be fixed: len_d(G[i]) = <n>")
      | Ast.Func (Ast.Len_c, g), rhs -> (
          let f = get_facts (gen_index g) in
          match (op, const_int rhs) with
          | Ast.Eq, Some n ->
              f.c_lo <- n;
              f.c_hi <- n
          | Ast.Le, Some n -> f.c_hi <- min f.c_hi n
          | Ast.Lt, Some n -> f.c_hi <- min f.c_hi (n - 1)
          | Ast.Ge, Some n -> f.c_lo <- max f.c_lo n
          | Ast.Gt, Some n -> f.c_lo <- max f.c_lo (n + 1)
          | _ -> unsupported "len_c bounds must compare against constants")
      | Ast.Func (Ast.Md, g), rhs -> (
          let f = get_facts (gen_index g) in
          match (op, const_int rhs) with
          | (Ast.Eq | Ast.Ge), Some m when m >= 1 -> f.md_ <- Some m
          | Ast.Gt, Some m -> f.md_ <- Some (m + 1)
          | _ -> unsupported "md must be constrained as md(G[i]) = <m> or >= <m>")
      | Ast.Func (Ast.Len_1, g), rhs -> (
          let f = get_facts (gen_index g) in
          match (op, const_int rhs) with
          | Ast.Le, Some n -> f.len1_max_ <- Some n
          | Ast.Lt, Some n -> f.len1_max_ <- Some (n - 1)
          | _ -> unsupported "len_1 supports only upper bounds (<=, <)")
      | Ast.Gen_entry (g, r, c), rhs -> (
          let f = get_facts (gen_index g) in
          match (op, const_int r, const_int c, const_int rhs) with
          | Ast.Eq, Some ri, Some ci, Some v when v = 0 || v = 1 ->
              f.bits <- (ri, ci, v = 1) :: f.bits
          | _ -> unsupported "generator entries must be pinned: G[i](r,c) = 0|1")
      | lhs, rhs when lhs = rhs && op = Ast.Eq -> ()
      | _ -> (
          (* allow the symmetric orientation: <const> <op> <fn> *)
          match (a, b) with
          | (Ast.Int _ | Ast.Real _), _ ->
              let flip = function
                | Ast.Lt -> Ast.Gt
                | Ast.Gt -> Ast.Lt
                | Ast.Le -> Ast.Ge
                | Ast.Ge -> Ast.Le
                | c -> c
              in
              handle_cmp (flip op) b a
          | _ -> unsupported "unsupported comparison %s" (Ast.prop_to_string (Ast.Cmp (op, a, b))))
    and handle = function
      | Ast.True -> ()
      | Ast.False -> unsupported "specification is trivially false"
      | Ast.Cmp (op, a, b) -> handle_cmp op a b
      | Ast.Minimal e -> objectives := `Minimal e :: !objectives
      | Ast.Maximal e -> objectives := `Maximal e :: !objectives
      | Ast.And (a, b) ->
          handle a;
          handle b
      | (Ast.Or _ | Ast.Imp _ | Ast.Not _) as p ->
          unsupported "only conjunctive specifications are supported: %s"
            (Ast.prop_to_string p)
    in
    List.iter handle conj;
    let objectives = List.rev !objectives in
    let single_of i =
      let f = get_facts i in
      let data_len =
        match f.data_len_ with
        | Some n -> n
        | None -> unsupported "len_d(G[%d]) must be fixed" i
      in
      let md =
        match f.md_ with
        | Some m -> m
        | None -> unsupported "md(G[%d]) must be constrained" i
      in
      {
        data_len;
        check_lo = f.c_lo;
        check_hi = f.c_hi;
        md;
        len1_max = f.len1_max_;
        fixed_bits = f.bits;
      }
    in
    if !len_g = 1 then begin
      let s = single_of 0 in
      match objectives with
      | [] -> Ok (Fixed s)
      | [ `Minimal (Ast.Func (Ast.Len_c, _)) ] -> Ok (Min_check_len s)
      | [ `Minimal (Ast.Func (Ast.Len_1, _)) ] ->
          let start = Option.value s.len1_max ~default:(s.data_len * s.check_hi) in
          Ok (Min_set_bits (s, start))
      | [ `Maximal (Ast.Func (Ast.Md, _)) ] -> Ok (Max_distance s)
      | _ -> Error "unsupported objective for a single generator"
    end
    else if !len_g = 2 then begin
      match objectives with
      | [ `Minimal Ast.Sum_w ] ->
          let shape i =
            let f = get_facts i in
            if f.c_lo <> f.c_hi then
              unsupported "weighted synthesis needs fixed len_c(G[%d])" i;
            match f.md_ with
            | Some m -> { Weighted.check_len = f.c_lo; min_distance = m }
            | None -> unsupported "md(G[%d]) must be constrained" i
          in
          Ok (Weighted_mapping (shape 0, shape 1))
      | _ -> Error "two-generator specifications support only minimal(sum_w)"
    end
    else Error "more than two generators are not supported"
  with Unsupported msg -> Error msg

(* a pinned entry must lie inside the largest generator [s] allows *)
let check_pin s (r, c, _) =
  if r < 0 || r >= s.data_len then
    invalid_arg (Printf.sprintf "pinned entry row %d out of range" r);
  if c < 0 || c >= s.data_len + s.check_hi then
    invalid_arg
      (Printf.sprintf
         "pinned entry G[0](%d, %d) is outside the %d-column generator \
          (len_d %d + len_c %d)"
         r c (s.data_len + s.check_hi) s.data_len s.check_hi)

(* translate pinned generator entries into coefficient-matrix constraints;
   language column indices cover the whole generator (identity included);
   [run] checks every pin before any solving *)
let fixed_bit_constraints s =
  List.map
    (fun (r, c, v) ~entry ->
      if c < s.data_len then
        (* identity part: constraint must agree with I_k *)
        if (r = c) = v then Smtlite.Expr.true_ else Smtlite.Expr.false_
      else
        let e = entry ~row:r ~col:(c - s.data_len) in
        if v then e else Smtlite.Expr.not_ e)
    s.fixed_bits

(* the shortest check length whose generator holds every pinned column *)
let pinned_check_len s =
  List.fold_left (fun acc (_, c, _) -> max acc (c - s.data_len + 1)) 0 s.fixed_bits

(* the CEGIS problem of one walk attempt: a [check_len]-column generator
   of distance [md] holding [s]'s pins and the set-bit bound [len1] *)
let walk_problem s ~check_len ~md ~len1 =
  let at_most bound ~entry =
    let bits = ref [] in
    for i = 0 to s.data_len - 1 do
      for j = 0 to check_len - 1 do
        bits := entry ~row:i ~col:j :: !bits
      done
    done;
    Smtlite.Card.at_most Smtlite.Card.Sequential !bits bound
  in
  {
    Cegis.data_len = s.data_len;
    check_len;
    min_distance = md;
    extra = fixed_bit_constraints s @ Option.to_list (Option.map at_most len1);
  }

(* resumed counterexamples must fit the configuration they are replayed
   into: raw data witnesses transfer to any check length, blocked
   candidates only to their own dimensions *)
let fits (p : Cegis.problem) = function
  | Cegis.Cex_data d -> Gf2.Bitvec.length d = p.data_len
  | Cegis.Cex_candidate code ->
      Hamming.Code.data_len code = p.data_len
      && Hamming.Code.check_len code = p.check_len

(* The one map from an objective walk to the job outcome.  A walk that
   crossed its boundary answers what it proved: [Unsat] when its own
   attempts refuted every parameter it tried, its verified generator(s)
   otherwise.  A cut walk answers [Partial] with its best verified
   generator, or else the near-miss candidate of the attempt it cut, and
   [Timeout] with neither. *)
let walk_outcome ~cut_reason task (w : Optimize.walk) =
  let stats = w.totals in
  match (w.ending, w.found) with
  | Optimize.Boundary, [] ->
      let reason =
        match task with
        | Min_set_bits _ -> "no generator within the starting bound"
        | Max_distance _ -> "even the base distance is unsatisfiable"
        | _ -> "no check length in range admits the spec"
      in
      Unsat { reason; stats }
  | Optimize.Boundary, ({ generator; _ } :: _ as found) -> (
      match task with
      | Min_set_bits _ -> Setbits (List.rev found)
      | _ -> Codes ([ generator ], stats))
  | Optimize.Cut near, found -> (
      let partial ~verified param code =
        (* recomputed: a near-miss candidate's distance was never verified *)
        let achieved = Hamming.Distance.min_distance code in
        let check_len = match task with Min_check_len _ -> Some param | _ -> None in
        Partial { code; achieved; check_len; verified; stats }
      in
      match (found, near) with
      | { bound; generator; _ } :: _, _ -> partial ~verified:true bound generator
      | [], Some (param, code) -> partial ~verified:false param code
      | [], None -> Timeout { reason = cut_reason ~stood:"before the first candidate"; stats })

let min_check_len ~data_len ~md ~check_lo ~check_hi =
  Min_check_len { data_len; check_lo; check_hi; md; len1_max = None; fixed_bits = [] }

let run ?(timeout = 120.0) ?weights ?p ?jobs ?on_report
    ?(interrupt = fun () -> false) ?(initial = [])
    ?(on_cex = fun (_ : Cegis.cex) -> ()) ?on_round task =
  let deadline = Unix.gettimeofday () +. timeout in
  (* an interrupted answer is rendered after an "interrupted" label, so
     its reason says where the run stood instead *)
  let cut_reason ~stood =
    if interrupt () then stood else "synthesis budget exhausted"
  in
  match task with
  | Weighted_mapping (g0, g1) -> (
      let weights =
        match weights with
        | Some w -> w
        | None -> unsupported "weighted synthesis requires weights"
      in
      match Weighted.optimize ~timeout ?p ~interrupt ~weights g0 g1 with
      | Report.Synthesized (r, _) -> Weighted r
      | Report.Unsat_config stats ->
          Unsat
            {
              reason = "no split admits both generator shapes within the initial bound";
              stats;
            }
      | Report.Timed_out stats | Report.Partial (_, stats) ->
          Timeout { reason = cut_reason ~stood:"before the mapping search finished"; stats })
  | Fixed s | Min_check_len s | Min_set_bits (s, _) | Max_distance s ->
      let fixed_len what =
        if s.check_lo <> s.check_hi then unsupported "%s needs a fixed len_c" what
      in
      (* the objective, its first parameter and the problem it poses *)
      let objective, start, problem =
        match task with
        | Min_set_bits (_, bound) ->
            fixed_len "set-bit minimization";
            ( Optimize.Set_bits, bound,
              fun b -> walk_problem s ~check_len:s.check_lo ~md:s.md ~len1:(Some b) )
        | Max_distance _ ->
            fixed_len "maximal(md)";
            ( Optimize.Distance, s.md,
              fun md -> walk_problem s ~check_len:s.check_lo ~md ~len1:s.len1_max )
        | _ ->
            ( Optimize.Check_len s.check_hi, max s.check_lo (pinned_check_len s),
              fun c -> walk_problem s ~check_len:c ~md:s.md ~len1:s.len1_max )
      in
      (* a pin no length in range can hold is an error naming the entry;
         lengths too short for the pins are skipped *)
      List.iter (check_pin s) s.fixed_bits;
      let attempt ~timeout param =
        let problem = problem param in
        (* counterexamples are learned and replayed at the task's own
           distance only: a candidate a [maximal(md)] attempt refutes
           above it may still meet it *)
        let at_md = problem.min_distance = s.md in
        let initial = if at_md then List.filter (fits problem) initial else [] in
        let on_cex = if at_md then on_cex else ignore in
        match jobs with
        | None ->
            Cegis.synthesize ~timeout ~interrupt ~initial
              ~on_progress:(fun _ cex -> on_cex cex)
              problem
        | Some jobs -> (
            (* portfolio path: race [jobs] configurations, report per-worker
               statistics through the callback, collapse to the sequential
               outcome shape with worker-summed statistics (elapsed becomes
               the race's wall clock rather than summed solver time) *)
            let outcome =
              Portfolio.synthesize ~timeout ~jobs ~interrupt ~initial ~on_cex
                problem
            in
            let report = Report.outcome_info outcome in
            Option.iter (fun f -> f report) on_report;
            let stats =
              { report.Portfolio.totals with Report.Stats.elapsed = report.Portfolio.wall_clock }
            in
            match outcome with
            | Report.Synthesized (code, _) -> Report.Synthesized (code, stats)
            | Report.Unsat_config _ -> Report.Unsat_config stats
            | Report.Timed_out _ -> Report.Timed_out stats
            | Report.Partial (code, _) -> Report.Partial (code, stats))
      in
      walk_outcome ~cut_reason task
        (Optimize.walk ~interrupt ?on_round
           ~steps:(match task with Fixed _ -> false | _ -> true)
           ~deadline ~objective ~start attempt)
