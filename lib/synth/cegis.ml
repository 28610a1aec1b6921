open Gf2
open Smtlite

type cex_mode = Data_word | Whole_candidate
type verifier_mode = Combinatorial | Sat

let cex_mode_name = function
  | Data_word -> "data-word"
  | Whole_candidate -> "whole-candidate"

let verifier_name = function Combinatorial -> "comb" | Sat -> "sat"

type problem = {
  data_len : int;
  check_len : int;
  min_distance : int;
  extra : (entry:(row:int -> col:int -> Smtlite.Expr.t) -> Smtlite.Expr.t) list;
}

type cex = Cex_data of Bitvec.t | Cex_candidate of Hamming.Code.t

(* Symbolic coefficient-matrix bits for one candidate generator.  Fresh
   variables per call so repeated syntheses don't interfere. *)
let make_matrix_vars ~data_len ~check_len =
  Array.init data_len (fun _ -> Array.of_list (Fresh.make_n check_len))

let candidate_of_model ctx vars ~data_len ~check_len =
  let p =
    Matrix.init ~rows:data_len ~cols:check_len (fun i j -> Ctx.model_bool ctx vars.(i).(j))
  in
  Hamming.Code.make ~p

(* The counterexample constraint: for the concrete data word [d], the
   symbolic codeword must have weight >= md.  The data part contributes
   [popcount d] ones; check bit j is the parity of column j restricted to
   the set bits of d. *)
let data_word_constraint ~encoding vars ~check_len ~min_distance d =
  let data_weight = Bitvec.popcount d in
  let deficit = min_distance - data_weight in
  if deficit <= 0 then Expr.true_
  else begin
    let checks =
      List.init check_len (fun j ->
          let selected = ref [] in
          Bitvec.iter_set (fun i -> selected := vars.(i).(j) :: !selected) d;
          Expr.xor_l !selected)
    in
    Card.at_least encoding checks deficit
  end

(* The paper's makeCex: forbid exactly this candidate matrix. *)
let block_candidate_constraint vars code =
  let p = Hamming.Code.coefficient_matrix code in
  let diffs = ref [] in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          let bit = Matrix.get p i j in
          diffs := (if bit then Expr.not_ v else v) :: !diffs)
        row)
    vars;
  Expr.or_ !diffs

(* ---------- symmetry breaking ---------- *)

(* Permuting the data bits (the rows of P) or the check bits (its columns)
   maps a code to an equivalent code with the same minimum distance, so a
   search may ask for one member of each orbit and lose no answer: unsat
   under the order is unsat without it.  The rows of P descend
   lexicographically, last column most significant; with the columns
   ordered too, they descend, last row most significant.  Both orders read
   the matrix from its last index, so together they are the double-lex
   order of the matrix with rows and columns reversed, and every matrix
   has a row and column permutation in it (Flener et al., CP 2002).  For
   md >= 3 no two rows may be equal ([e_i + e_j] encodes to weight
   [2 + d(P_i, P_j)]), so the row order is strict; columns may repeat.

   [assert_lex_geq syn ~upper ~lower] asks [upper >= lower], the last
   position most significant.  Each pair gets one fresh variable [x_t] per
   position, "the vectors agree on their [t] most significant bits" ([x_0]
   is true; [x_n], all bits equal, is false when strict).  With [a] the
   lower vector's bit and [b] the upper one's at position [t]:
     x_t -> (~a \/ b),   x_t /\ a -> x_(t+1),   x_t /\ ~b -> x_(t+1). *)
let assert_lex_geq syn ~upper ~lower ~strict =
  let n = Array.length upper in
  let fresh = Array.of_list (Fresh.make_n (n - 1)) in
  let x t =
    if t = 0 then Expr.true_
    else if t = n then Expr.of_bool (not strict)
    else fresh.(t - 1)
  in
  for t = 0 to n - 1 do
    let pos = n - 1 - t in
    let a = lower.(pos) and b = upper.(pos) in
    List.iter
      (fun lits ->
        let clause = Expr.or_ (Expr.not_ (x t) :: lits) in
        if not (Expr.is_true clause) then Ctx.assert_ syn clause)
      [ [ Expr.not_ a; b ]; [ Expr.not_ a; x (t + 1) ]; [ b; x (t + 1) ] ]
  done

let assert_row_order syn vars ~strict =
  for i = 0 to Array.length vars - 2 do
    assert_lex_geq syn ~upper:vars.(i) ~lower:vars.(i + 1) ~strict
  done

let assert_col_order syn vars =
  let column j = Array.map (fun row -> row.(j)) vars in
  for j = 0 to Array.length vars.(0) - 2 do
    assert_lex_geq syn ~upper:(column j) ~lower:(column (j + 1)) ~strict:false
  done

type symmetry = No_order | Rows | Rows_cols

let symmetry_name = function
  | No_order -> "none"
  | Rows -> "rows"
  | Rows_cols -> "rows+cols"

(* The Griesmer bound: a linear [n, k, d] code has
   n >= sum_(i<k) ceil(d / 2^i), so c >= that sum - k. *)
let griesmer_check_len ~data_len ~min_distance =
  let rec go i d acc =
    if i = data_len then acc else go (i + 1) ((d + 1) / 2) (acc + d)
  in
  go 0 min_distance 0 - data_len

(* An extra constraint may tell rows or columns apart (a pin, a set-bit
   bound), so only a pure-distance problem is symmetric.  The column order
   is added only where codes are rarest, at or below the Griesmer check
   length: there it turns the c_min - 1 proofs from thousands of conflicts
   into hundreds, while above the bound, where most probes are finds, it
   slowed the search down (DESIGN.md, "Double-lex at or below the Griesmer
   bound"). *)
let symmetry_of_problem { data_len; check_len; min_distance; extra } =
  if extra <> [] then No_order
  else if check_len <= griesmer_check_len ~data_len ~min_distance then Rows_cols
  else Rows

(* ---------- resumable session: one CEGIS iteration at a time ---------- *)

type session = {
  problem : problem;
  cex_mode : cex_mode;
  verifier : verifier_mode;
  encoding : Card.encoding;
  seed : int option;
  interrupt : (unit -> bool) option;
  syn : Ctx.t;
  vars : Expr.t array array;
  start : float;
  mutable iterations : int;
  mutable verifier_calls : int;
  ver_conflicts : int ref;
  (* best refuted candidate so far: the generator whose refuting witness
     had the largest codeword weight (an upper bound on the candidate's
     minimum distance, hence "closest to the target") — the anytime result
     returned as [Partial] when a budget expires *)
  mutable best : (Hamming.Code.t * int) option;
}

type step_result =
  | Done of Hamming.Code.t
  | Progress of cex
  | Exhausted

(* Absorb a counterexample — the session's own, one imported from another
   portfolio worker, or one replayed from a checkpoint.  Raw witnesses are
   re-encoded with this session's own cardinality encoding, so sharing
   across differently-configured workers stays sound: both constraint forms
   are implied for any correct code. *)
let learn_into s cex =
  match cex with
  | Cex_data d ->
      Ctx.assert_ s.syn
        (data_word_constraint ~encoding:s.encoding s.vars
           ~check_len:s.problem.check_len ~min_distance:s.problem.min_distance
           d)
  | Cex_candidate code ->
      Ctx.assert_ s.syn (block_candidate_constraint s.vars code)

let create_session ?(cex_mode = Data_word) ?(verifier = Combinatorial)
    ?(encoding = Card.Sequential) ?seed ?interrupt ?vars ?(initial = [])
    problem =
  Fault.init_from_env ();
  let { data_len; check_len; min_distance = _; extra } = problem in
  if data_len < 1 || check_len < 1 then
    invalid_arg "Cegis.create_session: need at least one data and one check bit";
  let syn = Ctx.create () in
  (match seed with Some s -> Ctx.set_seed syn s | None -> ());
  (match interrupt with Some _ -> Ctx.set_interrupt syn interrupt | None -> ());
  let vars =
    match vars with
    | Some v ->
        if
          Array.length v <> data_len
          || (data_len > 0 && Array.length v.(0) <> check_len)
        then invalid_arg "Cegis.create_session: vars dimensions mismatch";
        v
    | None -> make_matrix_vars ~data_len ~check_len
  in
  let entry ~row ~col = vars.(row).(col) in
  List.iter (fun build -> Ctx.assert_ syn (build ~entry)) extra;
  let symmetry = symmetry_of_problem problem in
  if symmetry <> No_order then
    assert_row_order syn vars ~strict:(problem.min_distance >= 3);
  if symmetry = Rows_cols then assert_col_order syn vars;
  if Telemetry.enabled () then
    Telemetry.point "cegis.session"
      ~fields:
        [
          ("data_len", Telemetry.int data_len);
          ("check_len", Telemetry.int check_len);
          ("min_distance", Telemetry.int problem.min_distance);
          ("encoding", Telemetry.str (Card.encoding_name encoding));
          ("cex_mode", Telemetry.str (cex_mode_name cex_mode));
          ("verifier", Telemetry.str (verifier_name verifier));
          ("seed", Telemetry.int (Option.value seed ~default:(-1)));
          ("extra_constraints", Telemetry.int (List.length extra));
          ("symmetry", Telemetry.str (symmetry_name symmetry));
        ];
  let s =
    {
      problem;
      cex_mode;
      verifier;
      encoding;
      seed;
      interrupt;
      syn;
      vars;
      start = Unix.gettimeofday ();
      iterations = 0;
      verifier_calls = 0;
      ver_conflicts = ref 0;
      best = None;
    }
  in
  (* replay counterexamples recovered from a checkpoint (or carried over
     from a previous incarnation) before the first candidate is drawn *)
  List.iter (learn_into s) initial;
  s

let matrix_vars s = s.vars

let session_solver_vars s = Sat.Solver.nvars (Ctx.solver s.syn)

let session_stats s : Report.Stats.t =
  {
    iterations = s.iterations;
    verifier_calls = s.verifier_calls;
    elapsed = Unix.gettimeofday () -. s.start;
    syn_conflicts = (Ctx.stats s.syn).Sat.Solver.conflicts;
    ver_conflicts = !(s.ver_conflicts);
    worker_crashes = 0;
    worker_restarts = 0;
    learnt_hist = Ctx.learnt_histogram s.syn;
  }

let session_best s = s.best

let learn = learn_into

let verify ?deadline s code =
  s.verifier_calls <- s.verifier_calls + 1;
  match s.verifier with
  | Combinatorial ->
      Hamming.Distance.counterexample ?interrupt:s.interrupt code
        s.problem.min_distance
  | Sat ->
      Hamming.Distance.sat_counterexample ?deadline ?interrupt:s.interrupt
        ?seed:s.seed ~conflicts:s.ver_conflicts code s.problem.min_distance

(* One CEGIS iteration, instrumented as a [cegis.iteration] span holding a
   synthesizer [ctx.check] span, a [cegis.candidate] event and a
   [cegis.verify] span with the verdict. *)
let step_body ?deadline s =
  match Ctx.check ?deadline s.syn with
  | Ctx.Unsat -> Exhausted
  | Ctx.Sat -> (
      let code =
        candidate_of_model s.syn s.vars ~data_len:s.problem.data_len
          ~check_len:s.problem.check_len
      in
      if Telemetry.enabled () then
        Telemetry.point "cegis.candidate"
          ~fields:[ ("set_bits", Telemetry.int (Hamming.Code.set_bits code)) ];
      let vsp =
        Telemetry.begin_span "cegis.verify"
          ~fields:[ ("verifier", Telemetry.str (verifier_name s.verifier)) ]
      in
      match verify ?deadline s code with
      | None ->
          Telemetry.end_span vsp ~fields:[ ("verdict", Telemetry.str "ok") ];
          Done code
      | Some d ->
          (* the witness codeword weight is an upper bound on this
             candidate's minimum distance; keep the candidate that came
             closest to the target as the anytime result *)
          let cw = Bitvec.popcount (Hamming.Code.encode code d) in
          Telemetry.end_span vsp
            ~fields:
              [
                ("verdict", Telemetry.str "cex");
                ("cex_weight", Telemetry.int (Bitvec.popcount d));
                ("cand_weight", Telemetry.int cw);
              ];
          (match s.best with
          | Some (_, b) when b >= cw -> ()
          | _ -> s.best <- Some (code, cw));
          let cex =
            match s.cex_mode with
            | Data_word -> Cex_data d
            | Whole_candidate -> Cex_candidate code
          in
          (* its own span, so [trace report] shows the encoding of the
             new counterexample as a phase instead of folding it into
             cegis.loop *)
          if Telemetry.enabled () then
            Telemetry.span "cegis.learn" (fun () -> learn s cex)
          else learn s cex;
          Progress cex
      | exception e ->
          Telemetry.end_span vsp ~fields:[ ("verdict", Telemetry.str "aborted") ];
          raise e)

let m_iterations = Telemetry.Metrics.counter "cegis.iterations"

let step ?deadline s =
  s.iterations <- s.iterations + 1;
  Telemetry.Metrics.incr m_iterations 1;
  if not (Telemetry.enabled ()) then step_body ?deadline s
  else
    Telemetry.span "cegis.iteration"
      ~fields:[ ("iter", Telemetry.int s.iterations) ]
      (fun () -> step_body ?deadline s)

let synthesize ?(timeout = 120.0) ?(cex_mode = Data_word)
    ?(verifier = Combinatorial) ?(encoding = Card.Sequential) ?seed ?interrupt
    ?initial ?on_progress problem =
  let s =
    create_session ~cex_mode ~verifier ~encoding ?seed ?interrupt ?initial
      problem
  in
  let deadline = s.start +. timeout in
  (* the anytime outcome when a budget or interrupt cuts the run short *)
  let out_of_budget () =
    match s.best with
    | Some (code, _) -> Report.Partial (code, session_stats s)
    | None -> Report.Timed_out (session_stats s)
  in
  (* [Interrupted] with no genuinely-firing interrupt installed is spurious
     (fault injection, or a stale solver hook): the solver state is intact,
     so retry the step rather than abort the run *)
  let genuine_interrupt () =
    match s.interrupt with Some f -> f () | None -> false
  in
  let rec loop () =
    (* poll the budget here too: small instances can run whole iterations
       without the solvers ever reaching an interrupt poll point; a zero
       budget is spent before the first step, even within one clock tick *)
    if Unix.gettimeofday () >= deadline || genuine_interrupt () then
      out_of_budget ()
    else
      match step ~deadline s with
      | Exhausted -> Report.Unsat_config (session_stats s)
      | Done code -> Report.Synthesized (code, session_stats s)
      | Progress cex ->
          (match on_progress with Some f -> f s cex | None -> ());
          loop ()
      | exception Ctx.Timeout -> out_of_budget ()
      | exception Ctx.Interrupted ->
          if genuine_interrupt () then out_of_budget () else loop ()
  in
  loop ()
