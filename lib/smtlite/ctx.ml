type result = Sat | Unsat

exception Timeout
exception Interrupted = Sat.Solver.Interrupted

(* Expr uids and variable indices are ints: key them by [Int], not
   through the polymorphic hash and compare. *)
module Itbl = Hashtbl.Make (Int)

type t = {
  solver : Sat.Solver.t;
  lit_cache : Sat.Lit.t Itbl.t; (* Expr uid -> defining literal *)
  xor_cache : Sat.Lit.t Itbl.t; (* ordered literal pair -> defining literal *)
  var_map : int Itbl.t; (* Expr variable index -> solver var *)
  mutable true_lit : Sat.Lit.t option;
  mutable selectors : Sat.Lit.t list; (* innermost first *)
  mutable last_sat : bool;
}

let create ?(proof = false) () =
  let solver = Sat.Solver.create () in
  if proof then Sat.Solver.enable_proof solver;
  {
    solver;
    (* small to start: most contexts are short optimize probes, and the
       tables grow with the problem *)
    lit_cache = Itbl.create 256;
    xor_cache = Itbl.create 256;
    var_map = Itbl.create 64;
    true_lit = None;
    selectors = [];
    last_sat = false;
  }

let solver ctx = ctx.solver

let certificate ctx =
  match Sat.Solver.proof ctx.solver with
  | None -> None
  | Some proof -> Some (Sat.Solver.original_clauses ctx.solver, proof)
let stats ctx = Sat.Solver.stats ctx.solver
let learnt_histogram ctx = Sat.Solver.learnt_size_histogram ctx.solver
let level ctx = List.length ctx.selectors
let set_seed ctx seed = Sat.Solver.set_seed ctx.solver seed
let set_interrupt ctx f = Sat.Solver.set_interrupt ctx.solver f

let fresh_lit ctx = Sat.Lit.make (Sat.Solver.new_var ctx.solver)

let true_lit ctx =
  match ctx.true_lit with
  | Some l -> l
  | None ->
      let l = fresh_lit ctx in
      Sat.Solver.add_clause ctx.solver [ l ];
      ctx.true_lit <- Some l;
      l

let solver_var ctx i =
  match Itbl.find_opt ctx.var_map i with
  | Some v -> v
  | None ->
      let v = Sat.Solver.new_var ctx.solver in
      Itbl.add ctx.var_map i v;
      v

(* Definitional clauses carry no selector: they define fresh variables and
   remain valid across pop. *)
let define ctx lits = Sat.Solver.add_clause ctx.solver lits

(* Tseitin translation with per-context memoization.  Negation reuses the
   child's literal; all other connectives get a defining variable with a
   full (both-polarity) encoding. *)
let rec lit ctx e =
  match Itbl.find_opt ctx.lit_cache (Expr.id e) with
  | Some l -> l
  | None ->
      let l =
        match Expr.node e with
        | Expr.True -> true_lit ctx
        | Expr.Var i -> Sat.Lit.make (solver_var ctx i)
        | Expr.Not x -> Sat.Lit.neg (lit ctx x)
        | Expr.And es ->
            let ls = List.map (lit ctx) es in
            let y = fresh_lit ctx in
            List.iter (fun l -> define ctx [ Sat.Lit.neg y; l ]) ls;
            define ctx (y :: List.map Sat.Lit.neg ls);
            y
        | Expr.Or es ->
            let ls = List.map (lit ctx) es in
            let y = fresh_lit ctx in
            List.iter (fun l -> define ctx [ y; Sat.Lit.neg l ]) ls;
            define ctx (Sat.Lit.neg y :: ls);
            y
        | Expr.Xor (a, b) ->
            let la = lit ctx a and lb = lit ctx b in
            let y = fresh_lit ctx in
            let n = Sat.Lit.neg in
            define ctx [ n y; la; lb ];
            define ctx [ n y; n la; n lb ];
            define ctx [ y; la; n lb ];
            define ctx [ y; n la; lb ];
            y
        | Expr.Ite (c, a, b) ->
            let lc = lit ctx c and la = lit ctx a and lb = lit ctx b in
            let y = fresh_lit ctx in
            let n = Sat.Lit.neg in
            define ctx [ n y; n lc; la ];
            define ctx [ n y; lc; lb ];
            define ctx [ y; n lc; n la ];
            define ctx [ y; lc; n lb ];
            y
      in
      Itbl.add ctx.lit_cache (Expr.id e) l;
      l

let push ctx =
  let s = fresh_lit ctx in
  ctx.selectors <- s :: ctx.selectors

let pop ctx =
  match ctx.selectors with
  | [] -> invalid_arg "Ctx.pop: empty assertion stack"
  | s :: rest ->
      (* permanently disable every clause guarded by this selector *)
      Sat.Solver.add_clause ctx.solver [ Sat.Lit.neg s ];
      ctx.selectors <- rest

(* A unit clause for [l], guarded by the innermost selector inside a
   push. *)
let assert_lit ctx l =
  ctx.last_sat <- false;
  let clause =
    match ctx.selectors with [] -> [ l ] | s :: _ -> [ Sat.Lit.neg s; l ]
  in
  Sat.Solver.add_clause ctx.solver clause

(* Assert an expression at the current level.  Top-level conjunctions are
   split; every other conjunct, a top-level disjunction included, gets its
   Tseitin literal, asserted as a unit clause. *)
let rec assert_ ctx e =
  match Expr.node e with
  | Expr.And es -> List.iter (assert_ ctx) es
  | _ -> assert_lit ctx (lit ctx e)

(* The literal pair is ordered before the lookup, so [xor a b] and
   [xor b a] share one defining literal.  Literal codes stay far below
   2^31, so the packed key is exact. *)
let xor ctx a b =
  let a, b = if Sat.Lit.code a <= Sat.Lit.code b then (a, b) else (b, a) in
  let key = (Sat.Lit.code a lsl 31) lor Sat.Lit.code b in
  match Itbl.find_opt ctx.xor_cache key with
  | Some y -> y
  | None ->
      let y = fresh_lit ctx in
      let n = Sat.Lit.neg in
      define ctx [ n y; a; b ];
      define ctx [ n y; n a; n b ];
      define ctx [ y; a; n b ];
      define ctx [ y; n a; b ];
      Itbl.add ctx.xor_cache key y;
      y

(* One-sided sequential counter (Sinz, CP 2005).  With x_1..x_n the
   inputs, r(i,j) reads "at least j of x_1..x_i" and gets only the two
   clauses that push it down a column:
     r(i,j) -> r(i-1,j) \/ x_i,   r(i,j) -> r(i-1,j) \/ r(i-1,j-1),
   where r(i-1,j) is false for j > i-1 and r(i-1,0) is true.  Only the
   r(i,j) that r(n,k) can reach exist: max 1 (k-n+i) <= j <= min i k.
   The definitions are unguarded (they constrain fresh variables only);
   the root unit r(n,k) alone carries the selector. *)
let at_least ctx lits k =
  let x = Array.of_list lits in
  let n = Array.length x in
  if k > n then assert_lit ctx (lit ctx Expr.false_)
  else if k > 0 then begin
    Card.encode_point Card.Sequential ~op:"at_least" ~n ~k;
    (* r.(j) is r(i,j) of the row last built; descending j reads r(i-1,j)
       and r(i-1,j-1) before they are overwritten.  The fill is never
       read. *)
    let r = Array.make (k + 1) x.(0) in
    for i = 1 to n do
      for j = min i k downto max 1 (k - n + i) do
        let y = fresh_lit ctx in
        let below = if j <= i - 1 then [ r.(j) ] else [] in
        define ctx (Sat.Lit.neg y :: x.(i - 1) :: below);
        if j > 1 then define ctx (Sat.Lit.neg y :: r.(j - 1) :: below);
        r.(j) <- y
      done
    done;
    assert_lit ctx r.(k)
  end

(* A deadline is polled where the solver already polls its interrupt
   (every 64 conflicts and 1024 decisions), never by re-entering the
   solver, which would reset its restart schedule and learnt-clause limit:
   a bounded check follows exactly the search of an unbounded one.  The
   caller's own interrupt is asked first and still surfaces as
   [Interrupted]; only an expired deadline becomes [Timeout]. *)
let check_body ?deadline ?(assumptions = []) ctx =
  Sat.Solver.probe "ctx.check";
  ctx.last_sat <- false;
  let assumption_lits =
    ctx.selectors @ List.map (lit ctx) assumptions
  in
  let solve () =
    match Sat.Solver.solve ~assumptions:assumption_lits ctx.solver with
    | Sat.Solver.Sat ->
        ctx.last_sat <- true;
        Sat
    | Sat.Solver.Unsat -> Unsat
  in
  match deadline with
  | None -> solve ()
  | Some d when Unix.gettimeofday () > d -> raise Timeout
  | Some d ->
      let user = Sat.Solver.interrupt ctx.solver in
      let expired = ref false in
      Sat.Solver.set_interrupt ctx.solver
        (Some
           (fun () ->
             (match user with Some f -> f () | None -> false)
             || begin
                  expired := Unix.gettimeofday () > d;
                  !expired
                end));
      Fun.protect
        ~finally:(fun () -> Sat.Solver.set_interrupt ctx.solver user)
        (fun () -> try solve () with Interrupted when !expired -> raise Timeout)

(* Each check becomes a [ctx.check] span; the Tseitin translation of the
   assumption expressions happens inside it, so the reported new_vars /
   new_clauses deltas are the encoding cost of this query (the enclosed
   [sat.solve] span carries the search statistics). *)
let m_checks = Telemetry.Metrics.counter "smtlite.checks"
let m_aux_vars = Telemetry.Metrics.counter "smtlite.aux_vars"
let m_aux_clauses = Telemetry.Metrics.counter "smtlite.aux_clauses"

let check ?deadline ?assumptions ctx =
  if not (Telemetry.enabled ()) then check_body ?deadline ?assumptions ctx
  else begin
    let vars0 = Sat.Solver.nvars ctx.solver in
    let clauses0 = Sat.Solver.nclauses ctx.solver in
    let sp =
      Telemetry.begin_span "ctx.check"
        ~fields:[ ("level", Telemetry.int (List.length ctx.selectors)) ]
    in
    let finish result =
      Telemetry.Metrics.incr m_checks 1;
      Telemetry.Metrics.incr m_aux_vars (Sat.Solver.nvars ctx.solver - vars0);
      Telemetry.Metrics.incr m_aux_clauses
        (Sat.Solver.nclauses ctx.solver - clauses0);
      Telemetry.end_span sp
        ~fields:
          [
            ("result", Telemetry.str result);
            ( "new_vars",
              Telemetry.int (Sat.Solver.nvars ctx.solver - vars0) );
            ( "new_clauses",
              Telemetry.int (Sat.Solver.nclauses ctx.solver - clauses0) );
          ]
    in
    match check_body ?deadline ?assumptions ctx with
    | Sat ->
        finish "sat";
        Sat
    | Unsat ->
        finish "unsat";
        Unsat
    | exception Timeout ->
        finish "timeout";
        raise Timeout
    | exception Interrupted ->
        finish "interrupted";
        raise Interrupted
  end

let enumerate ?limit ctx ~over f =
  push ctx;
  (* force Tseitin definitions up front so models cover these literals *)
  let lits = List.map (lit ctx) over in
  let count = ref 0 in
  let continue_enum = ref true in
  while
    !continue_enum
    && (match limit with Some l -> !count < l | None -> true)
  do
    match check ctx with
    | Unsat -> continue_enum := false
    | Sat ->
        let values = List.map (Sat.Solver.value ctx.solver) lits in
        f values;
        incr count;
        (* block this projection *)
        let blocking =
          Expr.or_
            (List.map2
               (fun e v -> if v then Expr.not_ e else e)
               over values)
        in
        if Expr.is_false blocking then continue_enum := false
        else assert_ ctx blocking
  done;
  pop ctx;
  !count

let model_bool ctx e =
  if not ctx.last_sat then invalid_arg "Ctx.model_bool: no model available";
  let value_of_var i =
    match Itbl.find_opt ctx.var_map i with
    | Some v -> Sat.Solver.value_var ctx.solver v
    | None -> false
  in
  (* Prefer the cached Tseitin literal (exact), fall back to structural
     evaluation for expressions the solver never saw. *)
  match Itbl.find_opt ctx.lit_cache (Expr.id e) with
  | Some l -> Sat.Solver.value ctx.solver l
  | None -> Expr.eval value_of_var e

let model_bv ctx v =
  if not ctx.last_sat then invalid_arg "Ctx.model_bv: no model available";
  let acc = ref 0 in
  Array.iteri (fun i b -> if model_bool ctx b then acc := !acc lor (1 lsl i)) v;
  !acc
