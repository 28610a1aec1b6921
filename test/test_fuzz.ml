(* Seeded randomized cross-check harness.

   Three oracles are compared on randomly generated inputs:
   - the CDCL solver against the exhaustive reference procedure (SAT/UNSAT
     answers must agree; models must satisfy every clause; UNSAT answers
     must come with a DRAT proof the independent checker accepts);
   - the seeded (diversified) solver against the unseeded one — seeds may
     change the search, never the answer;
   - every cardinality encoding against the popcount semantics, by
     exhaustive circuit evaluation.

   The iteration budget is small by default so [dune runtest] stays quick;
   set FEC_FUZZ_ITERS to fuzz harder. *)

open Sat

(* honour FEC_FAULT_SPEC so `make stress` can fuzz under (stall-only)
   fault injection; crash/interrupt faults would break the oracles'
   exception contract, stalls must not change any answer *)
let () = Synth.Fault.init_from_env ()

let default_iters = 2000

let iters =
  match Sys.getenv_opt "FEC_FUZZ_ITERS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> default_iters)
  | None -> default_iters

let lit rng n =
  let l = Lit.make (Channel.Prng.int_below rng n) in
  if Channel.Prng.bits rng ~n:1 = 1 then Lit.neg l else l

(* Random CNF near the 3-SAT phase transition so both answers are common. *)
let gen_cnf rng =
  let n = 3 + Channel.Prng.int_below rng 10 in
  let m = 1 + Channel.Prng.int_below rng (9 * n / 2) in
  let clauses =
    List.init m (fun _ ->
        let len = 1 + Channel.Prng.int_below rng 3 in
        List.init len (fun _ -> lit rng n))
  in
  (n, clauses)

let solve_with ?seed ?configure ~proof n clauses =
  let s = Solver.create () in
  if proof then Solver.enable_proof s;
  (match seed with Some x -> Solver.set_seed s x | None -> ());
  (match configure with Some f -> f s | None -> ());
  ignore (Solver.new_vars s n);
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

(* Forces the hostile regime: the learnt database is capped at two
   clauses (so reduction and arena churn run constantly) and the
   subsumption/strengthening pass fires at every restart. *)
let aggressive s =
  Solver.set_reduce_limit s (Some 2);
  Solver.set_inprocess_interval s (Some 1)

let check_drat ~iteration s =
  match Solver.proof s with
  | None -> Alcotest.fail "proof recording was enabled but no proof"
  | Some proof -> (
      match Drat.check ~formula:(Solver.original_clauses s) proof with
      | Drat.Valid -> ()
      | Drat.Invalid msg ->
          Alcotest.failf "iteration %d: DRAT proof rejected: %s" iteration msg)

let check_invariants ~iteration s =
  match Solver.self_check s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "iteration %d: self_check: %s" iteration msg

let test_cnf_cross_check () =
  let rng = Channel.Prng.create 0xF00D in
  let sat = ref 0 and unsat = ref 0 in
  for i = 1 to iters do
    let n, clauses = gen_cnf rng in
    let reference = Reference.solve ~num_vars:n clauses in
    let s, answer = solve_with ~proof:true n clauses in
    (match (answer, reference) with
    | Solver.Sat, None | Solver.Unsat, Some _ ->
        Alcotest.failf "iteration %d: solver and reference disagree (%d vars, %d clauses)"
          i n (List.length clauses)
    | Solver.Sat, Some _ ->
        incr sat;
        let model = Solver.model s in
        List.iteri
          (fun j c ->
            if not (Reference.eval model c) then
              Alcotest.failf "iteration %d: model falsifies clause %d" i j)
          clauses
    | Solver.Unsat, None ->
        incr unsat;
        check_drat ~iteration:i s);
    check_invariants ~iteration:i s;
    (* a diversification seed must never change the answer *)
    let _, seeded_answer =
      solve_with ~seed:(i * 2654435761) ~proof:false n clauses
    in
    if seeded_answer <> answer then
      Alcotest.failf "iteration %d: seeded solver changed the answer" i;
    (* constant clause-DB reduction + per-restart inprocessing must not
       change the answer, and the DRAT proof must stay valid through the
       subsumption/strengthening rewrites *)
    let s2, hostile_answer = solve_with ~configure:aggressive ~proof:true n clauses in
    if hostile_answer <> answer then
      Alcotest.failf
        "iteration %d: aggressive reduction/inprocessing changed the answer" i;
    check_invariants ~iteration:i s2;
    if hostile_answer = Solver.Unsat then check_drat ~iteration:i s2
  done;
  if !sat = 0 || !unsat = 0 then
    Alcotest.failf "degenerate fuzz distribution: %d sat / %d unsat" !sat !unsat

(* Inprocessing on/off differential: disabling the pass entirely and
   firing it at every restart must agree with the default configuration
   and the reference on the same instances, incrementally re-solved so
   subsumed state carries across solve calls. *)
let test_inprocessing_on_off () =
  let rng = Channel.Prng.create 0x1A7E5 in
  let rounds = max 50 (iters / 4) in
  for i = 1 to rounds do
    let n, clauses = gen_cnf rng in
    let configs =
      [
        ("off", fun s -> Solver.set_inprocess_interval s None);
        ("every-restart", fun s -> Solver.set_inprocess_interval s (Some 1));
        ("default", fun (_ : Solver.t) -> ());
      ]
    in
    let expected =
      match Reference.solve ~num_vars:n clauses with
      | Some _ -> Solver.Sat
      | None -> Solver.Unsat
    in
    List.iter
      (fun (name, configure) ->
        let s, answer = solve_with ~configure ~proof:true n clauses in
        if answer <> expected then
          Alcotest.failf "iteration %d: inprocessing=%s disagrees with reference"
            i name;
        check_invariants ~iteration:i s;
        if answer = Solver.Unsat then check_drat ~iteration:i s;
        (* the solver must stay usable after an inprocessing pass:
           re-solve under a random assumption and cross-check *)
        let a = lit rng n in
        let under_assumption = Solver.solve ~assumptions:[ a ] s in
        let expected' =
          match Reference.solve ~num_vars:n ([ a ] :: clauses) with
          | Some _ -> Solver.Sat
          | None -> Solver.Unsat
        in
        if under_assumption <> expected' then
          Alcotest.failf
            "iteration %d: inprocessing=%s wrong under assumption" i name)
      configs
  done

(* ---------- incremental differential fuzz ---------- *)

(* The CEGIS shape: one solver answers a growing formula.  After every
   answer 1-3 clauses are added, half of them (when there is a model)
   built from the negations of model literals so the last model falsifies
   them; sometimes fresh variables arrive, a clause is a unit, or the
   assumptions change.  [self_check] runs after every call, every answer
   is compared with the reference, every model with every clause and
   assumption, and every assumption-free [Unsat] carries a DRAT proof the
   checker accepts.  This drives the kept trail through each of its
   paths: resumed solves, clauses unit or falsified below the current
   level, out-of-order units and conflicts below the current level. *)
let test_incremental () =
  let rng = Channel.Prng.create 0x1C4E in
  let rounds = max 100 iters in
  let coin k = Channel.Prng.int_below rng k = 0 in
  for i = 1 to rounds do
    let s = Solver.create () in
    Solver.enable_proof s;
    if coin 4 then aggressive s;
    (* these formulas are far below the default resume threshold *)
    if not (coin 4) then Solver.set_resume_min_trail s 0;
    let nv = ref (3 + Channel.Prng.int_below rng 8) in
    ignore (Solver.new_vars s !nv);
    let all = ref [] in
    let check what =
      match Solver.self_check s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "round %d, after %s: self_check: %s" i what msg
    in
    let add c =
      Solver.add_clause s c;
      all := c :: !all;
      check "add_clause"
    in
    let m = 1 + Channel.Prng.int_below rng (3 * !nv) in
    for _ = 1 to m do
      add (List.init (2 + Channel.Prng.int_below rng 2) (fun _ -> lit rng !nv))
    done;
    let assumptions = ref [] and model = ref None and live = ref true in
    let step = ref 0 in
    while !live && !step < 16 do
      incr step;
      let answer = Solver.solve ~assumptions:!assumptions s in
      check "solve";
      let units = List.map (fun a -> [ a ]) !assumptions in
      (match (answer, Reference.solve ~num_vars:!nv (units @ !all)) with
      | Solver.Sat, None | Solver.Unsat, Some _ ->
          Alcotest.failf "round %d, step %d: solver and reference disagree" i !step
      | Solver.Sat, Some _ ->
          let mdl = Solver.model s in
          List.iter
            (fun c ->
              if not (Reference.eval mdl c) then
                Alcotest.failf "round %d, step %d: model falsifies a clause" i !step)
            (units @ !all);
          model := Some mdl
      | Solver.Unsat, None ->
          model := None;
          if !assumptions = [] then begin
            check_drat ~iteration:i s;
            live := false
          end);
      if !live then begin
        if coin 6 then begin
          let k = 1 + Channel.Prng.int_below rng 2 in
          ignore (Solver.new_vars s k);
          nv := !nv + k
        end;
        for _ = 1 to 1 + Channel.Prng.int_below rng 3 do
          let len = if coin 8 then 1 else 2 + Channel.Prng.int_below rng 3 in
          let c =
            match !model with
            | Some mdl when coin 2 ->
                List.init len (fun _ ->
                    let v = Channel.Prng.int_below rng (Array.length mdl) in
                    if mdl.(v) then Lit.neg (Lit.make v) else Lit.make v)
            | _ -> List.init len (fun _ -> lit rng !nv)
          in
          add c
        done;
        if coin 5 then
          assumptions := List.init (Channel.Prng.int_below rng 3) (fun _ -> lit rng !nv)
      end
    done
  done

(* ---------- clause simplification ---------- *)

(* [add_clause] gets clauses in every shape an encoder can hand it:
   repeated literals in any order, a literal next to its own negation, and
   literals already true or false at level 0 because a unit fixed them.
   Half the solvers keep their trail after [Sat], so the clauses also
   arrive against the last model.  [self_check] runs after every call,
   every answer is compared with the reference, every model with every
   clause, and an [Unsat] carries a DRAT proof the checker accepts. *)
let test_add_clause_shapes () =
  let rng = Channel.Prng.create 0xADDC in
  let rounds = max 100 (iters / 2) in
  let below k = Channel.Prng.int_below rng k in
  for i = 1 to rounds do
    let s = Solver.create () in
    Solver.enable_proof s;
    if below 2 = 0 then Solver.set_resume_min_trail s 0;
    let nv = 4 + below 8 in
    ignore (Solver.new_vars s nv);
    let all = ref [] and units = ref [] in
    let add c =
      Solver.add_clause s c;
      all := c :: !all;
      match Solver.self_check s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "round %d: self_check after add_clause: %s" i msg
    in
    let awkward () =
      let base = List.init (1 + below 3) (fun _ -> lit rng nv) in
      let l = List.hd base in
      match below 4 with
      | 0 -> base @ List.rev base
      | 1 -> base @ [ Lit.neg l ] @ base
      | 2 -> (
          match !units with
          | [] -> base
          | us ->
              let u = List.nth us (below (List.length us)) in
              (* true at level 0 (the clause holds) or false (dropped) *)
              (if below 2 = 0 then u else Lit.neg u) :: base)
      | _ -> base
    in
    for _ = 1 to nv do
      add (List.init (2 + below 2) (fun _ -> lit rng nv))
    done;
    for _ = 1 to 1 + below 3 do
      let u = lit rng nv in
      add [ u ];
      units := u :: !units
    done;
    let live = ref true and step = ref 0 in
    while !live && !step < 8 do
      incr step;
      for _ = 1 to 1 + below 4 do
        add (awkward ())
      done;
      let answer = Solver.solve s in
      match (answer, Reference.solve ~num_vars:nv !all) with
      | Solver.Sat, None | Solver.Unsat, Some _ ->
          Alcotest.failf "round %d, step %d: solver and reference disagree" i !step
      | Solver.Sat, Some _ ->
          let mdl = Solver.model s in
          List.iter
            (fun c ->
              if not (Reference.eval mdl c) then
                Alcotest.failf "round %d, step %d: model falsifies a clause" i !step)
            !all
      | Solver.Unsat, None ->
          check_drat ~iteration:i s;
          live := false
    done
  done

(* ---------- clause intake against a kept trail ---------- *)

(* Property form of the intake checks, aimed at the paths the short-clause
   insertion sort does not take and at the model buffer.  Every [Sat]
   keeps its trail ([set_resume_min_trail 0]), and between solves the
   property adds variables and clauses in the shapes below: long ones
   over more than [Solver]'s 16-literal sort cutoff, repeated literals, a
   complementary pair, a literal true or false at level 0, and clauses
   turned against the last model so they land unit or falsified below the
   current level.  Each answer must match a from-scratch solve of the same
   clauses, and each model must have exactly [nvars] entries and satisfy
   every clause. *)
type shape = Plain | Repeated | Complementary | Unit_true | Unit_false

type intake_clause = {
  lits : (int * bool) list;  (** variable, sign *)
  against_model : bool;
  shape : shape;
}

let intake_gen =
  let open QCheck.Gen in
  let clause nv =
    let short = int_range 2 4 >>= fun k -> list_repeat k (pair (int_range 0 (nv - 1)) bool) in
    let long =
      int_range 17 (min 22 nv) >>= fun k ->
      shuffle_l (List.init nv Fun.id) >>= fun vs ->
      flatten_l (List.map (fun v -> map (fun b -> (v, b)) bool) (List.filteri (fun i _ -> i < k) vs))
    in
    frequency [ (3, short); (1, long) ] >>= fun lits ->
    bool >>= fun against_model ->
    oneofl [ Plain; Plain; Repeated; Complementary; Unit_true; Unit_false ] >>= fun shape ->
    return { lits; against_model; shape }
  in
  int_range 18 22 >>= fun nv ->
  list_size (int_range 1 3) (pair (int_range 0 (nv - 1)) bool) >>= fun units ->
  list_size (int_range (2 * nv) (4 * nv)) (clause nv) >>= fun initial ->
  let rec rounds nv n =
    if n = 0 then return []
    else
      int_range 0 2 >>= fun k ->
      list_size (int_range 1 4) (clause (nv + k)) >>= fun cs ->
      rounds (nv + k) (n - 1) >>= fun rest -> return ((k, cs) :: rest)
  in
  int_range 1 6 >>= fun n ->
  rounds nv n >>= fun rs -> return (nv, units, initial, rs)

let intake_arb =
  let print (nv, units, initial, rs) =
    Printf.sprintf "%d vars, %d units, %d initial clauses, rounds adding %s" nv
      (List.length units) (List.length initial)
      (String.concat ", "
         (List.map (fun (k, cs) -> Printf.sprintf "%d vars/%d clauses" k (List.length cs)) rs))
  in
  QCheck.make ~print intake_gen

let prop_intake_against_kept_trail =
  QCheck.Test.make ~count:200 ~name:"clause intake against a kept trail = from-scratch solve"
    intake_arb (fun (nv, units, initial, rounds) ->
      let mk (v, b) = if b then Lit.make v else Lit.neg (Lit.make v) in
      let units = List.map mk units in
      let s = Solver.create () in
      Solver.set_resume_min_trail s 0;
      ignore (Solver.new_vars s nv);
      let all = ref [] and model = ref None in
      let build c =
        let base =
          List.map
            (fun (v, b) ->
              match !model with
              | Some m when c.against_model && v < Array.length m ->
                  if m.(v) then Lit.neg (Lit.make v) else Lit.make v
              | _ -> mk (v, b))
            c.lits
        in
        let u = List.nth units (List.length c.lits mod List.length units) in
        match c.shape with
        | Plain -> base
        | Repeated -> base @ List.rev base
        | Complementary -> base @ [ Lit.neg (List.hd base) ]
        | Unit_true -> u :: base
        | Unit_false -> Lit.neg u :: base
      in
      let add c =
        Solver.add_clause s c;
        all := c :: !all
      in
      List.iter (fun u -> add [ u ]) units;
      List.iter (fun c -> add (build c)) initial;
      let agrees () =
        let answer = Solver.solve s in
        let fresh = Solver.create () in
        ignore (Solver.new_vars fresh (Solver.nvars s));
        List.iter (Solver.add_clause fresh) (List.rev !all);
        if answer <> Solver.solve fresh then false
        else
          match answer with
          | Solver.Unsat ->
              model := None;
              true
          | Solver.Sat ->
              let m = Solver.model s in
              model := Some m;
              Array.length m = Solver.nvars s && List.for_all (Reference.eval m) !all
      in
      let rec go = function
        | [] -> agrees ()
        | (k, cs) :: rest ->
            agrees ()
            && begin
                 if k > 0 then ignore (Solver.new_vars s k);
                 List.iter (fun c -> add (build c)) cs;
                 go rest
               end
      in
      go rounds)

(* ---------- cardinality-encoding agreement ---------- *)

let encodings =
  [
    ("naive", Smtlite.Card.Naive);
    ("pairwise", Smtlite.Card.Pairwise);
    ("sequential", Smtlite.Card.Sequential);
    ("totalizer", Smtlite.Card.Totalizer);
    ("adder", Smtlite.Card.Adder);
  ]

(* Exhaustively evaluate the constraint circuit on every assignment of the
   [n] inputs and compare against popcount semantics. *)
let check_card_semantics ~what ~n ~k build expected =
  let es = List.init n Smtlite.Expr.var in
  List.iter
    (fun (name, enc) ->
      let e = build enc es k in
      for bits = 0 to (1 lsl n) - 1 do
        let assign i = bits land (1 lsl i) <> 0 in
        let pop = ref 0 in
        for i = 0 to n - 1 do
          if assign i then incr pop
        done;
        let got = Smtlite.Expr.eval assign e in
        if got <> expected !pop k then
          Alcotest.failf "%s %s: n=%d k=%d assignment %d: got %b" what name n
            k bits got
      done)
    encodings

let test_card_agreement () =
  let rng = Channel.Prng.create 0xCA4D in
  let rounds = max 20 (iters / 10) in
  for _ = 1 to rounds do
    let n = 1 + Channel.Prng.int_below rng 7 in
    let k = Channel.Prng.int_below rng (n + 3) - 1 in
    check_card_semantics ~what:"at_most" ~n ~k Smtlite.Card.at_most
      (fun pop k -> pop <= k);
    check_card_semantics ~what:"at_least" ~n ~k Smtlite.Card.at_least
      (fun pop k -> pop >= k)
  done

(* The same agreement through the solver: assert the constraint with two
   different encodings in separate contexts under a shared random partial
   assignment; satisfiability must match. *)
let test_card_equisat () =
  let rng = Channel.Prng.create 0x5EED in
  let rounds = max 20 (iters / 10) in
  for round = 1 to rounds do
    let n = 2 + Channel.Prng.int_below rng 8 in
    let k = Channel.Prng.int_below rng (n + 1) in
    let base = 1000 * round in
    let es = List.init n (fun i -> Smtlite.Expr.var (base + i)) in
    (* random forced literals, leaving some variables free *)
    let forced =
      List.filter_map
        (fun e ->
          match Channel.Prng.int_below rng 3 with
          | 0 -> Some e
          | 1 -> Some (Smtlite.Expr.not_ e)
          | _ -> None)
        es
    in
    let result enc constraint_ =
      let ctx = Smtlite.Ctx.create () in
      Smtlite.Ctx.assert_ ctx (constraint_ enc es k);
      List.iter (Smtlite.Ctx.assert_ ctx) forced;
      Smtlite.Ctx.check ctx
    in
    let check what constraint_ =
      let answers =
        List.map (fun (name, enc) -> (name, result enc constraint_)) encodings
      in
      match answers with
      | [] -> ()
      | (ref_name, ref_answer) :: rest ->
          List.iter
            (fun (name, answer) ->
              if answer <> ref_answer then
                Alcotest.failf
                  "round %d: %s disagreement between %s and %s (n=%d k=%d)"
                  round what ref_name name n k)
            rest
    in
    check "at_most" Smtlite.Card.at_most;
    check "at_least" Smtlite.Card.at_least
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "cross-check",
        [
          Alcotest.test_case
            (Printf.sprintf "random CNF x%d: cdcl vs reference vs drat" iters)
            `Slow test_cnf_cross_check;
          Alcotest.test_case "inprocessing on/off agrees with reference" `Slow
            test_inprocessing_on_off;
        ] );
      ( "incremental",
        [
          Alcotest.test_case
            "growing formula: kept trail vs reference vs drat" `Slow
            test_incremental;
        ] );
      ( "add-clause",
        [
          Alcotest.test_case
            "duplicates, tautologies, level-0 literals vs reference" `Quick
            test_add_clause_shapes;
          QCheck_alcotest.to_alcotest prop_intake_against_kept_trail;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "encodings match popcount semantics" `Quick
            test_card_agreement;
          Alcotest.test_case "encodings equisatisfiable under the solver"
            `Quick test_card_equisat;
        ] );
    ]
