(* Tests for the CDCL SAT solver, including differential testing against the
   exhaustive reference procedure. *)

open Sat

let qtest = QCheck_alcotest.to_alcotest
let lit v = Lit.make v
let nlit v = Lit.neg (Lit.make v)

let solve_clauses num_vars clauses =
  let s = Solver.create () in
  ignore (Solver.new_vars s num_vars);
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

(* ---------- unit tests ---------- *)

let test_trivial_sat () =
  let s, r = solve_clauses 1 [ [ lit 0 ] ] in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  Alcotest.(check bool) "value" true (Solver.value s (lit 0))

let test_trivial_unsat () =
  let _, r = solve_clauses 1 [ [ lit 0 ]; [ nlit 0 ] ] in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "not ok" false (Solver.ok s);
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_no_clauses () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 5);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_unit_propagation_chain () =
  (* x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) ∧ ... forces all true *)
  let n = 50 in
  let clauses =
    [ lit 0 ] :: List.init (n - 1) (fun i -> [ nlit i; lit (i + 1) ])
  in
  let s, r = solve_clauses n clauses in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "x%d" i) true (Solver.value s (lit i))
  done

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT needing real search *)
  let var p h = (p * 2) + h in
  let clauses =
    (* each pigeon in some hole *)
    List.init 3 (fun p -> [ lit (var p 0); lit (var p 1) ])
    @ (* no two pigeons share a hole *)
    List.concat_map
      (fun h ->
        [ [ nlit (var 0 h); nlit (var 1 h) ];
          [ nlit (var 0 h); nlit (var 2 h) ];
          [ nlit (var 1 h); nlit (var 2 h) ] ])
      [ 0; 1 ]
  in
  let _, r = solve_clauses 6 clauses in
  Alcotest.(check bool) "php(3,2) unsat" true (r = Solver.Unsat)

let test_pigeonhole_5_4 () =
  let pigeons = 5 and holes = 4 in
  let var p h = (p * holes) + h in
  let clauses =
    List.init pigeons (fun p -> List.init holes (fun h -> lit (var p h)))
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun p1 ->
              List.filter_map
                (fun p2 ->
                  if p1 < p2 then Some [ nlit (var p1 h); nlit (var p2 h) ] else None)
                (List.init pigeons Fun.id))
            (List.init pigeons Fun.id))
        (List.init holes Fun.id)
  in
  let _, r = solve_clauses (pigeons * holes) clauses in
  Alcotest.(check bool) "php(5,4) unsat" true (r = Solver.Unsat)

let test_incremental_solving () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 3);
  Solver.add_clause s [ lit 0; lit 1 ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ nlit 0 ];
  Alcotest.(check bool) "sat 2" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x1 forced" true (Solver.value s (lit 1));
  Solver.add_clause s [ nlit 1 ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "stays unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 2);
  Solver.add_clause s [ lit 0; lit 1 ];
  Alcotest.(check bool) "sat under ~x0 ~x1?" true
    (Solver.solve ~assumptions:[ nlit 0; nlit 1 ] s = Solver.Unsat);
  Alcotest.(check bool) "sat under ~x0" true
    (Solver.solve ~assumptions:[ nlit 0 ] s = Solver.Sat);
  Alcotest.(check bool) "x1 true under ~x0" true (Solver.value s (lit 1));
  (* assumptions do not persist *)
  Alcotest.(check bool) "still sat with none" true (Solver.solve s = Solver.Sat)

let test_assumption_of_forced_false () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 2);
  Solver.add_clause s [ nlit 0 ];
  Alcotest.(check bool) "assume forced-false var" true
    (Solver.solve ~assumptions:[ lit 0 ] s = Solver.Unsat);
  Alcotest.(check bool) "assume its negation" true
    (Solver.solve ~assumptions:[ nlit 0 ] s = Solver.Sat)

let test_tautology_ignored () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 1);
  Solver.add_clause s [ lit 0; nlit 0 ];
  Alcotest.(check int) "no clause stored" 0 (Solver.nclauses s);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_duplicate_literals () =
  let s, r = solve_clauses 2 [ [ lit 0; lit 0; lit 1 ]; [ nlit 0 ]; [ nlit 1; nlit 1 ] ] in
  ignore s;
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat)

let test_unallocated_variable_rejected () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Alcotest.check_raises "unallocated"
    (Invalid_argument "Solver.add_clause: variable 3 not allocated") (fun () ->
      Solver.add_clause s [ lit 3 ])

(* A satisfiable instance that exercises learning: random 3-CNF under the
   phase-transition density. *)
let test_random_3cnf_sat_models_valid () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 20 do
    let n = 30 in
    let m = 90 in
    let clauses =
      List.init m (fun _ ->
          List.init 3 (fun _ ->
              let v = Random.State.int st n in
              if Random.State.bool st then lit v else nlit v))
    in
    let s, r = solve_clauses n clauses in
    match r with
    | Solver.Sat ->
        let model = Solver.model s in
        List.iter
          (fun c ->
            Alcotest.(check bool) "clause satisfied" true (Reference.eval model c))
          clauses
    | Solver.Unsat -> ()
  done

(* ---------- DIMACS ---------- *)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Dimacs.parse text in
  Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses);
  let cnf2 = Dimacs.parse (Dimacs.print cnf) in
  Alcotest.(check bool) "round trip" true (cnf = cnf2)

let test_dimacs_multiline_clause () =
  let cnf = Dimacs.parse "p cnf 2 1\n1\n-2 0\n" in
  Alcotest.(check int) "one clause" 1 (List.length cnf.Dimacs.clauses)

let test_dimacs_load () =
  let cnf = Dimacs.parse "p cnf 2 2\n1 2 0\n-1 0\n" in
  let s = Solver.create () in
  Dimacs.load_into s cnf;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x2" true (Solver.value s (lit 1))

let test_dimacs_rejects_malformed () =
  let rejected name text =
    match Dimacs.parse text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: malformed input accepted" name
  in
  rejected "missing header" "1 2 0\n";
  rejected "clause before header" "1 0\np cnf 2 1\n";
  rejected "duplicate header" "p cnf 2 1\np cnf 2 1\n1 0\n";
  rejected "bad token" "p cnf 2 1\n1 x 0\n";
  rejected "non-numeric var count" "p cnf two 1\n1 0\n";
  rejected "negative var count" "p cnf -2 1\n1 0\n";
  rejected "truncated header" "p cnf 2\n1 0\n";
  rejected "literal above declared count" "p cnf 2 1\n1 3 0\n";
  rejected "negative literal above count" "p cnf 2 1\n-3 0\n";
  rejected "unterminated clause" "p cnf 2 1\n1 2\n"

let test_dimacs_corpus_roundtrip () =
  (* the generated corpus (committed under bench/dimacs/) must survive
     print-then-parse bit-for-bit *)
  List.iter
    (fun (name, cnf) ->
      let cnf2 = Dimacs.parse (Dimacs.print cnf) in
      Alcotest.(check bool) (name ^ " round trip") true (cnf = cnf2))
    (Gen.default_corpus ())

let test_gen_corpus_pinned () =
  (* bench/dimacs/*.cnf is generated output: pin the generator so the
     committed files cannot silently drift (regenerate with
     `dune exec bench/gen_corpus.exe` if this is changed on purpose) *)
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, cnf) ->
      Buffer.add_string buf name;
      Buffer.add_string buf (Dimacs.print cnf))
    (Gen.default_corpus ());
  Alcotest.(check string)
    "corpus digest" "74a06108614f725a6f935de6ef85e3b6"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------- reference procedure ---------- *)

let test_reference_rejects_out_of_range () =
  Alcotest.check_raises "solve"
    (Invalid_argument "Reference: variable 5 not allocated (num_vars = 2)")
    (fun () -> ignore (Reference.solve ~num_vars:2 [ [ lit 0 ]; [ lit 5 ] ]));
  Alcotest.check_raises "count_models"
    (Invalid_argument "Reference: variable 0 not allocated (num_vars = 0)")
    (fun () -> ignore (Reference.count_models ~num_vars:0 [ [ nlit 0 ] ]))

(* ---------- DRAT proofs ---------- *)

let test_drat_simple_unsat_proof () =
  let s = Solver.create () in
  Solver.enable_proof s;
  ignore (Solver.new_vars s 2);
  let clauses = [ [ lit 0; lit 1 ]; [ nlit 0; lit 1 ]; [ lit 0; nlit 1 ]; [ nlit 0; nlit 1 ] ] in
  List.iter (Solver.add_clause s) clauses;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  match Solver.proof s with
  | None -> Alcotest.fail "expected a proof"
  | Some text -> (
      match Drat.check ~formula:clauses text with
      | Drat.Valid -> ()
      | Drat.Invalid msg -> Alcotest.fail msg)

let test_drat_pigeonhole_proof () =
  let pigeons = 5 and holes = 4 in
  let var p h = (p * holes) + h in
  let clauses =
    List.init pigeons (fun p -> List.init holes (fun h -> lit (var p h)))
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun p1 ->
              List.filter_map
                (fun p2 ->
                  if p1 < p2 then Some [ nlit (var p1 h); nlit (var p2 h) ] else None)
                (List.init pigeons Fun.id))
            (List.init pigeons Fun.id))
        (List.init holes Fun.id)
  in
  let s = Solver.create () in
  Solver.enable_proof s;
  ignore (Solver.new_vars s (pigeons * holes));
  List.iter (Solver.add_clause s) clauses;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  match Solver.proof s with
  | None -> Alcotest.fail "expected a proof"
  | Some text -> (
      match Drat.check ~formula:clauses text with
      | Drat.Valid -> ()
      | Drat.Invalid msg -> Alcotest.fail msg)

let test_drat_rejects_bogus_proof () =
  (* claiming an arbitrary unit out of thin air must fail RUP *)
  let formula = [ [ lit 0; lit 1 ] ] in
  match Drat.check ~formula "-1 0\n1 0\n0\n" with
  | Drat.Invalid _ -> ()
  | Drat.Valid -> Alcotest.fail "bogus proof accepted"

let test_drat_requires_empty_clause () =
  let formula = [ [ lit 0 ]; [ nlit 0; lit 1 ] ] in
  (* "2 0" is RUP here, but no empty clause is ever derived *)
  match Drat.check ~formula "2 0\n" with
  | Drat.Invalid msg ->
      Alcotest.(check bool) "mentions empty clause" true
        (String.length msg > 0)
  | Drat.Valid -> Alcotest.fail "incomplete proof accepted"

let test_drat_parse_roundtrip () =
  let steps = Drat.parse "1 -2 0\nd 3 0\n0\n" in
  Alcotest.(check int) "three steps" 3 (List.length steps);
  match steps with
  | [ (true, [ a; b ]); (false, [ c ]); (true, []) ] ->
      Alcotest.(check int) "lit 1" 1 (Lit.to_dimacs a);
      Alcotest.(check int) "lit -2" (-2) (Lit.to_dimacs b);
      Alcotest.(check int) "lit 3" 3 (Lit.to_dimacs c)
  | _ -> Alcotest.fail "unexpected parse"

(* ---------- differential property tests ---------- *)

let arb_cnf =
  let gen =
    QCheck.Gen.(
      int_range 1 10 >>= fun n ->
      int_range 0 40 >>= fun m ->
      let gen_lit = map2 (fun v s -> if s then lit v else nlit v) (int_range 0 (n - 1)) bool in
      let gen_clause = int_range 1 4 >>= fun k -> list_repeat k gen_lit in
      map (fun cls -> (n, cls)) (list_repeat m gen_clause))
  in
  let print (n, cls) =
    Printf.sprintf "vars=%d %s" n
      (String.concat " & "
         (List.map
            (fun c ->
              "(" ^ String.concat "|" (List.map (fun l -> string_of_int (Lit.to_dimacs l)) c) ^ ")")
            cls))
  in
  QCheck.make ~print gen

let prop_drat_proofs_validate =
  QCheck.Test.make ~name:"every UNSAT answer carries a valid DRAT proof" ~count:300
    arb_cnf
    (fun (n, clauses) ->
      let s = Solver.create () in
      Solver.enable_proof s;
      ignore (Solver.new_vars s n);
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat -> true
      | Solver.Unsat -> (
          match Solver.proof s with
          | None -> false
          | Some text -> Drat.check ~formula:clauses text = Drat.Valid))

let prop_agrees_with_reference =
  QCheck.Test.make ~name:"CDCL agrees with exhaustive reference" ~count:500 arb_cnf
    (fun (n, clauses) ->
      let _, r = solve_clauses n clauses in
      let expected = Reference.solve ~num_vars:n clauses in
      match (r, expected) with
      | Solver.Sat, Some _ -> true
      | Solver.Unsat, None -> true
      | _ -> false)

let prop_sat_model_satisfies =
  QCheck.Test.make ~name:"returned model satisfies all clauses" ~count:500 arb_cnf
    (fun (n, clauses) ->
      let s, r = solve_clauses n clauses in
      match r with
      | Solver.Unsat -> true
      | Solver.Sat ->
          let model = Solver.model s in
          List.for_all (Reference.eval model) clauses)

let prop_assumptions_consistent =
  QCheck.Test.make ~name:"solve under assumptions = solve with units" ~count:300
    (QCheck.pair arb_cnf QCheck.small_int)
    (fun ((n, clauses), seed) ->
      let st = Random.State.make [| seed |] in
      let assumptions =
        List.init (1 + Random.State.int st 3) (fun _ ->
            let v = Random.State.int st n in
            if Random.State.bool st then lit v else nlit v)
      in
      let s, _ = solve_clauses n clauses in
      let r1 = Solver.solve ~assumptions s in
      let r2 =
        let _, r = solve_clauses n (clauses @ List.map (fun l -> [ l ]) assumptions) in
        r
      in
      r1 = r2)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"Dimacs.parse ∘ print is the identity" ~count:300 arb_cnf
    (fun (n, clauses) ->
      let cnf = { Dimacs.num_vars = n; clauses } in
      Dimacs.parse (Dimacs.print cnf) = cnf)

(* Structural invariant of the two-watched-literal scheme, checked by the
   solver's own auditor at the propagation fixpoint [solve] leaves behind:
   every live clause is watched exactly once under each of its first two
   literals, and a falsified watch forces the other watch true. *)
let prop_watcher_invariant =
  QCheck.Test.make ~name:"watcher invariant holds after solve" ~count:300
    arb_cnf
    (fun (n, clauses) ->
      let s, _ = solve_clauses n clauses in
      match Solver.self_check s with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let sorted_clauses s =
  let acc = ref [] in
  Solver.iter_clauses s (fun c ->
      acc := List.sort compare (List.map Lit.code c) :: !acc);
  List.sort compare !acc

(* Arena compaction is semantically a no-op: the stored clauses are
   unchanged (as a multiset), invariants still hold, and subsequent
   solves — including under assumptions, exercising the remapped
   watchers — agree with the exhaustive reference. *)
let prop_compaction_preserves_models =
  QCheck.Test.make ~name:"arena compaction preserves model equivalence"
    ~count:300
    (QCheck.pair arb_cnf QCheck.small_int)
    (fun ((n, clauses), seed) ->
      let s, r1 = solve_clauses n clauses in
      let before = sorted_clauses s in
      Solver.compact s;
      let after = sorted_clauses s in
      if before <> after then QCheck.Test.fail_report "clause store changed";
      (match Solver.self_check s with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report msg);
      let r2 = Solver.solve s in
      if r1 <> r2 then QCheck.Test.fail_report "answer changed after compaction";
      let st = Random.State.make [| seed |] in
      let a =
        let v = Random.State.int st n in
        if Random.State.bool st then lit v else nlit v
      in
      let got = Solver.solve ~assumptions:[ a ] s in
      let expected =
        match Reference.solve ~num_vars:n ([ a ] :: clauses) with
        | Some _ -> Solver.Sat
        | None -> Solver.Unsat
      in
      got = expected)

(* The tuning knobs must not change answers: pinning the learnt limit to
   almost nothing (constant reduction + arena churn) and running
   inprocessing at every restart still agrees with the reference, and
   stats record the work. *)
let prop_aggressive_knobs_agree =
  QCheck.Test.make ~name:"aggressive reduction/inprocessing agrees" ~count:200
    arb_cnf
    (fun (n, clauses) ->
      let s = Solver.create () in
      Solver.set_reduce_limit s (Some 2);
      Solver.set_inprocess_interval s (Some 1);
      ignore (Solver.new_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let r = Solver.solve s in
      (match Solver.self_check s with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report msg);
      let expected =
        match Reference.solve ~num_vars:n clauses with
        | Some _ -> Solver.Sat
        | None -> Solver.Unsat
      in
      r = expected)

let test_reduce_db_runs () =
  (* php(7,6) generates far more than 2 learnt clauses: with the limit
     pinned the database must be reduced (and the answer unaffected) *)
  let cnf = Gen.pigeonhole ~pigeons:7 ~holes:6 in
  let s = Solver.create () in
  Solver.set_reduce_limit s (Some 2);
  Dimacs.load_into s cnf;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "reductions happened" true (st.Solver.reduces > 0)

let test_inprocessing_subsumes () =
  (* a strict superset clause must be removed by the subsumption pass *)
  let s = Solver.create () in
  Solver.set_inprocess_interval s (Some 1);
  ignore (Solver.new_vars s 6);
  Solver.add_clause s [ lit 0; lit 1 ];
  Solver.add_clause s [ lit 0; lit 1; lit 2 ];
  Solver.add_clause s [ lit 3; lit 4; lit 5 ];
  Alcotest.(check int) "three clauses stored" 3 (Solver.nclauses s);
  (* force enough conflicts that at least one restart (and hence a pass)
     actually runs — php(7,6) needs several hundred *)
  let cnf = Gen.pigeonhole ~pigeons:7 ~holes:6 in
  let base = Solver.new_vars s cnf.Dimacs.num_vars in
  List.iter
    (fun c ->
      Solver.add_clause s
        (List.map
           (fun l ->
             let l' = Lit.make (base + Lit.var l) in
             if Lit.sign l then l' else Lit.neg l')
           c))
    cnf.Dimacs.clauses;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "subsumption happened" true (st.Solver.subsumed > 0)

let test_compaction_under_churn () =
  (* a tiny learnt limit deletes clauses constantly; the arena must be
     garbage-collected rather than grow without bound *)
  let cnf = Gen.random_ksat ~seed:99 ~nvars:120 ~ratio:4.6 () in
  let s = Solver.create () in
  Solver.set_reduce_limit s (Some 8);
  Dimacs.load_into s cnf;
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "compactions happened" true (st.Solver.compactions > 0);
  match Solver.self_check s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* The solver's exact search counters on two corpus instances (see the
   CEGIS pins in test_synth.ml): storage and intake work must not move
   them. *)
let test_corpus_search_pins () =
  let corpus = Gen.default_corpus () in
  List.iter
    (fun (name, want) ->
      let s = Solver.create () in
      Dimacs.load_into s (List.assoc name corpus);
      Alcotest.(check bool) (name ^ " unsat") true (Solver.solve s = Solver.Unsat);
      let st = Solver.stats s in
      Alcotest.(check (list int)) name want
        [ st.Solver.decisions; st.Solver.propagations; st.Solver.conflicts; st.Solver.restarts ])
    [
      ("ksat_v150_r4.2_s1", [ 2_422; 59_088; 2_001; 12 ]);
      ("parity_24_unsat", [ 25_361; 245_061; 16_857; 62 ]);
    ]

(* ---------- allocation pins ---------- *)

(* Words allocated by [f], minor heap and direct major allocations both
   (large arrays skip the minor heap), less what the measurement itself
   costs. *)
let words_allocated f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let w1 = words () in
  f ();
  let w2 = words () in
  (w2 -. w1) -. (w1 -. w0)

let test_new_var_allocates_nothing () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 1000);
  (* the 1001st variable doubles every per-variable array *)
  ignore (Solver.new_var s);
  let w = words_allocated (fun () -> for _ = 1 to 900 do ignore (Solver.new_var s) done) in
  Alcotest.(check (float 0.0)) "words for 900 variables within capacity" 0.0 w

let test_resolve_allocates_no_model () =
  (* every variable fixed at level 0: a solve makes no decisions, so a
     model array of 20000 entries would dwarf anything else it allocates *)
  let n = 20_000 in
  let s = Solver.create () in
  ignore (Solver.new_vars s n);
  for v = 0 to n - 1 do
    Solver.add_clause s [ (if v mod 3 = 0 then nlit v else lit v) ]
  done;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let w = words_allocated (fun () -> ignore (Solver.solve s)) in
  if w > 200.0 then Alcotest.failf "a repeated Sat solve allocated %.0f words" w;
  let m = Solver.model s in
  Alcotest.(check int) "model length" n (Array.length m);
  Alcotest.(check bool) "model values" true (m.(0) = false && m.(1) = true)

let test_add_clause_allocates_only_the_list () =
  let s = Solver.create () in
  ignore (Solver.new_vars s 10);
  Solver.add_clause s [ lit 9 ];
  (* first adds size the watch lists and the clause vector; the pinned
     adds below reuse their room *)
  Solver.add_clause s [ lit 0; nlit 1; lit 2 ];
  Solver.add_clause s [ lit 3; lit 4 ];
  List.iter
    (fun (label, c) ->
      let w = words_allocated (fun () -> Solver.add_clause s c) in
      Alcotest.(check (float 0.0)) label 0.0 w)
    [
      ("ternary", [ lit 2; lit 0; nlit 1 ]);
      ("binary", [ lit 4; lit 3 ]);
      ("repeated and level-0 false literals", [ nlit 9; lit 0; lit 2; nlit 1; lit 0; nlit 9 ]);
    ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let prop_incremental_matches_monolithic =
  QCheck.Test.make ~name:"incremental clause addition matches from-scratch" ~count:200
    arb_cnf
    (fun (n, clauses) ->
      (* add clauses one at a time, re-solving after each addition *)
      let s = Solver.create () in
      ignore (Solver.new_vars s n);
      let ok = ref true in
      List.iteri
        (fun i c ->
          Solver.add_clause s c;
          let r = Solver.solve s in
          let prefix = List.filteri (fun j _ -> j <= i) clauses in
          let expected =
            match Reference.solve ~num_vars:n prefix with
            | Some _ -> Solver.Sat
            | None -> Solver.Unsat
          in
          if r <> expected then ok := false)
        clauses;
      !ok)

let () =
  Alcotest.run "sat"
    [
      ( "solver-unit",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "no clauses" `Quick test_no_clauses;
          Alcotest.test_case "unit propagation chain" `Quick test_unit_propagation_chain;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "pigeonhole 5/4" `Quick test_pigeonhole_5_4;
          Alcotest.test_case "incremental solving" `Quick test_incremental_solving;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "assumption of forced var" `Quick test_assumption_of_forced_false;
          Alcotest.test_case "tautology ignored" `Quick test_tautology_ignored;
          Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
          Alcotest.test_case "unallocated var rejected" `Quick test_unallocated_variable_rejected;
          Alcotest.test_case "random 3-CNF model validity" `Quick test_random_3cnf_sat_models_valid;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "round trip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "multiline clause" `Quick test_dimacs_multiline_clause;
          Alcotest.test_case "load into solver" `Quick test_dimacs_load;
          Alcotest.test_case "rejects malformed input" `Quick test_dimacs_rejects_malformed;
          Alcotest.test_case "corpus round trip" `Quick test_dimacs_corpus_roundtrip;
          Alcotest.test_case "corpus generator pinned" `Quick test_gen_corpus_pinned;
          Alcotest.test_case "corpus search pins" `Quick test_corpus_search_pins;
          qtest prop_dimacs_roundtrip;
        ] );
      ( "reference",
        [
          Alcotest.test_case "rejects out-of-range vars" `Quick
            test_reference_rejects_out_of_range;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "new_var within capacity" `Quick test_new_var_allocates_nothing;
          Alcotest.test_case "repeated Sat solve keeps its model buffer" `Quick
            test_resolve_allocates_no_model;
          Alcotest.test_case "add_clause allocates only the caller's list" `Quick
            test_add_clause_allocates_only_the_list;
        ] );
      ( "solver-internals",
        [
          Alcotest.test_case "reduce_db runs under pinned limit" `Quick test_reduce_db_runs;
          Alcotest.test_case "inprocessing subsumes" `Quick test_inprocessing_subsumes;
          Alcotest.test_case "compaction under churn" `Quick test_compaction_under_churn;
          qtest prop_watcher_invariant;
          qtest prop_compaction_preserves_models;
          qtest prop_aggressive_knobs_agree;
        ] );
      ( "drat",
        [
          Alcotest.test_case "simple unsat proof" `Quick test_drat_simple_unsat_proof;
          Alcotest.test_case "pigeonhole proof" `Quick test_drat_pigeonhole_proof;
          Alcotest.test_case "rejects bogus proof" `Quick test_drat_rejects_bogus_proof;
          Alcotest.test_case "requires empty clause" `Quick test_drat_requires_empty_clause;
          Alcotest.test_case "parse round trip" `Quick test_drat_parse_roundtrip;
          qtest prop_drat_proofs_validate;
        ] );
      ( "solver-props",
        [
          qtest prop_agrees_with_reference;
          qtest prop_sat_model_satisfies;
          qtest prop_assumptions_consistent;
          qtest prop_incremental_matches_monolithic;
        ] );
    ]
