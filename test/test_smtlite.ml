(* Tests for the finite-domain SMT layer: expression algebra, Tseitin
   translation, cardinality and pseudo-Boolean encodings, bit-vector
   circuits, and the assertion stack. *)

open Smtlite

let qtest = QCheck_alcotest.to_alcotest

let check_sat ctx = Alcotest.(check bool) "sat" true (Ctx.check ctx = Ctx.Sat)
let check_unsat ctx = Alcotest.(check bool) "unsat" true (Ctx.check ctx = Ctx.Unsat)

(* ---------- Expr smart constructors ---------- *)

let test_expr_constants () =
  Alcotest.(check bool) "not true = false" true (Expr.equal (Expr.not_ Expr.true_) Expr.false_);
  Alcotest.(check bool) "double negation" true
    (Expr.equal (Expr.not_ (Expr.not_ (Expr.var 3))) (Expr.var 3));
  Alcotest.(check bool) "and []" true (Expr.is_true (Expr.and_ []));
  Alcotest.(check bool) "or []" true (Expr.is_false (Expr.or_ []))

let test_expr_simplification () =
  let x = Expr.var 0 and y = Expr.var 1 in
  Alcotest.(check bool) "x and not x" true (Expr.is_false (Expr.and_ [ x; Expr.not_ x ]));
  Alcotest.(check bool) "x or not x" true (Expr.is_true (Expr.or_ [ x; Expr.not_ x ]));
  Alcotest.(check bool) "xor x x" true (Expr.is_false (Expr.xor x x));
  Alcotest.(check bool) "xor canonical order" true
    (Expr.equal (Expr.xor x y) (Expr.xor y x));
  Alcotest.(check bool) "hash consing" true
    (Expr.equal (Expr.and_ [ x; y ]) (Expr.and_ [ y; x ]))

let test_expr_eval () =
  let x = Expr.var 0 and y = Expr.var 1 in
  let e = Expr.ite (Expr.xor x y) (Expr.and_ [ x; y ]) (Expr.or_ [ x; y ]) in
  let ev vx vy = Expr.eval (fun i -> if i = 0 then vx else vy) e in
  Alcotest.(check bool) "00" false (ev false false);
  Alcotest.(check bool) "01" false (ev false true);
  Alcotest.(check bool) "10" false (ev true false);
  Alcotest.(check bool) "11" true (ev true true)

(* ---------- hash-consing scopes ---------- *)

(* built in a function of its own so no stack slot of the caller holds
   the node once the scope has ended *)
let[@inline never] weak_node_in scope =
  let w = Weak.create 1 in
  Expr.with_scope scope (fun () ->
      Weak.set w 0 (Some (Expr.and_ [ Expr.var 900_001; Expr.var 900_002 ])));
  w

let test_scope_collects () =
  let w = weak_node_in (Expr.new_scope ()) in
  Gc.full_major ();
  Alcotest.(check bool) "node of an ended scope collected" false (Weak.check w 0);
  (* the process-wide scope holds its nodes for good: the contrast *)
  let w = weak_node_in (Expr.current_scope ()) in
  Gc.full_major ();
  Alcotest.(check bool) "process-wide node kept" true (Weak.check w 0)

let test_scope_sharing () =
  let outside = Expr.var 7 in
  let scope = Expr.new_scope () in
  Alcotest.(check int) "seeded with the constants" 2 (Expr.scope_size scope);
  Expr.with_scope scope (fun () ->
      Alcotest.(check bool) "not true == false" true (Expr.not_ Expr.true_ == Expr.false_);
      Alcotest.(check bool) "not false == true" true (Expr.not_ Expr.false_ == Expr.true_);
      let x = Expr.var 7 and y = Expr.var 8 in
      Alcotest.(check bool) "structural sharing" true (Expr.and_ [ x; y ] == Expr.and_ [ y; x ]);
      Alcotest.(check bool) "var shared" true (Expr.var 7 == x);
      Alcotest.(check bool) "x and not x" true (Expr.is_false (Expr.and_ [ x; Expr.not_ x ]));
      Alcotest.(check bool) "other scope's node is distinct" false (Expr.equal x outside);
      Alcotest.(check bool) "ids unique across scopes" true (Expr.id x <> Expr.id outside));
  Alcotest.(check bool) "scope grew" true (Expr.scope_size scope > 2);
  Alcotest.(check bool) "previous scope restored" true (Expr.var 7 == outside)

(* [and_]/[or_] add at most the node they return to the scope: deciding
   that two operands are complementary builds no [Not] node *)
let test_connectives_grow_by_result () =
  let scope = Expr.new_scope () in
  Expr.with_scope scope (fun () ->
      let a = Expr.var 0 and b = Expr.var 1 and c = Expr.var 2 in
      let na = Expr.not_ a and nb = Expr.not_ b in
      let x = Expr.xor a c in
      let nx = Expr.not_ x in
      let grows name expected build =
        let before = Expr.scope_size scope in
        let e = build () in
        Alcotest.(check int) name expected (Expr.scope_size scope - before);
        e
      in
      let conj = grows "and of three" 1 (fun () -> Expr.and_ [ a; b; c ]) in
      ignore (grows "same and again" 0 (fun () -> Expr.and_ [ c; b; a ]) : Expr.t);
      Alcotest.(check bool) "shared" true (Expr.and_ [ b; c; a ] == conj);
      ignore (grows "or with a negation" 1 (fun () -> Expr.or_ [ na; b; x ]) : Expr.t);
      ignore (grows "duplicates fold" 0 (fun () -> Expr.or_ [ b; b ]) : Expr.t);
      ignore (grows "constant operands fold" 0 (fun () -> Expr.and_ [ Expr.true_; x ]) : Expr.t);
      let check_const name expected build =
        Alcotest.(check bool) name true (grows name 0 build == expected)
      in
      check_const "a and b and not a" Expr.false_ (fun () -> Expr.and_ [ a; b; na ]);
      check_const "not b or c or b" Expr.true_ (fun () -> Expr.or_ [ nb; c; b ]);
      check_const "xor and its negation" Expr.false_ (fun () -> Expr.and_ [ nx; x ]);
      check_const "or over a negated xor" Expr.true_ (fun () -> Expr.or_ [ x; a; nx ]);
      check_const "and with false" Expr.false_ (fun () -> Expr.and_ [ a; Expr.false_ ]);
      check_const "or with true" Expr.true_ (fun () -> Expr.or_ [ Expr.true_; a ]))

let test_expr_vars_size () =
  let e = Expr.and_ [ Expr.var 5; Expr.xor (Expr.var 2) (Expr.var 5) ] in
  Alcotest.(check (list int)) "vars" [ 2; 5 ] (Expr.vars e);
  Alcotest.(check bool) "size positive" true (Expr.size e > 0)

(* ---------- Tseitin translation soundness ---------- *)

(* random expressions over few vars; solver must agree with brute-force *)
let arb_expr =
  let open QCheck.Gen in
  let nvars = 4 in
  let rec gen depth =
    if depth = 0 then map Expr.var (int_range 0 (nvars - 1))
    else
      frequency
        [
          (2, map Expr.var (int_range 0 (nvars - 1)));
          (1, return Expr.true_);
          (2, map Expr.not_ (gen (depth - 1)));
          (3, map Expr.and_ (list_size (int_range 1 3) (gen (depth - 1))));
          (3, map Expr.or_ (list_size (int_range 1 3) (gen (depth - 1))));
          (2, map2 Expr.xor (gen (depth - 1)) (gen (depth - 1)));
          (2, map3 Expr.ite (gen (depth - 1)) (gen (depth - 1)) (gen (depth - 1)));
        ]
  in
  QCheck.make
    ~print:(fun e -> Format.asprintf "%a" Expr.pp e)
    (int_range 1 4 >>= gen)

let brute_force_sat e =
  let vars = Expr.vars e in
  let n = List.length vars in
  let rec go assignment = function
    | [] -> Expr.eval (fun i -> List.assoc i assignment) e
    | v :: rest ->
        go ((v, false) :: assignment) rest || go ((v, true) :: assignment) rest
  in
  if n = 0 then Expr.eval (fun _ -> false) e else go [] vars

let prop_tseitin_agrees_with_bruteforce =
  QCheck.Test.make ~name:"Tseitin sat agrees with brute force" ~count:500 arb_expr
    (fun e ->
      let ctx = Ctx.create () in
      Ctx.assert_ ctx e;
      (Ctx.check ctx = Ctx.Sat) = brute_force_sat e)

let prop_tseitin_model_evaluates_true =
  QCheck.Test.make ~name:"Tseitin model satisfies the expression" ~count:500 arb_expr
    (fun e ->
      let ctx = Ctx.create () in
      Ctx.assert_ ctx e;
      match Ctx.check ctx with
      | Ctx.Unsat -> true
      | Ctx.Sat -> Ctx.model_bool ctx e)

(* ---------- push / pop ---------- *)

let test_push_pop_basic () =
  let ctx = Ctx.create () in
  let x = Expr.var 0 in
  Ctx.assert_ ctx x;
  check_sat ctx;
  Ctx.push ctx;
  Ctx.assert_ ctx (Expr.not_ x);
  check_unsat ctx;
  Ctx.pop ctx;
  check_sat ctx;
  Alcotest.(check bool) "model respects base assertion" true (Ctx.model_bool ctx x)

let test_push_pop_nested () =
  let ctx = Ctx.create () in
  let x = Expr.var 0 and y = Expr.var 1 in
  Ctx.push ctx;
  Ctx.assert_ ctx (Expr.or_ [ x; y ]);
  Ctx.push ctx;
  Ctx.assert_ ctx (Expr.not_ x);
  Ctx.assert_ ctx (Expr.not_ y);
  check_unsat ctx;
  Ctx.pop ctx;
  check_sat ctx;
  Ctx.pop ctx;
  Alcotest.(check int) "level" 0 (Ctx.level ctx);
  check_sat ctx

let test_pop_empty_raises () =
  let ctx = Ctx.create () in
  Alcotest.check_raises "pop on empty" (Invalid_argument "Ctx.pop: empty assertion stack")
    (fun () -> Ctx.pop ctx)

let test_assumptions_via_check () =
  let ctx = Ctx.create () in
  let x = Expr.var 0 and y = Expr.var 1 in
  Ctx.assert_ ctx (Expr.imp x y);
  Alcotest.(check bool) "sat assuming x" true
    (Ctx.check ~assumptions:[ x ] ctx = Ctx.Sat);
  Alcotest.(check bool) "y forced" true (Ctx.model_bool ctx y);
  Alcotest.(check bool) "unsat assuming x & ~y" true
    (Ctx.check ~assumptions:[ x; Expr.not_ y ] ctx = Ctx.Unsat)

(* ---------- bit-vector circuits ---------- *)

let eval_const bv =
  match Bv.to_int_opt bv with Some x -> x | None -> Alcotest.fail "not constant"

let test_bv_constants () =
  Alcotest.(check int) "of/to int" 37 (eval_const (Bv.of_int ~width:8 37));
  Alcotest.(check int) "add" 100 (eval_const (Bv.add (Bv.of_int ~width:8 63) (Bv.of_int ~width:8 37)));
  Alcotest.(check int) "scale" 111 (eval_const (Bv.scale 37 (Bv.of_int ~width:2 3)));
  Alcotest.(check int) "sum" 10
    (eval_const (Bv.sum [ Bv.of_int ~width:4 1; Bv.of_int ~width:4 2; Bv.of_int ~width:4 3; Bv.of_int ~width:4 4 ]))

let test_bv_compare_constants () =
  let c x = Bv.of_int ~width:8 x in
  Alcotest.(check bool) "3 < 5" true (Expr.is_true (Bv.ult (c 3) (c 5)));
  Alcotest.(check bool) "5 < 3" true (Expr.is_false (Bv.ult (c 5) (c 3)));
  Alcotest.(check bool) "5 <= 5" true (Expr.is_true (Bv.ule (c 5) (c 5)));
  Alcotest.(check bool) "5 = 5" true (Expr.is_true (Bv.eq (c 5) (c 5)));
  Alcotest.(check bool) "4 = 5" true (Expr.is_false (Bv.eq (c 4) (c 5)))

let prop_bv_add_matches_int =
  QCheck.Test.make ~name:"bv add on solver vars matches integers" ~count:100
    (QCheck.pair (QCheck.int_bound 255) (QCheck.int_bound 255))
    (fun (x, y) ->
      (* build symbolic vectors, constrain them to x and y, solve, read sum *)
      let ctx = Ctx.create () in
      let a = Array.init 8 (fun i -> Expr.var i) in
      let b = Array.init 8 (fun i -> Expr.var (8 + i)) in
      Ctx.assert_ ctx (Bv.eq a (Bv.of_int ~width:8 x));
      Ctx.assert_ ctx (Bv.eq b (Bv.of_int ~width:8 y));
      let s = Bv.add a b in
      match Ctx.check ctx with
      | Ctx.Unsat -> false
      | Ctx.Sat -> Ctx.model_bv ctx s = x + y)

let prop_bv_popcount_matches =
  QCheck.Test.make ~name:"bv popcount matches" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 12) QCheck.bool)
    (fun bits ->
      let ctx = Ctx.create () in
      let es = List.mapi (fun i b -> ignore b; Expr.var i) bits in
      List.iteri
        (fun i b -> Ctx.assert_ ctx (if b then Expr.var i else Expr.not_ (Expr.var i)))
        bits;
      let pc = Bv.popcount es in
      match Ctx.check ctx with
      | Ctx.Unsat -> false
      | Ctx.Sat ->
          Ctx.model_bv ctx pc = List.length (List.filter Fun.id bits))

(* ---------- cardinality encodings ---------- *)

let count_true bits = List.length (List.filter Fun.id bits)

let card_case enc name =
  let prop =
    QCheck.Test.make ~name ~count:200
      (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 10) QCheck.bool)
         (QCheck.int_bound 11))
      (fun (bits, k) ->
        let es = List.mapi (fun i _ -> Expr.var i) bits in
        let assignment i = List.nth bits i in
        let am = Card.at_most enc es k in
        let al = Card.at_least enc es k in
        let ex = Card.exactly enc es k in
        let n = count_true bits in
        Expr.eval assignment am = (n <= k)
        && Expr.eval assignment al = (n >= k)
        && Expr.eval assignment ex = (n = k))
  in
  qtest prop

let prop_counts_semantics enc name =
  qtest
    (QCheck.Test.make ~name ~count:200
       (QCheck.list_of_size (QCheck.Gen.int_range 1 10) QCheck.bool)
       (fun bits ->
         let es = List.mapi (fun i _ -> Expr.var i) bits in
         let assignment i = List.nth bits i in
         let c = Card.counts enc es in
         let n = count_true bits in
         Array.to_list c
         |> List.mapi (fun i o -> Expr.eval assignment o = (n >= i + 1))
         |> List.for_all Fun.id))

let prop_card_solver_bound enc name =
  (* solver-side check: at_most k with forced k+1 trues must be UNSAT *)
  qtest
    (QCheck.Test.make ~name ~count:50
       (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_range 0 7))
       (fun (n, k) ->
         let k = min k (n - 1) in
         let ctx = Ctx.create () in
         let es = List.init n Expr.var in
         Ctx.assert_ ctx (Card.at_most enc es k);
         Ctx.assert_ ctx (Card.at_least enc es (k + 1));
         Ctx.check ctx = Ctx.Unsat))

(* ---------- literal-level counters and XOR ---------- *)

(* [Ctx.at_least] against [Card.at_least Naive] under the same random
   assumptions (each input forced true, forced false or free), asserted
   inside a push so the pop must retract it. *)
let prop_ctx_at_least_matches_naive =
  QCheck.Test.make ~name:"Ctx.at_least agrees with the naive encoding" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 10) (int_range 0 2))
        (int_range 0 11))
    (fun (forced, k) ->
      let n = List.length forced in
      let k = min k (n + 1) in
      let es = List.init n Expr.var in
      let assumptions =
        List.concat
          (List.mapi
             (fun i f ->
               match f with 0 -> [ Expr.not_ (Expr.var i) ] | 1 -> [ Expr.var i ] | _ -> [])
             forced)
      in
      let naive = Ctx.create () in
      Ctx.assert_ naive (Card.at_least Card.Naive es k);
      let direct = Ctx.create () in
      Ctx.push direct;
      Ctx.at_least direct (List.map (Ctx.lit direct) es) k;
      let expected = Ctx.check ~assumptions naive in
      let got = Ctx.check ~assumptions direct in
      Ctx.pop direct;
      got = expected
      && expected = (if List.length (List.filter (fun f -> f <> 0) forced) >= k then Ctx.Sat else Ctx.Unsat)
      && Ctx.check ~assumptions direct = Ctx.Sat)

(* Chains over random permutations of random subsets of the inputs share
   prefixes through the memo.  Under inputs forced to random values every
   chain literal is the parity of its inputs, and a chain forced to a value
   forces its inputs' parity to it. *)
let prop_ctx_xor_chain_parity =
  QCheck.Test.make ~name:"Ctx.xor chains are parities" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 8) bool)
        (list_of_size (Gen.int_range 1 6) (list_of_size (Gen.int_range 1 8) (int_bound 7)))
        bool)
    (fun (values, chains, target) ->
      let n = List.length values in
      let ctx = Ctx.create () in
      let solver = Ctx.solver ctx in
      let inputs = Array.init n (fun i -> Ctx.lit ctx (Expr.var i)) in
      let chains = List.map (fun c -> List.sort_uniq compare (List.map (fun i -> i mod n) c)) chains in
      let chain_lit c =
        match c with
        | [] -> assert false
        | i :: rest -> List.fold_left (fun acc j -> Ctx.xor ctx acc inputs.(j)) inputs.(i) rest
      in
      let lits = List.map chain_lit chains in
      let parity value c = List.fold_left (fun acc i -> acc <> value i) false c in
      let forced =
        List.mapi (fun i v -> if v then inputs.(i) else Sat.Lit.neg inputs.(i)) values
      in
      let under_inputs =
        Sat.Solver.solve ~assumptions:forced solver = Sat.Solver.Sat
        && List.for_all2
             (fun c l -> Sat.Solver.value solver l = parity (List.nth values) c)
             chains lits
      in
      let c = List.hd chains and l = List.hd lits in
      let under_chain =
        Sat.Solver.solve ~assumptions:[ (if target then l else Sat.Lit.neg l) ] solver
        = Sat.Solver.Sat
        && parity (fun i -> Sat.Solver.value solver inputs.(i)) c = target
      in
      under_inputs && under_chain)

let test_ctx_xor_memo () =
  let ctx = Ctx.create () in
  let a = Ctx.lit ctx (Expr.var 0) and b = Ctx.lit ctx (Expr.var 1) in
  let y = Ctx.xor ctx a b in
  let solver = Ctx.solver ctx in
  let vars = Sat.Solver.nvars solver and clauses = Sat.Solver.nclauses solver in
  Alcotest.(check bool) "xor a b again" true (Sat.Lit.equal y (Ctx.xor ctx a b));
  Alcotest.(check bool) "xor b a" true (Sat.Lit.equal y (Ctx.xor ctx b a));
  Alcotest.(check (pair int int)) "no variable, no clause added" (vars, clauses)
    (Sat.Solver.nvars solver, Sat.Solver.nclauses solver)

let prop_pb_le_matches =
  QCheck.Test.make ~name:"pb_le matches integer semantics" ~count:300
    (QCheck.triple
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8) (QCheck.int_bound 20))
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8) QCheck.bool)
       (QCheck.int_bound 100))
    (fun (coeffs, bits, k) ->
      let n = min (List.length coeffs) (List.length bits) in
      let coeffs = List.filteri (fun i _ -> i < n) coeffs in
      let bits = List.filteri (fun i _ -> i < n) bits in
      let es = List.mapi (fun i _ -> Expr.var i) bits in
      let assignment i = List.nth bits i in
      let total =
        List.fold_left2 (fun acc c b -> if b then acc + c else acc) 0 coeffs bits
      in
      Expr.eval assignment (Card.pb_le ~coeffs es k) = (total <= k)
      && Expr.eval assignment (Card.pb_ge ~coeffs es k) = (total >= k))

let test_pb_rejects_negative () =
  Alcotest.check_raises "negative coeff" (Invalid_argument "Card.pb_le: negative coefficient")
    (fun () -> ignore (Card.pb_le ~coeffs:[ -1 ] [ Expr.var 0 ] 3))

(* ---------- all-SAT enumeration ---------- *)

let test_enumerate_exactly_k () =
  (* choosing exactly 2 of 5 variables has C(5,2) = 10 solutions *)
  let ctx = Ctx.create () in
  let vars = List.init 5 Expr.var in
  Ctx.assert_ ctx (Card.exactly Card.Sequential vars 2);
  let seen = ref [] in
  let count = Ctx.enumerate ctx ~over:vars (fun v -> seen := v :: !seen) in
  Alcotest.(check int) "C(5,2)" 10 count;
  Alcotest.(check int) "all distinct" 10 (List.length (List.sort_uniq compare !seen));
  List.iter
    (fun v ->
      Alcotest.(check int) "weight 2" 2 (List.length (List.filter Fun.id v)))
    !seen;
  (* the context is unchanged: still satisfiable with all-true blocked etc. *)
  Alcotest.(check bool) "context restored" true (Ctx.check ctx = Ctx.Sat)

let test_enumerate_limit () =
  let ctx = Ctx.create () in
  let vars = List.init 6 Expr.var in
  Ctx.assert_ ctx Expr.true_;
  let count = Ctx.enumerate ~limit:5 ctx ~over:vars (fun _ -> ()) in
  Alcotest.(check int) "limit respected" 5 count

let test_enumerate_unsat () =
  let ctx = Ctx.create () in
  Ctx.assert_ ctx Expr.false_;
  Alcotest.(check int) "no models" 0 (Ctx.enumerate ctx ~over:[ Expr.var 0 ] (fun _ -> ()))

let prop_enumerate_counts_match_reference =
  QCheck.Test.make ~name:"enumeration count = brute-force model count" ~count:100 arb_expr
    (fun e ->
      let vars = Expr.vars e in
      if vars = [] then true
      else begin
        let ctx = Ctx.create () in
        Ctx.assert_ ctx e;
        let over = List.map Expr.var vars in
        let sat_count = Ctx.enumerate ctx ~over (fun _ -> ()) in
        (* brute force over the projected variables *)
        let n = List.length vars in
        let brute = ref 0 in
        for mask = 0 to (1 lsl n) - 1 do
          let assignment i =
            let rec index j = function
              | [] -> assert false
              | v :: rest -> if v = i then j else index (j + 1) rest
            in
            (mask lsr index 0 vars) land 1 = 1
          in
          if Expr.eval assignment e then incr brute
        done;
        sat_count = !brute
      end)

(* ---------- SMT-LIB front end ---------- *)

let test_smtlib_basic_sat () =
  let out =
    Smtlib.run_to_string
      "(set-logic QF_UF)\n(declare-const a Bool)\n(declare-const b Bool)\n\
       (assert (and a (not b)))\n(check-sat)\n(get-model)\n"
  in
  Alcotest.(check bool) "says sat" true (String.length out >= 3 && String.sub out 0 3 = "sat");
  Alcotest.(check bool) "model has a=true" true
    (String.length out > 0
    &&
    let re = "(define-fun a () Bool true)" in
    let rec contains i =
      i + String.length re <= String.length out
      && (String.sub out i (String.length re) = re || contains (i + 1))
    in
    contains 0)

let test_smtlib_unsat () =
  let events =
    Smtlib.run "(declare-const p Bool)\n(assert p)\n(assert (not p))\n(check-sat)\n"
  in
  Alcotest.(check bool) "unsat" true (events = [ Smtlib.Check_sat Ctx.Unsat ])

let test_smtlib_push_pop () =
  let events =
    Smtlib.run
      "(declare-const p Bool)\n(assert p)\n(check-sat)\n(push 1)\n(assert (not p))\n\
       (check-sat)\n(pop 1)\n(check-sat)\n"
  in
  Alcotest.(check bool) "sat/unsat/sat" true
    (events
    = [ Smtlib.Check_sat Ctx.Sat; Smtlib.Check_sat Ctx.Unsat; Smtlib.Check_sat Ctx.Sat ])

let test_smtlib_operators () =
  (* xor-chain equivalence: (= (xor a b c) d) with forced values *)
  let events =
    Smtlib.run
      "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)\n\
       (declare-const d Bool)\n\
       (assert a)(assert (not b))(assert (not c))\n\
       (assert (= d (xor a b c)))\n\
       (assert (ite d true false))\n\
       (assert (=> b false))\n\
       (assert (distinct a b))\n\
       (check-sat)\n"
  in
  Alcotest.(check bool) "sat with consistent ops" true (events = [ Smtlib.Check_sat Ctx.Sat ])

let test_smtlib_comments_and_echo () =
  let out =
    Smtlib.run_to_string "; header comment\n(echo \"hello world\")\n(exit)\n(check-sat)\n"
  in
  Alcotest.(check string) "echo, exit stops" "hello world" out

let test_smtlib_errors () =
  List.iter
    (fun src ->
      match Smtlib.run src with
      | exception Smtlib.Error _ -> ()
      | _ -> Alcotest.failf "%S should fail" src)
    [
      "(assert unknown)";
      "(declare-const x Int)";
      "(get-model)";
      "(frobnicate)";
      "(assert (and p";
      "(set-logic QF_LIA)";
      "(declare-const a Bool)(declare-const a Bool)";
    ]

(* differential: random expressions rendered to SMT-LIB agree with Ctx *)
let rec render_smtlib e =
  match Expr.node e with
  | Expr.True -> "true"
  | Expr.Var i -> Printf.sprintf "v%d" i
  | Expr.Not x -> Printf.sprintf "(not %s)" (render_smtlib x)
  | Expr.And es -> "(and " ^ String.concat " " (List.map render_smtlib es) ^ ")"
  | Expr.Or es -> "(or " ^ String.concat " " (List.map render_smtlib es) ^ ")"
  | Expr.Xor (a, b) -> Printf.sprintf "(xor %s %s)" (render_smtlib a) (render_smtlib b)
  | Expr.Ite (c, a, b) ->
      Printf.sprintf "(ite %s %s %s)" (render_smtlib c) (render_smtlib a) (render_smtlib b)

let prop_smtlib_agrees_with_ctx =
  QCheck.Test.make ~name:"SMT-LIB front end agrees with direct Ctx" ~count:200 arb_expr
    (fun e ->
      let decls =
        Expr.vars e
        |> List.map (fun i -> Printf.sprintf "(declare-const v%d Bool)" i)
        |> String.concat "\n"
      in
      let script = decls ^ "\n(assert " ^ render_smtlib e ^ ")\n(check-sat)\n" in
      let direct =
        let ctx = Ctx.create () in
        Ctx.assert_ ctx e;
        Ctx.check ctx
      in
      Smtlib.run script = [ Smtlib.Check_sat direct ])

(* ---------- fresh variables ---------- *)

let test_fresh_distinct () =
  let a = Fresh.make () and b = Fresh.make () in
  Alcotest.(check bool) "distinct" false (Expr.equal a b)

let test_deadline_timeout () =
  (* a hard pigeonhole instance with an immediate deadline must time out *)
  let ctx = Ctx.create () in
  let pigeons = 9 and holes = 8 in
  let var p h = Expr.var ((p * holes) + h) in
  for p = 0 to pigeons - 1 do
    Ctx.assert_ ctx (Expr.or_ (List.init holes (fun h -> var p h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Ctx.assert_ ctx (Expr.or_ [ Expr.not_ (var p1 h); Expr.not_ (var p2 h) ])
      done
    done
  done;
  match Ctx.check ~deadline:(Unix.gettimeofday () -. 1.0) ctx with
  | exception Ctx.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout"

let () =
  Alcotest.run "smtlite"
    [
      ( "expr",
        [
          Alcotest.test_case "constants" `Quick test_expr_constants;
          Alcotest.test_case "simplification" `Quick test_expr_simplification;
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "vars/size" `Quick test_expr_vars_size;
        ] );
      ( "scope",
        [
          Alcotest.test_case "ended scope is collected" `Quick test_scope_collects;
          Alcotest.test_case "sharing within a fresh scope" `Quick test_scope_sharing;
          Alcotest.test_case "and/or add only their result" `Quick
            test_connectives_grow_by_result;
        ] );
      ( "tseitin",
        [
          qtest prop_tseitin_agrees_with_bruteforce;
          qtest prop_tseitin_model_evaluates_true;
        ] );
      ( "stack",
        [
          Alcotest.test_case "push/pop basic" `Quick test_push_pop_basic;
          Alcotest.test_case "push/pop nested" `Quick test_push_pop_nested;
          Alcotest.test_case "pop empty raises" `Quick test_pop_empty_raises;
          Alcotest.test_case "assumptions" `Quick test_assumptions_via_check;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
        ] );
      ( "bv",
        [
          Alcotest.test_case "constants" `Quick test_bv_constants;
          Alcotest.test_case "comparisons" `Quick test_bv_compare_constants;
          qtest prop_bv_add_matches_int;
          qtest prop_bv_popcount_matches;
        ] );
      ( "card",
        [
          card_case Card.Naive "naive at_most/at_least/exactly";
          card_case Card.Sequential "sequential at_most/at_least/exactly";
          card_case Card.Totalizer "totalizer at_most/at_least/exactly";
          card_case Card.Adder "adder at_most/at_least/exactly";
          prop_counts_semantics Card.Naive "naive counts";
          prop_counts_semantics Card.Sequential "sequential counts";
          prop_counts_semantics Card.Totalizer "totalizer counts";
          prop_card_solver_bound Card.Sequential "sequential solver bound";
          prop_card_solver_bound Card.Totalizer "totalizer solver bound";
          prop_card_solver_bound Card.Adder "adder solver bound";
          qtest prop_ctx_at_least_matches_naive;
          qtest prop_ctx_xor_chain_parity;
          Alcotest.test_case "xor memo" `Quick test_ctx_xor_memo;
          qtest prop_pb_le_matches;
          Alcotest.test_case "pb rejects negative" `Quick test_pb_rejects_negative;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "exactly-k count" `Quick test_enumerate_exactly_k;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
          Alcotest.test_case "unsat" `Quick test_enumerate_unsat;
          qtest prop_enumerate_counts_match_reference;
        ] );
      ( "smtlib",
        [
          Alcotest.test_case "basic sat + model" `Quick test_smtlib_basic_sat;
          Alcotest.test_case "unsat" `Quick test_smtlib_unsat;
          Alcotest.test_case "push/pop" `Quick test_smtlib_push_pop;
          Alcotest.test_case "operators" `Quick test_smtlib_operators;
          Alcotest.test_case "comments/echo/exit" `Quick test_smtlib_comments_and_echo;
          Alcotest.test_case "errors" `Quick test_smtlib_errors;
          qtest prop_smtlib_agrees_with_ctx;
        ] );
      ("fresh", [ Alcotest.test_case "distinct" `Quick test_fresh_distinct ]);
    ]
