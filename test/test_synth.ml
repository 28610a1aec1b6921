(* Tests for the CEGIS synthesizer: fixed-configuration synthesis,
   check-length minimization (Table 1 rows at small scale), set-bit
   minimization, weighted mapping (§4.3), stand-alone verification (§4.1),
   and the property-language driver. *)

open Synth

let md = Hamming.Distance.min_distance

let task_of prop = match Driver.analyze prop with Ok t -> t | Error e -> Alcotest.fail e

let synthesize_simple ?(timeout = 60.0) ?cex_mode ~k ~c ~m () =
  Cegis.synthesize ~timeout ?cex_mode
    { Cegis.data_len = k; check_len = c; min_distance = m; extra = [] }

(* ---------- core CEGIS loop ---------- *)

let test_synthesize_hamming74 () =
  match synthesize_simple ~k:4 ~c:3 ~m:3 () with
  | Report.Synthesized (code, stats) ->
      Alcotest.(check int) "md" 3 (md code);
      Alcotest.(check bool) "iterations > 0" true (stats.Report.Stats.iterations > 0)
  | _ -> Alcotest.fail "expected success"

let test_synthesize_md4 () =
  (* paper §4.2: md 4 achievable with 5 check bits at k = 4 *)
  match synthesize_simple ~k:4 ~c:5 ~m:4 () with
  | Report.Synthesized (code, _) -> Alcotest.(check bool) "md >= 4" true (md code >= 4)
  | _ -> Alcotest.fail "expected success"

let test_synthesize_parity () =
  (* paper §4.3: c=1, md 2 must produce exactly the even-parity code *)
  match synthesize_simple ~k:16 ~c:1 ~m:2 () with
  | Report.Synthesized (code, _) ->
      Alcotest.(check bool) "equals parity code" true
        (Hamming.Code.equal code (Hamming.Catalog.parity 16))
  | _ -> Alcotest.fail "expected success"

let test_unsat_config () =
  (* md 3 with 2 check bits at k = 4 is impossible (needs >= 3) *)
  match synthesize_simple ~k:4 ~c:2 ~m:3 () with
  | Report.Unsat_config _ -> ()
  | Report.Synthesized (code, _) ->
      Alcotest.failf "impossible generator synthesized with md %d" (md code)
  | Report.Timed_out _ -> Alcotest.fail "unexpected timeout"
  | Report.Partial _ -> Alcotest.fail "unexpected partial result"

let test_singleton_check_md2 () =
  (* smallest possible: k=1, c=1, md 2 is the repetition (2,1) code *)
  match synthesize_simple ~k:1 ~c:1 ~m:2 () with
  | Report.Synthesized (code, _) -> Alcotest.(check int) "md" 2 (md code)
  | _ -> Alcotest.fail "expected success"

let test_whole_candidate_mode_agrees () =
  (* the paper's blocking mode finds an answer too (just more slowly) *)
  match synthesize_simple ~cex_mode:Cegis.Whole_candidate ~k:4 ~c:3 ~m:3 () with
  | Report.Synthesized (code, _) -> Alcotest.(check int) "md" 3 (md code)
  | _ -> Alcotest.fail "expected success"

let test_sat_verifier_mode () =
  match
    Cegis.synthesize ~timeout:60.0 ~verifier:Cegis.Sat
      { Cegis.data_len = 4; check_len = 4; min_distance = 3; extra = [] }
  with
  | Report.Synthesized (code, _) -> Alcotest.(check bool) "md >= 3" true (md code >= 3)
  | _ -> Alcotest.fail "expected success"

let test_extra_constraints_respected () =
  (* pin a coefficient bit to 1 and check it survives synthesis *)
  let pin ~entry = entry ~row:0 ~col:0 in
  match
    Cegis.synthesize ~timeout:60.0
      { Cegis.data_len = 4; check_len = 4; min_distance = 3; extra = [ pin ] }
  with
  | Report.Synthesized (code, _) ->
      Alcotest.(check bool) "pinned bit" true
        (Gf2.Matrix.get (Hamming.Code.coefficient_matrix code) 0 0)
  | _ -> Alcotest.fail "expected success"

(* all synthesized generators across a small sweep have the target md *)
let test_sweep_configurations () =
  List.iter
    (fun (k, c, m) ->
      match synthesize_simple ~k ~c ~m () with
      | Report.Synthesized (code, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "k=%d c=%d m=%d" k c m)
            true
            (Hamming.Distance.has_min_distance_at_least code m)
      | Report.Unsat_config _ -> ()
      | Report.Timed_out _ | Report.Partial _ -> Alcotest.fail "timeout in sweep")
    [ (2, 2, 2); (3, 3, 3); (4, 4, 3); (5, 4, 3); (8, 4, 3); (6, 5, 4); (4, 7, 5) ]

(* ---------- deadlines ---------- *)

(* (4,9,7) is one below the minimal check length.  A pinned entry keeps
   the row ordering off, so its last CEGIS step is a long UNSAT proof
   (~40k conflicts; the ordered proof takes ~5k). *)
let long_proof =
  {
    Cegis.data_len = 4;
    check_len = 9;
    min_distance = 7;
    extra = [ (fun ~entry -> entry ~row:0 ~col:0) ];
  }

(* drive a fresh session to its verdict, returning the synthesizer's
   conflicts *)
let run_session ?deadline () =
  let s = Cegis.create_session long_proof in
  let rec go () =
    match Cegis.step ?deadline s with
    | Cegis.Progress _ -> go ()
    | Cegis.Done _ -> Alcotest.fail "(4,9,7) must be unsatisfiable"
    | Cegis.Exhausted -> (Cegis.session_stats s).Report.Stats.syn_conflicts
  in
  go ()

let test_deadline_keeps_search () =
  let unbounded = run_session () in
  let bounded = run_session ~deadline:(Unix.gettimeofday () +. 3600.0) () in
  Alcotest.(check bool) "long proof" true (unbounded > 20_000);
  Alcotest.(check int) "same conflicts with a far deadline" unbounded bounded

let test_deadline_adherence () =
  let t0 = Unix.gettimeofday () in
  let outcome = Cegis.synthesize ~timeout:0.05 long_proof in
  let wall = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Report.Partial _ | Report.Timed_out _ -> ()
  | _ -> Alcotest.fail "expected the budget to cut the proof short");
  if wall > 0.25 then Alcotest.failf "0.05 s budget took %.3f s" wall

(* ---------- row ordering (symmetry breaking) ---------- *)

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* the largest minimum distance of any systematic code with [k] data and
   [c] check bits, by enumerating all 2^(k*c) coefficient matrices (row i
   of P is bits [i*c, (i+1)*c) of [m]) *)
let brute_max_md ~k ~c =
  let row_mask = (1 lsl c) - 1 in
  let best = ref 0 in
  for m = 0 to (1 lsl (k * c)) - 1 do
    (* the matrix's minimum weight, cut short once it cannot beat [best] *)
    let rec min_weight d acc =
      if d = 1 lsl k || acc <= !best then acc
      else begin
        let check = ref 0 in
        for i = 0 to k - 1 do
          if (d lsr i) land 1 = 1 then
            check := !check lxor ((m lsr (i * c)) land row_mask)
        done;
        min_weight (d + 1) (min acc (popcount d + popcount !check))
      end
    in
    best := max !best (min_weight 1 max_int)
  done;
  !best

(* drive a session to its verdict: [Some code] on [Done], [None] once the
   synthesizer is exhausted *)
let session_verdict problem =
  let s = Cegis.create_session problem in
  let rec go () =
    match Cegis.step s with
    | Cegis.Done code -> Some code
    | Cegis.Exhausted -> None
    | Cegis.Progress _ -> go ()
  in
  go ()

(* an always-true extra constraint turns the row ordering off and changes
   nothing else *)
let unordered problem =
  { problem with Cegis.extra = [ (fun ~entry:_ -> Smtlite.Expr.true_) ] }

let check_verdict ~k ~c ~m verdict =
  match verdict with
  | None -> ()
  | Some code ->
      let name = Printf.sprintf "(%d,%d,%d)" k c m in
      Alcotest.(check int) (name ^ " data len") k (Hamming.Code.data_len code);
      Alcotest.(check int) (name ^ " check len") c (Hamming.Code.check_len code);
      Alcotest.(check bool) (name ^ " md") true (md code >= m)

(* every answer of the ordered search is the brute-force answer, for every
   distance target up to one past the Singleton bound *)
let test_row_order_matches_bruteforce () =
  for k = 1 to 4 do
    for c = 1 to 5 do
      let best = brute_max_md ~k ~c in
      for m = 2 to c + 2 do
        let verdict =
          session_verdict
            { Cegis.data_len = k; check_len = c; min_distance = m; extra = [] }
        in
        check_verdict ~k ~c ~m verdict;
        Alcotest.(check bool)
          (Printf.sprintf "(%d,%d,%d) exists iff md %d <= %d" k c m m best)
          (m <= best) (verdict <> None)
      done
    done
  done

let test_row_order_matches_unordered () =
  for k = 1 to 6 do
    for c = 1 to 6 do
      for m = 2 to c + 2 do
        let problem =
          { Cegis.data_len = k; check_len = c; min_distance = m; extra = [] }
        in
        let ordered = session_verdict problem in
        let plain = session_verdict (unordered problem) in
        check_verdict ~k ~c ~m ordered;
        check_verdict ~k ~c ~m plain;
        Alcotest.(check bool)
          (Printf.sprintf "(%d,%d,%d) same verdict with and without the order"
             k c m)
          (plain <> None) (ordered <> None)
      done
    done
  done

(* Each pin pair puts row 0 out of order with row 1 for one lexicographic
   row order (first or last column most significant), so the spec only
   synthesizes because a pinned problem skips the ordering. *)
let test_pins_keep_order_off () =
  List.iter
    (fun pins ->
      let src =
        String.concat " && "
          ("len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) = 3 && md(G[0]) = 3"
          :: List.map
               (fun (r, col, v) -> Printf.sprintf "G[0](%d, %d) = %d" r col v)
               pins)
      in
      List.iter
        (fun jobs ->
          match Driver.run ~timeout:60.0 ?jobs (task_of (Spec.Parse.prop src)) with
          | Driver.Codes ([ code ], _) ->
              Alcotest.(check int) (src ^ " md") 3 (md code);
              List.iter
                (fun (r, col, v) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: G(%d, %d)" src r col)
                    (v = 1)
                    (Gf2.Matrix.get (Hamming.Code.generator code) r col))
                pins
          | _ -> Alcotest.failf "%s did not synthesize" src)
        [ None; Some 2 ])
    [ [ (0, 4, 1); (1, 4, 0) ]; [ (0, 6, 0); (1, 6, 1) ] ]

(* ---------- optimization: minimal check length (Table 1) ---------- *)

let test_minimize_check_len_md3 () =
  match
    Optimize.minimize_check_len ~timeout:60.0 ~data_len:4 ~md:3 ~check_lo:2 ~check_hi:14 ()
  with
  | Report.Synthesized (r, _) ->
      Alcotest.(check int) "minimal check bits for md 3" 3 r.Optimize.check_len;
      Alcotest.(check int) "generator md" 3 (md r.Optimize.code)
  | _ -> Alcotest.fail "expected a generator"

let test_minimize_check_len_md2 () =
  match
    Optimize.minimize_check_len ~timeout:60.0 ~data_len:4 ~md:2 ~check_lo:2 ~check_hi:14 ()
  with
  | Report.Synthesized (r, _) ->
      Alcotest.(check int) "Table 1 row md=2" 2 r.Optimize.check_len
  | _ -> Alcotest.fail "expected a generator"

let test_minimize_check_len_md4 () =
  match
    Optimize.minimize_check_len ~timeout:120.0 ~data_len:4 ~md:4 ~check_lo:2 ~check_hi:14 ()
  with
  | Report.Synthesized (r, _) ->
      (* the paper's Table 1 reports 5 check bits for md 4, but the extended
         Hamming (8,4) code achieves md 4 with only 4 — our minimizer finds
         the true optimum *)
      Alcotest.(check int) "md=4 true optimum" 4 r.Optimize.check_len;
      Alcotest.(check int) "exact md" 4 (md r.Optimize.code)
  | _ -> Alcotest.fail "expected a generator"

(* Griesmer bound: a linear [n, k, d] code has n >= sum_(i<k) ceil(d / 2^i) *)
let griesmer ~k ~d =
  List.fold_left ( + ) 0 (List.init k (fun i -> (d + (1 lsl i) - 1) lsr i))

(* Table 1 at k = 4, md 3-8: each minimal check length is proved by an
   unsat probe one below it, and equals the Griesmer bound *)
let test_table1_minimality () =
  List.iter
    (fun (m, expected) ->
      match
        Optimize.minimize_check_len ~timeout:60.0 ~data_len:4 ~md:m ~check_lo:1
          ~check_hi:16 ()
      with
      | Report.Synthesized (r, _) ->
          let c = r.Optimize.check_len in
          Alcotest.(check int) (Printf.sprintf "md %d minimal check bits" m) expected c;
          Alcotest.(check bool) (Printf.sprintf "md %d generator md" m) true
            (md r.Optimize.code >= m);
          Alcotest.(check bool) (Printf.sprintf "md %d meets Griesmer" m) true
            (4 + c >= griesmer ~k:4 ~d:m)
      | _ -> Alcotest.failf "md %d: expected a generator" m)
    [ (3, 3); (4, 4); (5, 7); (6, 8); (7, 10); (8, 11) ]

(* ---------- double-lex order (row and column symmetry breaking) ---------- *)

module E = Smtlite.Expr

(* The test's own lexicographic order, sharing no code with [Cegis]:
   [lex_geq ~strict hi lo] holds when the bit list [hi] is at least [lo],
   most significant bit first. *)
let rec lex_geq ~strict hi lo =
  match (hi, lo) with
  | [], [] -> E.of_bool (not strict)
  | h :: hs, l :: ls ->
      E.or_
        [ E.and_ [ h; E.not_ l ]; E.and_ [ E.iff h l; lex_geq ~strict hs ls ] ]
  | _ -> invalid_arg "lex_geq: length mismatch"

(* rows of P descend, last column most significant *)
let rows_descend ~k ~c ~strict ~entry =
  let row i = List.init c (fun t -> entry ~row:i ~col:(c - 1 - t)) in
  E.and_ (List.init (k - 1) (fun i -> lex_geq ~strict (row i) (row (i + 1))))

(* columns of P descend, not strictly; [last_row_first] picks the last row
   (the library's orientation) or row 0 as the most significant *)
let cols_descend ~k ~c ~last_row_first ~entry =
  let col j =
    List.init k (fun t -> entry ~row:(if last_row_first then k - 1 - t else t) ~col:j)
  in
  E.and_ (List.init (c - 1) (fun j -> lex_geq ~strict:false (col j) (col (j + 1))))

(* the problem (k, c, m) under the test's own double-lex order, passed as
   [extra] constraints, which keeps the session's own order off *)
let double_lex ~last_row_first ~k ~c ~m =
  {
    Cegis.data_len = k;
    check_len = c;
    min_distance = m;
    extra =
      [
        rows_descend ~k ~c ~strict:(m >= 3);
        cols_descend ~k ~c ~last_row_first;
      ];
  }

(* every (k, c, m) of the brute-force range whose verdict under the order
   differs from brute force *)
let double_lex_disagreements ~last_row_first =
  let bad = ref [] in
  for k = 1 to 4 do
    for c = 1 to 5 do
      let best = brute_max_md ~k ~c in
      for m = 2 to c + 2 do
        let verdict = session_verdict (double_lex ~last_row_first ~k ~c ~m) in
        check_verdict ~k ~c ~m verdict;
        if m <= best <> (verdict <> None) then bad := (k, c, m) :: !bad
      done
    done
  done;
  !bad

let test_double_lex_matches_bruteforce () =
  match double_lex_disagreements ~last_row_first:true with
  | [] -> ()
  | (k, c, m) :: _ as bad ->
      Alcotest.failf "double-lex wrong on %d instances, e.g. (%d,%d,%d)"
        (List.length bad) k c m

(* the column order read from row 0 mixes two orientations and loses
   codes: the check above is able to catch a wrong order *)
let test_mixed_orientation_fails () =
  Alcotest.(check bool) "row-0-first column order loses an answer" true
    (double_lex_disagreements ~last_row_first:false <> [])

let pure ~k ~c ~m =
  { Cegis.data_len = k; check_len = c; min_distance = m; extra = [] }

let test_double_lex_at_bound () =
  for k = 1 to 6 do
    for m = 2 to 8 do
      let bound = Cegis.griesmer_check_len ~data_len:k ~min_distance:m in
      Alcotest.(check int)
        (Printf.sprintf "k %d md %d bound" k m)
        (griesmer ~k ~d:m - k) bound;
      if bound >= 1 then begin
        let at c = Cegis.symmetry_of_problem (pure ~k ~c ~m) in
        Alcotest.(check bool)
          (Printf.sprintf "k %d md %d: rows+cols at c = %d" k m bound)
          true
          (at bound = Cegis.Rows_cols);
        Alcotest.(check bool)
          (Printf.sprintf "k %d md %d: rows only at c = %d" k m (bound + 1))
          true
          (at (bound + 1) = Cegis.Rows)
      end
    done
  done;
  (* one (k, c) under two targets, on the bound of [m_on] and one above the
     bound of [m_off]: the strict row order is the same, so the solver
     variables differ by the column order alone -- per adjacent column
     pair, one prefix variable for each of the k positions but the first,
     and one Tseitin variable per column clause, three per position less
     the two that hold trivially at the last, non-strict one: 4k - 3.
     From k = 2 on, the row order already puts every bit of P in the
     solver. *)
  let pairs = ref 0 in
  for k = 2 to 5 do
    for m_on = 3 to 8 do
      let c = Cegis.griesmer_check_len ~data_len:k ~min_distance:m_on in
      for m_off = 3 to 8 do
        if c >= 2 && Cegis.griesmer_check_len ~data_len:k ~min_distance:m_off = c - 1
        then begin
          incr pairs;
          let on = pure ~k ~c ~m:m_on and off = pure ~k ~c ~m:m_off in
          Alcotest.(check bool) "orders" true
            (Cegis.symmetry_of_problem on = Cegis.Rows_cols
            && Cegis.symmetry_of_problem off = Cegis.Rows);
          let solver_vars p = Cegis.session_solver_vars (Cegis.create_session p) in
          Alcotest.(check int)
            (Printf.sprintf "(%d,%d) md %d vs %d: column-order variables" k c m_on m_off)
            ((c - 1) * ((4 * k) - 3))
            (solver_vars on - solver_vars off)
        end
      done
    done
  done;
  Alcotest.(check bool) "some (k, c) sits on one bound and above another" true
    (!pairs > 0)

(* ---------- optimization: minimal set bits (§4.4) ---------- *)

let test_minimize_set_bits_walk () =
  let steps =
    Optimize.minimize_set_bits ~timeout:60.0 ~data_len:8 ~check_len:4 ~md:3
      ~start_bound:32 ~stop_bound:0 ()
  in
  Alcotest.(check bool) "at least one step" true (List.length steps > 0);
  (* bounds strictly decrease and every generator meets md and its bound *)
  let rec check_desc = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "achieved decreases" true
          (b.Optimize.achieved < a.Optimize.achieved);
        check_desc rest
    | _ -> ()
  in
  check_desc steps;
  List.iter
    (fun s ->
      Alcotest.(check bool) "respects bound" true
        (Hamming.Code.set_bits s.Optimize.generator <= s.Optimize.bound);
      Alcotest.(check bool) "md holds" true
        (Hamming.Distance.has_min_distance_at_least s.Optimize.generator 3))
    steps;
  (* theoretical minimum for (12,8) md 3: every data column needs weight >= 2,
     so at least 16 set bits *)
  let last = List.nth steps (List.length steps - 1) in
  Alcotest.(check bool) "reached near-minimal" true (last.Optimize.achieved >= 16)

(* ---------- weighted mapping (§4.3) ---------- *)

let float_weights = [| 100; 100; 100; 100; 99; 98; 82; 45; 17; 17; 8; 4; 2; 1; 1; 1 |]

let test_weighted_prefers_strong_generator_for_heavy_bits () =
  let g0 = { Weighted.check_len = 5; min_distance = 3 } in
  let g1 = { Weighted.check_len = 1; min_distance = 2 } in
  match Weighted.optimize ~timeout:120.0 ~p:0.1 ~weights:float_weights g0 g1 with
  | None -> Alcotest.fail "expected a mapping"
  | Some r ->
      let t0, t1 = r.Weighted.counts in
      Alcotest.(check int) "all bits assigned" 16 (t0 + t1);
      (* heavy (high-weight) bits must go to the stronger generator 0 *)
      Alcotest.(check int) "heaviest bit on strong code" 0 r.Weighted.mapping.(0);
      (* the mapping's objective value is consistent *)
      Alcotest.(check (float 1e-9)) "sum_w consistent"
        (Weighted.sum_w_of ~p:0.1 ~weights:float_weights ~mapping:r.Weighted.mapping g0 g1)
        r.Weighted.sum_w;
      (* synthesized codes have the requested shapes *)
      let c0, c1 = r.Weighted.codes in
      Alcotest.(check int) "code0 data len" t0 (Hamming.Code.data_len c0);
      Alcotest.(check int) "code1 data len" t1 (Hamming.Code.data_len c1);
      Alcotest.(check bool) "code0 md" true (Hamming.Distance.has_min_distance_at_least c0 3);
      Alcotest.(check bool) "code1 md" true (Hamming.Distance.has_min_distance_at_least c1 2)

let test_weighted_optimal_against_bruteforce () =
  (* small instance: brute-force all mappings and compare objectives *)
  let weights = [| 9; 5; 3; 1 |] in
  let g0 = { Weighted.check_len = 3; min_distance = 3 } in
  let g1 = { Weighted.check_len = 1; min_distance = 2 } in
  let best = ref infinity in
  for mask = 1 to (1 lsl 4) - 2 do
    (* at least one bit on each generator *)
    let mapping = Array.init 4 (fun j -> if (mask lsr j) land 1 = 1 then 0 else 1) in
    let v = Weighted.sum_w_of ~p:0.1 ~weights ~mapping g0 g1 in
    if v < !best then best := v
  done;
  match Weighted.optimize ~timeout:60.0 ~p:0.1 ~weights g0 g1 with
  | None -> Alcotest.fail "expected a mapping"
  | Some r ->
      Alcotest.(check bool) "proved optimal" true r.Weighted.optimal;
      Alcotest.(check (float 1e-9)) "matches brute force" !best r.Weighted.sum_w

let test_weighted_rejects_bad_input () =
  let g = { Weighted.check_len = 1; min_distance = 2 } in
  Alcotest.check_raises "empty weights"
    (Invalid_argument "Weighted.optimize: empty weights") (fun () ->
      ignore (Weighted.optimize ~weights:[||] g g))

(* ---------- multi-bit-error synthesis (§6 extension) ---------- *)

let test_multibit_synthesis () =
  match
    Multibit_synth.synthesize ~timeout:60.0 ~data_len:4 ~check_len:7 ~distinguish:2 ()
  with
  | Report.Synthesized (code, _) ->
      Alcotest.(check bool) "distinguishes 2" true
        (Hamming.Multibit.distinguishes_up_to code 2);
      Alcotest.(check bool) "md >= 5" true
        (Hamming.Distance.has_min_distance_at_least code 5)
  | _ -> Alcotest.fail "expected success"

let test_multibit_beats_manual_construction () =
  (* the §6 manual matrix uses 11 check bits to distinguish 2-bit errors
     at data length 4; synthesis needs only 7 *)
  match
    Multibit_synth.minimize_check_len ~timeout:120.0 ~data_len:4 ~distinguish:2
      ~check_lo:2 ~check_hi:14 ()
  with
  | Some (code, checks, _) ->
      Alcotest.(check int) "minimal check bits" 7 checks;
      Alcotest.(check bool) "2-bit correction works" true
        (let w = Hamming.Code.encode code (Gf2.Bitvec.of_string "1010") in
         let w' = Gf2.Bitvec.copy w in
         Gf2.Bitvec.flip w' 0;
         Gf2.Bitvec.flip w' 6;
         match Hamming.Multibit.correct_up_to code 2 w' with
         | Some fixed -> Gf2.Bitvec.equal fixed w
         | None -> false)
  | None -> Alcotest.fail "expected a code"

let test_multibit_rejects_bad_input () =
  Alcotest.check_raises "distinguish 0"
    (Invalid_argument "Multibit_synth.synthesize: distinguish must be >= 1") (fun () ->
      ignore (Multibit_synth.synthesize ~data_len:4 ~check_len:4 ~distinguish:0 ()))

(* ---------- verifier conflict accounting ---------- *)

let test_ver_conflicts_reported () =
  (* regression: ver_conflicts was hardcoded to 0.  With the SAT verifier
     on an instance that needs several refinement rounds, the verifier
     must do real search, so the summed conflict count is positive. *)
  match
    Cegis.synthesize ~timeout:60.0 ~verifier:Cegis.Sat
      { Cegis.data_len = 6; check_len = 5; min_distance = 4; extra = [] }
  with
  | Report.Synthesized (code, stats) ->
      Alcotest.(check bool) "md >= 4" true
        (Hamming.Distance.has_min_distance_at_least code 4);
      Alcotest.(check bool) "verifier found counterexamples" true
        (stats.Report.Stats.verifier_calls > 1);
      Alcotest.(check bool)
        (Printf.sprintf "ver_conflicts > 0 (got %d)" stats.Report.Stats.ver_conflicts)
        true
        (stats.Report.Stats.ver_conflicts > 0)
  | _ -> Alcotest.fail "expected success"

(* ---------- portfolio ---------- *)

let simple_problem ~k ~c ~m =
  { Cegis.data_len = k; check_len = c; min_distance = m; extra = [] }

let test_portfolio_jobs1_matches_sequential () =
  (* worker 0 of the portfolio is configured exactly like the sequential
     defaults and runs inline, so the answers must be bit-identical *)
  let problem = simple_problem ~k:6 ~c:5 ~m:4 in
  match (Cegis.synthesize ~timeout:60.0 problem,
         Portfolio.synthesize ~timeout:60.0 ~jobs:1 problem) with
  | Report.Synthesized (seq_code, seq_stats),
    Report.Synthesized (par_code, report) ->
      Alcotest.(check bool) "identical generator" true
        (Hamming.Code.equal seq_code par_code);
      Alcotest.(check int) "identical iteration count"
        seq_stats.Report.Stats.iterations
        report.Portfolio.totals.Synth.Report.Stats.iterations;
      (match report.Portfolio.winner with
      | Some c -> Alcotest.(check string) "winner is worker 0" "w0" c.Portfolio.label
      | None -> Alcotest.fail "expected a winner")
  | _ -> Alcotest.fail "expected success on both paths"

let test_portfolio_jobs4_no_torn_results () =
  (* whatever worker wins and however domains interleave, the returned
     generator must verify; force the domain scheduler so this path is
     exercised even on single-core hosts *)
  List.iter
    (fun (k, c, m) ->
      match
        Portfolio.synthesize ~timeout:60.0 ~jobs:4 ~scheduler:`Domains
          (simple_problem ~k ~c ~m)
      with
      | Report.Synthesized (code, report) ->
          Alcotest.(check int) "4 workers" 4 (List.length report.Portfolio.workers);
          Alcotest.(check bool) "winner recorded" true
            (report.Portfolio.winner <> None);
          Alcotest.(check bool)
            (Printf.sprintf "k=%d c=%d m=%d verifies" k c m)
            true
            (Hamming.Distance.counterexample code m = None)
      | Report.Unsat_config _ -> Alcotest.fail "unexpectedly unsat"
      | Report.Timed_out _ | Report.Partial _ ->
          Alcotest.fail "unexpected timeout")
    [ (4, 4, 3); (6, 5, 4); (8, 4, 3) ]

let test_portfolio_unsat_is_shared () =
  (* any single worker proving unsat decides for the whole portfolio *)
  match Portfolio.synthesize ~timeout:60.0 ~jobs:4 (simple_problem ~k:4 ~c:2 ~m:3) with
  | Report.Unsat_config report ->
      Alcotest.(check bool) "winner recorded" true (report.Portfolio.winner <> None)
  | Report.Synthesized (code, _) ->
      Alcotest.failf "impossible generator synthesized with md %d" (md code)
  | Report.Timed_out _ | Report.Partial _ ->
      Alcotest.fail "unexpected timeout"

let test_portfolio_encodings_agree_on_distance () =
  (* one single-worker portfolio per cardinality encoding: all must reach
     the same verified minimum distance ((7,4) admits exactly md 3) *)
  let mds =
    List.map
      (fun encoding ->
        let config =
          { Portfolio.label = "w0"; cex_mode = Cegis.Data_word;
            verifier = Cegis.Combinatorial; encoding; seed = None }
        in
        match
          Portfolio.synthesize ~timeout:60.0 ~jobs:1 ~configs:[ config ]
            (simple_problem ~k:4 ~c:3 ~m:3)
        with
        | Report.Synthesized (code, _) -> md code
        | _ -> Alcotest.fail "expected success")
      [ Smtlite.Card.Sequential; Smtlite.Card.Totalizer; Smtlite.Card.Adder;
        Smtlite.Card.Pairwise ]
  in
  List.iter (fun d -> Alcotest.(check int) "verified min distance" 3 d) mds

let test_portfolio_restart_rounds () =
  (* a 10 ms restart interval forces several reseeded rounds on an
     instance that takes hundreds of ms with four timeshared workers; the
     pool carries over, the result must still verify and the report must
     show the extra rounds with reseeded labels *)
  match
    Portfolio.synthesize ~timeout:60.0 ~jobs:4 ~restart_interval:0.01
      (simple_problem ~k:9 ~c:10 ~m:5)
  with
  | Report.Synthesized (code, report) ->
      Alcotest.(check bool) "restarted at least once" true
        (report.Portfolio.rounds >= 2);
      Alcotest.(check int) "one stats entry per worker per round"
        (4 * report.Portfolio.rounds)
        (List.length report.Portfolio.workers);
      Alcotest.(check bool) "restarted workers are relabelled" true
        (List.exists
           (fun w ->
             String.contains w.Portfolio.config.Portfolio.label 'r')
           report.Portfolio.workers);
      Alcotest.(check bool) "result verifies" true
        (Hamming.Distance.counterexample code 5 = None)
  | Report.Unsat_config _ -> Alcotest.fail "unexpectedly unsat"
  | Report.Timed_out _ | Report.Partial _ ->
      Alcotest.fail "unexpected timeout"

let test_portfolio_verification_race () =
  let code = Lazy.force Hamming.Catalog.fig2_7_4 in
  (match Portfolio.verify_min_distance ~timeout:60.0 ~jobs:4 code 3 with
  | Portfolio.Holds, winner, _ ->
      Alcotest.(check bool) "winner named" true (winner <> "-")
  | _ -> Alcotest.fail "md >= 3 should hold");
  match Portfolio.verify_min_distance ~timeout:60.0 ~jobs:4 code 4 with
  | Portfolio.Refuted d, _, _ ->
      Alcotest.(check bool) "witness weight < 4" true
        (Gf2.Bitvec.popcount (Hamming.Code.encode code d) < 4)
  | _ -> Alcotest.fail "md >= 4 should be refuted"

(* ---------- stand-alone verification (§4.1) ---------- *)

let test_verify_ieee_md3 () =
  let code = Lazy.force Hamming.Catalog.ieee_128_120 in
  let r = Verify.min_distance_at_least ~method_:Verify.Sat code 3 in
  Alcotest.(check bool) "md >= 3 holds" true r.Verify.holds;
  let r4 = Verify.min_distance_at_least ~method_:Verify.Sat code 4 in
  Alcotest.(check bool) "md >= 4 fails" false r4.Verify.holds;
  (match r4.Verify.witness with
  | Some d ->
      Alcotest.(check bool) "witness weight < 4" true
        (Gf2.Bitvec.popcount (Hamming.Code.encode code d) < 4)
  | None -> Alcotest.fail "expected witness");
  let exact = Verify.min_distance_exactly ~method_:Verify.Combinatorial code 3 in
  Alcotest.(check bool) "md exactly 3" true exact.Verify.holds

let test_verify_property_language () =
  let env = Spec.Eval.env_of_code (Lazy.force Hamming.Catalog.fig2_7_4) in
  let r = Verify.property env (Spec.Parse.prop "md(G[0]) = 3 && len_c(G[0]) = 3") in
  Alcotest.(check bool) "holds" true r.Verify.holds;
  let r2 = Verify.property env (Spec.Parse.prop "md(G[0]) = 4") in
  Alcotest.(check bool) "fails" false r2.Verify.holds

(* ---------- property-language driver ---------- *)

let test_driver_paper_example () =
  let prop =
    Spec.Parse.prop
      "len_G = 1 && len_d(G[0]) = 4 && len_c(G[0]) <= 4 && md(G[0]) = 3 && \
       minimal(len_c(G[0]))"
  in
  (match Driver.analyze prop with
  | Ok (Driver.Min_check_len s) ->
      Alcotest.(check int) "data len" 4 s.Driver.data_len;
      Alcotest.(check int) "hi" 4 s.Driver.check_hi
  | Ok _ -> Alcotest.fail "wrong task"
  | Error e -> Alcotest.fail e);
  match Driver.run ~timeout:60.0 (task_of prop) with
  | Driver.Codes ([ code ], _) ->
      Alcotest.(check int) "md" 3 (md code);
      Alcotest.(check int) "minimal check len" 3 (Hamming.Code.check_len code)
  | _ -> Alcotest.fail "expected one generator"

let test_driver_fixed_entry () =
  let prop =
    Spec.Parse.prop "len_d(G[0]) = 4 && len_c(G[0]) = 4 && md(G[0]) = 3 && G[0](0, 4) = 1"
  in
  match Driver.run ~timeout:60.0 (task_of prop) with
  | Driver.Codes ([ code ], _) ->
      Alcotest.(check bool) "entry honored" true
        (Gf2.Matrix.get (Hamming.Code.generator code) 0 4)
  | _ -> Alcotest.fail "expected one generator"

let test_driver_weighted () =
  let prop =
    Spec.Parse.prop
      "len_G = 2 && len_c(G[0]) = 5 && md(G[0]) = 3 && len_c(G[1]) = 1 && md(G[1]) = 2 \
       && minimal(sum_w)"
  in
  match Driver.run ~timeout:120.0 ~weights:float_weights (task_of prop) with
  | Driver.Weighted r ->
      let t0, t1 = r.Weighted.counts in
      Alcotest.(check int) "all bits" 16 (t0 + t1)
  | _ -> Alcotest.fail "expected weighted result"

let test_driver_maximal_md () =
  (* with 4 data bits and exactly 7 check bits, distance 5 is reachable
     (Table 1) but 6 is not *)
  let prop =
    Spec.Parse.prop
      "len_d(G[0]) = 4 && len_c(G[0]) = 7 && md(G[0]) >= 2 && maximal(md(G[0]))"
  in
  (match Driver.analyze prop with
  | Ok (Driver.Max_distance _) -> ()
  | Ok _ -> Alcotest.fail "wrong task"
  | Error e -> Alcotest.fail e);
  match Driver.run ~timeout:120.0 (task_of prop) with
  | Driver.Codes ([ code ], _) ->
      Alcotest.(check int) "maximal distance" 5 (md code)
  | _ -> Alcotest.fail "expected one generator"

let test_driver_rejects_unsupported () =
  List.iter
    (fun src ->
      match Driver.analyze (Spec.Parse.prop src) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should be unsupported" src)
    [
      "md(G[0]) = 3 || md(G[0]) = 4";
      "len_d(G[0]) = 4";
      "len_G = 3 && minimal(sum_w)";
      "len_d(G[0]) = 4 && md(G[0]) = 3 && maximal(len_c(G[0]))";
    ]

let test_driver_reports_unsat () =
  let prop = Spec.Parse.prop "len_d(G[0]) = 4 && len_c(G[0]) = 2 && md(G[0]) = 3" in
  match Driver.run ~timeout:30.0 (task_of prop) with
  | Driver.Unsat _ -> ()
  | _ -> Alcotest.fail "expected unsat"

let () =
  Alcotest.run "synth"
    [
      ( "cegis",
        [
          Alcotest.test_case "hamming (7,4)" `Quick test_synthesize_hamming74;
          Alcotest.test_case "md 4 (paper G_5^4 shape)" `Quick test_synthesize_md4;
          Alcotest.test_case "parity rediscovered" `Quick test_synthesize_parity;
          Alcotest.test_case "unsat configuration" `Quick test_unsat_config;
          Alcotest.test_case "repetition (2,1)" `Quick test_singleton_check_md2;
          Alcotest.test_case "whole-candidate blocking" `Quick test_whole_candidate_mode_agrees;
          Alcotest.test_case "SAT verifier mode" `Quick test_sat_verifier_mode;
          Alcotest.test_case "extra constraints" `Quick test_extra_constraints_respected;
          Alcotest.test_case "configuration sweep" `Slow test_sweep_configurations;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "same search as unbounded" `Slow
            test_deadline_keeps_search;
          Alcotest.test_case "budget adherence" `Quick test_deadline_adherence;
        ] );
      ( "row-order",
        [
          Alcotest.test_case "matches brute force (k <= 4, c <= 5)" `Quick
            test_row_order_matches_bruteforce;
          Alcotest.test_case "matches the unordered search (k, c <= 6)" `Quick
            test_row_order_matches_unordered;
          Alcotest.test_case "pins keep the ordering off" `Quick
            test_pins_keep_order_off;
        ] );
      ( "double-lex",
        [
          Alcotest.test_case "matches brute force (k <= 4, c <= 5)" `Quick
            test_double_lex_matches_bruteforce;
          Alcotest.test_case "a mixed orientation loses answers" `Quick
            test_mixed_orientation_fails;
          Alcotest.test_case "fires at the Griesmer bound, not above" `Quick
            test_double_lex_at_bound;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "Table 1 minimality, k = 4, md 3-8" `Quick
            test_table1_minimality;
          Alcotest.test_case "minimal check len md 3" `Quick test_minimize_check_len_md3;
          Alcotest.test_case "minimal check len md 2" `Quick test_minimize_check_len_md2;
          Alcotest.test_case "minimal check len md 4" `Slow test_minimize_check_len_md4;
          Alcotest.test_case "set-bit minimization walk" `Slow test_minimize_set_bits_walk;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "float32 weights split" `Slow
            test_weighted_prefers_strong_generator_for_heavy_bits;
          Alcotest.test_case "optimal vs brute force" `Quick
            test_weighted_optimal_against_bruteforce;
          Alcotest.test_case "input validation" `Quick test_weighted_rejects_bad_input;
        ] );
      ( "multibit-synth",
        [
          Alcotest.test_case "synthesize 2-distinguishing" `Quick test_multibit_synthesis;
          Alcotest.test_case "beats manual §6 matrix" `Slow test_multibit_beats_manual_construction;
          Alcotest.test_case "input validation" `Quick test_multibit_rejects_bad_input;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "ver_conflicts reported" `Quick test_ver_conflicts_reported;
          Alcotest.test_case "jobs=1 matches sequential" `Quick
            test_portfolio_jobs1_matches_sequential;
          Alcotest.test_case "jobs=4 no torn results" `Slow
            test_portfolio_jobs4_no_torn_results;
          Alcotest.test_case "unsat decides the race" `Quick
            test_portfolio_unsat_is_shared;
          Alcotest.test_case "restart rounds carry the pool" `Slow
            test_portfolio_restart_rounds;
          Alcotest.test_case "encodings agree on distance" `Quick
            test_portfolio_encodings_agree_on_distance;
          Alcotest.test_case "verification race" `Quick
            test_portfolio_verification_race;
        ] );
      ( "verify",
        [
          Alcotest.test_case "ieee (128,120) §4.1" `Slow test_verify_ieee_md3;
          Alcotest.test_case "property language" `Quick test_verify_property_language;
        ] );
      ( "driver",
        [
          Alcotest.test_case "paper §3.1 example" `Quick test_driver_paper_example;
          Alcotest.test_case "pinned entry" `Quick test_driver_fixed_entry;
          Alcotest.test_case "weighted dispatch" `Slow test_driver_weighted;
          Alcotest.test_case "maximal(md)" `Quick test_driver_maximal_md;
          Alcotest.test_case "unsupported shapes" `Quick test_driver_rejects_unsupported;
          Alcotest.test_case "unsat reported" `Quick test_driver_reports_unsat;
        ] );
    ]
