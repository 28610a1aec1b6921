open Smtlite

type gen_shape = { check_len : int; min_distance : int }

type result = {
  mapping : int array;
  sum_w : float;
  counts : int * int;
  codes : Hamming.Code.t * Hamming.Code.t;
  iterations : int;
  elapsed : float;
}

(* Per-bit cost if the bit lands on a generator with [t] data bits in
   total: the paper's chooseTimesPow approximation. *)
let cost ~p shape t =
  if t = 0 then 0.0
  else
    Hamming.Robustness.choose_times_pow ~n:(t + shape.check_len)
      ~m:shape.min_distance ~p

let sum_w_of ~p ~weights ~mapping g0 g1 =
  let l = Array.length weights in
  if Array.length mapping <> l then invalid_arg "Weighted.sum_w_of: length mismatch";
  let t0 = Array.fold_left (fun acc g -> if g = 0 then acc + 1 else acc) 0 mapping in
  let t1 = l - t0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun j g ->
      let c = if g = 0 then cost ~p g0 t0 else cost ~p g1 t1 in
      acc := !acc +. (float_of_int weights.(j) *. c))
    mapping;
  !acc

let scale = 1_000_000_000.0

let optimize ?(timeout = 360.0) ?(p = 0.1) ?(initial_bound = 1000.0)
    ?(interrupt = fun () -> false) ~weights g0 g1 =
  let l = Array.length weights in
  if l = 0 then invalid_arg "Weighted.optimize: empty weights";
  if g0.check_len < 1 || g1.check_len < 1 then
    invalid_arg "Weighted.optimize: check lengths must be positive";
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Weighted.optimize: negative weight";
  let start = Unix.gettimeofday () in
  let deadline = start +. timeout in
  let ctx = Ctx.create () in
  Ctx.set_interrupt ctx (Some interrupt);
  let xs = Fresh.make_n l in
  (* x_j true <=> bit j mapped to generator 0 *)
  let xs_arr = Array.of_list xs in
  (* both generators must carry at least one bit *)
  Ctx.assert_ ctx (Card.at_least Card.Sequential xs 1);
  Ctx.assert_ ctx (Card.at_most Card.Sequential xs (l - 1));
  (* unary count of bits on generator 0 *)
  let u = Card.counts Card.Sequential xs in
  let sel_t t =
    if t = 0 then Expr.not_ u.(0)
    else if t = l then u.(l - 1)
    else Expr.and_ [ u.(t - 1); Expr.not_ u.(t) ]
  in
  (* symbolic weighted sums per side *)
  let w0 =
    Bv.sum (List.mapi (fun j x -> Bv.scale weights.(j) [| x |]) xs)
  in
  let w1 =
    Bv.sum (List.mapi (fun j x -> Bv.scale weights.(j) [| Expr.not_ x |]) xs)
  in
  let scaled f = int_of_float (Float.round (f *. scale)) in
  (* assert: under the active count t, a_t*W0 + b_t*W1 <= bound *)
  let bound_constraint bound_scaled =
    let per_t t =
      let a = scaled (cost ~p g0 t) and b = scaled (cost ~p g1 (l - t)) in
      let lhs = Bv.add (Bv.scale a w0) (Bv.scale b w1) in
      Expr.imp (sel_t t)
        (Bv.ule lhs (Bv.of_int ~width:62 bound_scaled))
    in
    Expr.and_ (List.init (l + 1) per_t)
  in
  let stats = ref Report.Stats.zero in
  let totals () =
    { !stats with Report.Stats.elapsed = Unix.gettimeofday () -. start }
  in
  (* walk the bound down until UNSAT proves the last mapping optimal (or
     the objective reaches 0); [None] when no mapping meets the bound *)
  let rec search bound best =
    Ctx.push ctx;
    Ctx.assert_ ctx (bound_constraint bound);
    stats := { !stats with iterations = !stats.Report.Stats.iterations + 1 };
    match Ctx.check ~deadline ctx with
    | Ctx.Unsat ->
        Ctx.pop ctx;
        best
    | Ctx.Sat ->
        let mapping =
          Array.map (fun x -> if Ctx.model_bool ctx x then 0 else 1) xs_arr
        in
        let achieved = sum_w_of ~p ~weights ~mapping g0 g1 in
        Ctx.pop ctx;
        let next = scaled achieved - 1 in
        if next < 0 then Some (mapping, achieved)
        else search next (Some (mapping, achieved))
  in
  let exception Refuted in
  let exception Cut in
  (* the generator of one side of a split, within the job's deadline *)
  let shape_code ~data_len { check_len; min_distance } =
    let outcome =
      Cegis.synthesize
        ~timeout:(deadline -. Unix.gettimeofday ())
        ~interrupt
        { Cegis.data_len; check_len; min_distance; extra = [] }
    in
    stats := Report.Stats.add !stats (Report.outcome_info outcome);
    match outcome with
    | Report.Synthesized (code, _) -> code
    | Report.Unsat_config _ -> raise Refuted
    | Report.Timed_out _ | Report.Partial _ -> raise Cut
  in
  (* the optimal mapping whose split admits both generator shapes: a
     refuted shape blocks its split count and the bound search resumes *)
  let rec settle () =
    match search (scaled initial_bound) None with
    | None -> Report.Unsat_config (totals ())
    | Some (mapping, sum_w) -> (
        let t0 = Array.fold_left (fun acc g -> if g = 0 then acc + 1 else acc) 0 mapping in
        let t1 = l - t0 in
        match
          let code0 = shape_code ~data_len:t0 g0 in
          (code0, shape_code ~data_len:t1 g1)
        with
        | exception Refuted ->
            Ctx.assert_ ctx (Expr.not_ (sel_t t0));
            settle ()
        | codes ->
            let ({ Report.Stats.iterations; elapsed; _ } as totals) = totals () in
            Report.Synthesized
              ({ mapping; sum_w; counts = (t0, t1); codes; iterations; elapsed }, totals))
  in
  try settle ()
  with Ctx.Timeout | Ctx.Interrupted | Cut -> Report.Timed_out (totals ())
