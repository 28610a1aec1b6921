open Gf2

(* Enumerate data words of a given weight, calling [f] on each.  Stops and
   returns [Some x] as soon as [f] does. *)
let iter_weight k w f =
  let idx = Array.init w Fun.id in
  let exception Stop in
  let result = ref None in
  let d = Bitvec.create k in
  (try
     if w > k then ()
     else begin
       let continue = ref true in
       while !continue do
         Array.iter (fun i -> Bitvec.set d i true) idx;
         (match f d with
         | Some _ as r ->
             result := r;
             raise Stop
         | None -> ());
         Array.iter (fun i -> Bitvec.set d i false) idx;
         (* advance the combination idx to the next k-subset *)
         let rec bump pos =
           if pos < 0 then continue := false
           else if idx.(pos) < k - (w - pos) then begin
             idx.(pos) <- idx.(pos) + 1;
             for q = pos + 1 to w - 1 do
               idx.(q) <- idx.(q - 1) + 1
             done
           end
           else bump (pos - 1)
         in
         bump (w - 1)
       done
     end
   with Stop -> ());
  !result

(* ---------- int-mask kernel ---------- *)

(* With every check bit in one native int, the check part of a data
   word's codeword is the XOR of the P-row masks of its set bits, and its
   weight a popcount.  Wider codes keep the [Bitvec] path above. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let row_masks code =
  if Code.check_len code > Sys.int_size then None
  else
    let p = Code.coefficient_matrix code in
    Some
      (Array.init (Code.data_len code) (fun i ->
           let acc = ref 0 in
           Bitvec.iter_set (fun j -> acc := !acc lor (1 lsl j)) (Matrix.row p i);
           !acc))

(* [scan_masks rows w visit] walks the w-subsets of the data bits in the
   same lexicographic order as [iter_weight], keeping the XOR of each
   prefix of the subset, so the usual step (bumping the last index) costs
   one XOR.  It stops at the first subset whose check mask [visit]
   accepts and returns that subset's indices. *)
let scan_masks rows w visit =
  let k = Array.length rows in
  if w < 1 || w > k then None
  else begin
    let idx = Array.init w Fun.id in
    let acc = Array.make w 0 in
    (* refresh the prefix XORs from position [pos] on *)
    let refresh pos =
      for q = pos to w - 1 do
        acc.(q) <- (if q = 0 then 0 else acc.(q - 1)) lxor rows.(idx.(q))
      done
    in
    refresh 0;
    let found = ref false and continue = ref true in
    while !continue do
      if visit acc.(w - 1) then begin
        found := true;
        continue := false
      end
      else begin
        (* advance idx to the next w-subset, as [iter_weight] does *)
        let pos = ref (w - 1) in
        while !pos >= 0 && idx.(!pos) >= k - (w - !pos) do
          decr pos
        done;
        if !pos < 0 then continue := false
        else begin
          idx.(!pos) <- idx.(!pos) + 1;
          for q = !pos + 1 to w - 1 do
            idx.(q) <- idx.(q - 1) + 1
          done;
          refresh !pos
        end
      end
    done;
    if !found then Some idx else None
  end

(* Minimum codeword weight restricted to data words of weight [w]. *)
let best_at_weight code w bound =
  let best = ref bound in
  (match row_masks code with
  | Some rows ->
      ignore
        (scan_masks rows w (fun checks ->
             let cw = w + popcount checks in
             if cw < !best then best := cw;
             false))
  | None ->
      ignore
        (iter_weight (Code.data_len code) w (fun d ->
             let cw = Bitvec.popcount (Code.encode code d) in
             if cw < !best then best := cw;
             None)));
  !best

let min_distance code =
  let k = Code.data_len code in
  if k = 0 then invalid_arg "Distance.min_distance: code has no data bits";
  let best = ref (Code.block_len code + 1) in
  let w = ref 1 in
  (* codeword weight >= data weight: once w exceeds the best weight found,
     heavier data words cannot improve it *)
  while !w <= !best && !w <= k do
    best := best_at_weight code !w !best;
    incr w
  done;
  !best

let counterexample ?interrupt code m =
  let k = Code.data_len code in
  (* cooperative cancellation: poll every 8192 enumerated words *)
  let poll =
    match interrupt with
    | None -> fun () -> ()
    | Some f ->
        let n = ref 0 in
        fun () ->
          incr n;
          if !n land 8191 = 0 && f () then raise Smtlite.Ctx.Interrupted
  in
  let at_weight =
    match row_masks code with
    | Some rows ->
        fun w ->
          scan_masks rows w (fun checks ->
              poll ();
              w + popcount checks < m)
          |> Option.map (fun idx ->
                 let d = Bitvec.create k in
                 Array.iter (fun i -> Bitvec.set d i true) idx;
                 d)
    | None ->
        fun w ->
          iter_weight k w (fun d ->
              poll ();
              if Bitvec.popcount (Code.encode code d) < m then Some (Bitvec.copy d)
              else None)
  in
  let rec go w =
    if w >= m || w > k then None
    else match at_weight w with Some d -> Some d | None -> go (w + 1)
  in
  go 1

let has_min_distance_at_least code m = counterexample code m = None

let has_min_distance code m =
  has_min_distance_at_least code m && not (has_min_distance_at_least code (m + 1))

(* ---------- SAT-based checking (paper §3.2 verifier methodology) ---------- *)

open Smtlite

(* Build the symbolic encoding of "there is a non-zero data word whose
   codeword has weight < m" and return it together with the data
   variables. *)
let encode_violation ?(encoding = Card.Sequential) code m =
  let k = Code.data_len code and c = Code.check_len code in
  let p = Code.coefficient_matrix code in
  let data = List.init k (fun i -> Expr.var i) in
  let data_arr = Array.of_list data in
  (* check bit j is the parity of data bits selected by column j of P *)
  let checks =
    List.init c (fun j ->
        let selected = ref [] in
        for i = 0 to k - 1 do
          if Matrix.get p i j then selected := data_arr.(i) :: !selected
        done;
        Expr.xor_l !selected)
  in
  let word = data @ checks in
  let nonzero = Expr.or_ data in
  let light = Card.at_most encoding word (m - 1) in
  (Expr.and_ [ nonzero; light ], data)

let sat_counterexample ?deadline ?interrupt ?encoding ?seed ?conflicts code m =
  if m <= 1 then None
  else begin
    let violation, data = encode_violation ?encoding code m in
    let ctx = Ctx.create () in
    (match seed with Some s -> Ctx.set_seed ctx s | None -> ());
    (match interrupt with Some _ -> Ctx.set_interrupt ctx interrupt | None -> ());
    Ctx.assert_ ctx violation;
    (* account the verifier's conflicts even when the check is cut short *)
    let record () =
      match conflicts with
      | Some r -> r := !r + (Ctx.stats ctx).Sat.Solver.conflicts
      | None -> ()
    in
    Fun.protect ~finally:record (fun () ->
        match Ctx.check ?deadline ctx with
        | Ctx.Unsat -> None
        | Ctx.Sat ->
            let k = Code.data_len code in
            Some (Bitvec.init k (fun i -> Ctx.model_bool ctx (List.nth data i))))
  end

let sat_has_min_distance_at_least ?deadline code m =
  sat_counterexample ?deadline code m = None

let certified_min_distance_at_least ?deadline code m =
  if m <= 1 then `Certified "" (* vacuous: any non-trivial code has md >= 1 *)
  else begin
    let violation, data = encode_violation code m in
    let ctx = Ctx.create ~proof:true () in
    Ctx.assert_ ctx violation;
    match Ctx.check ?deadline ctx with
    | Ctx.Sat ->
        let k = Code.data_len code in
        `Refuted (Bitvec.init k (fun i -> Ctx.model_bool ctx (List.nth data i)))
    | Ctx.Unsat -> (
        match Ctx.certificate ctx with
        | None -> failwith "Distance.certified: proof recording was not enabled"
        | Some (formula, proof) -> (
            match Sat.Drat.check ~formula proof with
            | Sat.Drat.Valid -> `Certified proof
            | Sat.Drat.Invalid msg ->
                failwith ("Distance.certified: solver emitted an invalid proof: " ^ msg)))
  end
