(* The benchmark's oracles accept right answers and reject corrupted ones. *)

open Perfbench
module Code = Hamming.Code

let fails what = function
  | Ok () -> failwith (what ^ ": corrupted answer accepted")
  | Error _ -> ()

let ok what = function Ok () -> () | Error e -> failwith (what ^ ": " ^ e)

let () =
  (* the [8,4,4] extended Hamming code *)
  let good = Code.of_string "10000111\n01001011\n00101101\n00011110" in
  ok "extended hamming" (Oracle.check_generator ~data_len:4 ~check_len:4 ~md:4 good);
  ok "optimize k=4 md=4" (Oracle.check_optimize ~data_len:4 ~md:4 ~check_len:4 good);
  (* one coefficient bit flipped: the distance drops below 4 *)
  let p = Gf2.Matrix.copy (Code.coefficient_matrix good) in
  Gf2.Matrix.set p 0 0 (not (Gf2.Matrix.get p 0 0));
  let bad = Code.make ~p in
  fails "flipped coefficient" (Oracle.check_generator ~data_len:4 ~check_len:4 ~md:4 bad);
  fails "wrong shape" (Oracle.check_generator ~data_len:5 ~check_len:4 ~md:4 good);
  (* a walk that stopped one check bit late, or one that claims too few *)
  fails "optimize too long" (Oracle.check_optimize ~data_len:4 ~md:3 ~check_len:4 good);
  fails "optimize too short" (Oracle.check_optimize ~data_len:4 ~md:5 ~check_len:4 good);
  (* the sweep agrees with the library's enumeration on every code *)
  List.iter
    (fun c ->
      let lib = Hamming.Distance.min_distance c in
      match Oracle.sweep_md c with
      | Some s when s = lib -> ()
      | s ->
          failwith
            (Printf.sprintf "sweep %s vs library %d on\n%s"
               (match s with Some s -> string_of_int s | None -> "-")
               lib (Code.to_string c)))
    [ good; bad; Hamming.Catalog.perfect 3; Hamming.Catalog.perfect 4 ];
  (* codec outputs: the compiled codec matches, a corrupted one does not *)
  let fc = Hamming.Fastcodec.compile good in
  for d = 0 to 15 do
    ok "mask codec" (Oracle.check_encoding good fc.Hamming.Fastcodec.encode d)
  done;
  fails "corrupted codec" (Oracle.check_encoding good (fun d -> fc.Hamming.Fastcodec.encode d lxor 0x80) 5);
  print_endline "oracle_test: ok"
