(* Answer oracles.  None of them goes through the SAT solver: distances
   are recomputed by exact enumeration (the library's
   [Hamming.Distance.min_distance] and an independent Gray-code sweep
   over packed generator rows, which must agree), optimize answers are
   compared against a hand-written table, and codec outputs against the
   bit-vector reference encoder [Hamming.Code.encode]. *)

module Code = Hamming.Code

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* trailing-zero count of a non-zero int *)
let ctz x =
  let rec go x n = if x land 1 = 1 then n else go (x lsr 1) (n + 1) in
  go x 0

let pack_row g i =
  let w = ref 0 in
  for j = Gf2.Matrix.cols g - 1 downto 0 do
    w := (!w lsl 1) lor if Gf2.Matrix.get g i j then 1 else 0
  done;
  !w

(* Largest data length the Gray-code sweep enumerates (2^k codewords). *)
let sweep_max_k = 22

(* Exact minimum distance by visiting every non-zero codeword in Gray-code
   order, one XOR of a generator row per step; [None] when the code is
   too large for the sweep. *)
let sweep_md code =
  let k = Code.data_len code in
  if k > sweep_max_k || Code.block_len code > 62 then None
  else begin
    let g = Code.generator code in
    let rows = Array.init k (pack_row g) in
    let best = ref max_int and w = ref 0 in
    for i = 1 to (1 lsl k) - 1 do
      w := !w lxor rows.(ctz i);
      let p = popcount !w in
      if p < !best then best := p
    done;
    Some !best
  end

(* Hand-written minimal check lengths for k = 4 data bits (the Griesmer
   bound, met by the Table 1 optimize walks). *)
let optimize_k4 = [ (3, 3); (4, 4); (5, 7); (6, 8); (7, 10); (8, 11) ]

let memo : (string, (unit, string) result) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()

(* Drop memoized verdicts, so a repeated set-up pays for its checks again. *)
let forget () = Mutex.protect memo_lock (fun () -> Hashtbl.reset memo)

(* [check_generator ~data_len ?check_len ~md code] accepts a generator of
   the requested shape whose exact minimum distance reaches [md].
   Verdicts are memoized per (matrix, target). *)
let check_generator ~data_len ?check_len ~md code =
  let shape_ok =
    Code.data_len code = data_len
    && match check_len with Some c -> Code.check_len code = c | None -> true
  in
  if not shape_ok then
    Error
      (Printf.sprintf "shape (%d,%d), wanted data_len %d%s" (Code.data_len code)
         (Code.check_len code) data_len
         (match check_len with Some c -> Printf.sprintf " check_len %d" c | None -> ""))
  else begin
    let key = Printf.sprintf "%d|%s" md (Code.to_string code) in
    match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
    | Some v -> v
    | None ->
        let d = Hamming.Distance.min_distance code in
        let v =
          match sweep_md code with
          | Some s when s <> d ->
              Error (Printf.sprintf "enumerations disagree: %d vs sweep %d" d s)
          | _ when d < md -> Error (Printf.sprintf "md %d < target %d" d md)
          | _ -> Ok ()
        in
        Mutex.protect memo_lock (fun () -> Hashtbl.replace memo key v);
        v
  end

(* An optimize answer: the minimal check length must match the table, and
   the generator must prove its distance at that length. *)
let check_optimize ~data_len ~md ~check_len code =
  match if data_len = 4 then List.assoc_opt md optimize_k4 else None with
  | None -> Error (Printf.sprintf "no expected value for k=%d md=%d" data_len md)
  | Some want when want <> check_len ->
      Error (Printf.sprintf "k=%d md=%d: check_len %d, expected %d" data_len md check_len want)
  | Some _ -> check_generator ~data_len ~check_len ~md code

(* [check_encoding code encode d] compares one packed codeword against the
   bit-vector reference encoder. *)
let check_encoding code encode d =
  let k = Code.data_len code in
  let want =
    Hamming.Fastcodec.int_of_bitvec
      (Code.encode code (Hamming.Fastcodec.bitvec_of_int ~len:k d))
  in
  let got = encode d in
  if got = want then Ok ()
  else Error (Printf.sprintf "encode %#x: got %#x, reference %#x" d got want)
