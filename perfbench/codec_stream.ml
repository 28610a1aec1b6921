(* The codec-stream probe of every traced run: the data plane alone.  A
   fixed family of (16,7) generators with spread set-bit counts (the Fig. 5
   axis) is compiled into the mask, xor-chain and naive [Hamming.Fastcodec]
   codecs; a seeded word stream goes through encode -> binary symmetric
   channel -> correct on each of them and through [Channel.Montecarlo.run],
   one span per codec call.  It is not a timed workload of its own: its
   batch times follow the machine's speed too closely to gate on. *)

open Common
module Code = Hamming.Code
module Fc = Hamming.Fastcodec

let data_len = 16
let check_len = 7
let crossover = 0.01
let batch_words = 512

(* (name, compiler, words of each batch it codes): the naive codec, the
   unoptimized reference, takes an eighth of the batch so the compiled
   codecs are not drowned in its cost *)
let kinds =
  [
    ("mask", Fc.compile, batch_words);
    ("xor_chain", Fc.compile_sparse, batch_words);
    ("naive", Fc.compile_naive, batch_words / 8);
  ]

(* the [data_len] smallest [check_len]-bit values of popcount [w] *)
let rows_of_weight w =
  let rec go v acc =
    if List.length acc = data_len then Array.of_list (List.rev acc)
    else if v >= 1 lsl check_len then invalid_arg "rows_of_weight"
    else go (v + 1) (if Oracle.popcount v = w then v :: acc else acc)
  in
  go 1 []

(* Distinct coefficient rows of weight >= 2 make every column of H distinct
   and non-zero, so each member corrects single errors (md >= 3); the row
   weight sets the generator's set-bit count: 32, 48, 64, 80. *)
let family () =
  List.map
    (fun w ->
      let rows = rows_of_weight w in
      Code.make
        ~p:(Gf2.Matrix.init ~rows:data_len ~cols:check_len (fun i j ->
                (rows.(i) lsr j) land 1 = 1)))
    [ 2; 3; 4; 5 ]

type fixture = {
  code : Code.t;
  codecs : (string * Fc.t * int) list;  (** name, codec, words per batch *)
  mc : Channel.Montecarlo.codec;
}

(* One batch of seeded inputs: data words and the binary symmetric
   channel's error patterns for [width]-bit codewords. *)
let draw prng ~width ~words =
  let data = Array.init words (fun _ -> Channel.Prng.bits prng ~n:data_len) in
  let errs = Array.init words (fun _ -> Channel.Bsc.error_mask prng ~p:crossover ~width) in
  (data, errs)

(* [stream codec data errs ~words] pushes the first [words] words through
   encode, the channel and correction.  A word hit by at most one flip
   must come back as the sent codeword; the count of those that do not is
   returned. *)
let stream (fc : Fc.t) data errs ~words =
  let bad = ref 0 in
  for i = 0 to words - 1 do
    let cw = fc.Fc.encode data.(i) in
    let e = errs.(i) in
    let single = e land (e - 1) = 0 in
    match fc.Fc.correct (cw lxor e) with
    | Some w -> if single && w <> cw then incr bad
    | None -> if single then incr bad
  done;
  !bad

(* Bit-exact spot check of a codec against the reference encoder. *)
let spot_check ~wrong ~what code (fc : Fc.t) prng n =
  for _ = 1 to n do
    match Oracle.check_encoding code fc.Fc.encode (Channel.Prng.bits prng ~n:fc.Fc.data_len) with
    | Ok () -> ()
    | Error e -> wrong := (what ^ ": " ^ e) :: !wrong
  done

let setup ~wrong =
  Oracle.forget ();
  List.map
    (fun code ->
      (match Oracle.check_generator ~data_len ~check_len ~md:3 code with
      | Ok () -> ()
      | Error e -> wrong := ("family: " ^ e) :: !wrong);
      let codecs = List.map (fun (name, compile, words) -> (name, compile code, words)) kinds in
      let prng = Channel.Prng.create 7 in
      List.iter (fun (name, fc, _) -> spot_check ~wrong ~what:name code fc prng 256) codecs;
      { code; codecs; mc = Channel.Montecarlo.codec_of_code code })
    (family ())

(* One batch: fresh inputs through every codec of every family member,
   then one Monte-Carlo trial on a rotating member. *)
let run_batch fixtures prng ~seed ~req ~wrong ~bad ~minor =
  let n = List.length fixtures in
  let data, errs =
    Span.span ~req "channel.draw" (fun _ -> draw prng ~width:(data_len + check_len) ~words:batch_words)
  in
  List.iter
    (fun f ->
      List.iter
        (fun (name, fc, words) ->
          let m0 = Gc.minor_words () in
          bad := !bad + Span.span ~req ("codec." ^ name) (fun _ -> stream fc data errs ~words);
          minor := !minor +. (Gc.minor_words () -. m0))
        f.codecs)
    fixtures;
  let f = List.nth fixtures (req mod n) in
  let r =
    Span.span ~req "montecarlo.run" (fun _ ->
        Channel.Montecarlo.run ~codec:f.mc ~md:3 ~words:batch_words ~p:crossover
          ~seed:(seed + req) (Channel.Montecarlo.uniform_data f.mc))
  in
  if r.Channel.Montecarlo.words <> batch_words
     || r.Channel.Montecarlo.undetected > r.Channel.Montecarlo.flips_ge_md
  then wrong := Printf.sprintf "montecarlo batch %d: inconsistent counts" req :: !wrong

(* [probe ~seed ~wrong] streams batches for a second and returns the
   codec.* and montecarlo.* per-layer metrics. *)
let probe ~seed ~wrong =
  let fixtures = setup ~wrong in
  let prng = Channel.Prng.create seed in
  let check = Channel.Prng.create (seed + 1) in
  let bad = ref 0 and minor = ref 0.0 and req = ref 0 in
  let t_end = now () +. 1.0 in
  while !req = 0 || now () < t_end do
    incr req;
    run_batch fixtures prng ~seed ~req:!req ~wrong ~bad ~minor;
    List.iter
      (fun f -> List.iter (fun (name, fc, _) -> spot_check ~wrong ~what:name f.code fc check 2) f.codecs)
      fixtures
  done;
  if !bad > 0 then wrong := Printf.sprintf "%d single-flip words not corrected" !bad :: !wrong;
  let per_word out span words =
    let ds = Span.durations span in
    metric ~samples:(List.length ds) out "ns" (sum ds /. float_of_int (List.length ds * words) *. 1e9)
  in
  let codec_words = !req * List.length fixtures * List.fold_left (fun acc (_, _, w) -> acc + w) 0 kinds in
  List.map (fun (name, _, words) -> per_word ("codec." ^ name ^ "_ns_per_word") ("codec." ^ name) words) kinds
  @ [
      metric ~samples:codec_words "codec.alloc_words_per_word" "word" (!minor /. float_of_int codec_words);
      per_word "montecarlo.ns_per_word" "montecarlo.run" batch_words;
    ]
