(** Synthesis of multi-bit-error-detecting codes — the extension the
    paper's §6 sketches as future work ("add number of correctable bit
    errors as a property in the synthesizer, which may allow us to correct
    multi-bit errors using fewer check bits than the manually-crafted
    check matrix").

    The target property: every error pattern of weight 1..[e] has a
    distinct non-zero syndrome, so the decoder can identify (and repair)
    the exact pattern.  The CEGIS verifier finds two patterns with equal
    syndromes (or one with a zero syndrome); the counterexample constraint
    forces the symbolic check matrix to separate them. *)

(** [synthesize ?timeout ~data_len ~check_len ~distinguish ()] searches for
    a coefficient matrix whose code distinguishes all error patterns of
    weight up to [distinguish].
    @raise Invalid_argument if [distinguish < 1]. *)
val synthesize :
  ?timeout:float ->
  data_len:int ->
  check_len:int ->
  distinguish:int ->
  unit ->
  (Hamming.Code.t, Report.Stats.t) Report.outcome

(** [minimize_check_len ?timeout ~data_len ~distinguish ~check_lo ~check_hi ()]
    walks check lengths upward to the first synthesizable one — answering
    §6's question of how few check bits suffice — as the
    {!Driver.min_check_len} task. *)
val minimize_check_len :
  ?timeout:float ->
  data_len:int ->
  distinguish:int ->
  check_lo:int ->
  check_hi:int ->
  unit ->
  Driver.outcome
