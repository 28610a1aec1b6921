(* A CDCL solver engineered for raw propagation speed.

   The layout is MiniSat/Glucose-shaped but flattened:

   - Clauses of size >= 3 live in one flat int arena (a Bigarray, so
     loads are unboxed and bounds-unchecked on the hot path), addressed
     by word offsets ("crefs").  Layout at cref:
       [0] header = size lsl 2 | learnt lsl 1 | deleted
       [1] LBD (learnt clauses; 0 for originals), doubles as the
           forwarding slot during arena compaction
       [2..2+size-1] literal codes
   - Binary clauses never touch the arena: a dedicated implication
     store maps each literal p to the array of literals directly
     implied when p is assigned true.  Propagating a binary costs one
     array read and one value lookup — no clause dereference at all.
   - Watch lists are flat int arrays of (cref, blocker) pairs.  A
     watcher whose blocking literal is already true is skipped without
     touching the arena.
   - [vals] is indexed by literal code (1 true / -1 false / 0 unset),
     set pairwise on assignment, so literal valuation is one load.
   - reasons are tagged ints: -1 none, even = cref lsl 1, odd =
     (other_literal lsl 1) | 1 for binary propagation.
   - cref 0 is a reserved 2-literal scratch clause used to materialize
     binary conflicts for conflict analysis; real clauses start at 4.

   Learnt clauses carry their LBD (number of distinct decision levels,
   computed at learn time); database reduction is glue-aware: glue
   clauses (LBD <= 2), locked clauses and binaries are never removed,
   the worst half by (LBD, size) goes first.  Inprocessing (on-the-fly
   backward subsumption + self-subsuming resolution) runs at restart
   boundaries every [inprocess_interval] conflicts; every rewrite is
   DRAT-logged (strengthened clause added before the fat one is
   deleted, so the proof stays a valid RUP sequence).  The arena is
   compacted when enough of it is dead. *)

exception Interrupted

type result = Sat | Unsat

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  max_learnt_size : int;
  reduces : int;
  subsumed : int;
  strengthened : int;
  compactions : int;
}

type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba_get : arena -> int -> int = Bigarray.Array1.unsafe_get
let ba_set : arena -> int -> int -> unit = Bigarray.Array1.unsafe_set

type t = {
  mutable nvars : int;
  mutable var_cap : int;
      (* variables the per-variable arrays below have room for; the
         per-literal ones hold twice as many entries *)
  (* clause arena *)
  mutable arena : arena;
  mutable arena_size : int; (* first free word *)
  mutable arena_wasted : int; (* words owned by deleted clauses *)
  clauses : int Vec.t; (* crefs of original size>=3 clauses *)
  mutable learnts : int Vec.t; (* crefs of learnt size>=3 clauses *)
  mutable n_live_orig : int; (* live stored originals, incl. binaries *)
  (* watchers: per literal, flat (cref, blocker) pairs *)
  mutable w_data : int array array;
  mutable w_size : int array;
  (* binary implication store: per literal, implied literals *)
  mutable bin_data : int array array;
  mutable bin_size : int array;
  (* assignment *)
  mutable vals : int array; (* per literal code: 0 / 1 / -1 *)
  mutable level : int array; (* per var *)
  mutable reason : int array; (* per var: tagged, -1 = none *)
  mutable polarity : bool array; (* saved phases *)
  mutable activity : float array; (* VSIDS *)
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_pos : int array; (* var -> heap index, or -1 *)
  mutable heap_size : int;
  mutable trail : int array; (* literal codes, assignment order *)
  mutable trail_size : int;
  trail_lim : int Vec.t; (* trail size at each decision level *)
  mutable qhead : int;
  mutable okay : bool;
  mutable kept : Lit.t list option;
      (* assumptions of the last [Sat] whose trail is still kept, or None *)
  mutable late_units : (int * int * int) list;
      (* (literal, tagged reason, level): added clauses that are unit at
         [level] but satisfied by their literal from a higher level *)
  mutable late_ready : bool; (* a backtrack may have freed a late unit *)
  mutable resume_min_trail : int; (* shortest trail a [Sat] keeps *)
  mutable var_inc : float;
  mutable max_learnts : float;
  mutable reduce_limit : int option; (* test knob: pin max_learnts *)
  mutable inprocess_interval : int option; (* None = inprocessing off *)
  mutable conflicts_at_inprocess : int;
  mutable seen : bool array; (* scratch for analyze *)
  mutable level_stamp : int array; (* scratch for LBD *)
  mutable stamp_ctr : int;
  mutable model_ : bool array; (* per var; the last model's first [model_len] *)
  mutable model_len : int;
  mutable model_valid : bool;
  mutable intake : int array; (* [add_clause]'s literal codes *)
  mutable interrupt : (unit -> bool) option;
  mutable rng : int64 option; (* None = deterministic default search *)
  mutable proof_log : Buffer.t option;
  mutable originals : Lit.t list list; (* asserted clauses, for proof checking *)
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learnt_literals : int;
  mutable max_learnt_size_ : int;
  mutable n_reduces : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_compactions : int;
  learnt_hist : Telemetry.Metrics.Histogram.t; (* learnt clause sizes *)
  (* inner-loop phase timing, accumulated only while a trace is live
     ([timing]); shipped as per-solve deltas on the sat.solve span *)
  mutable timing : bool;
  mutable t_propagate : float;
  mutable t_analyze : float;
  mutable t_restart : float;
}

let var_decay = 1.0 /. 0.95

(* Shortest trail a [Sat] keeps for the next solve to resume.
   Re-deriving a short assignment costs next to nothing, while a
   repair's candidate sits next to the last one, which on small specs
   costs conflicts and CEGIS iterations; from about 2000 literals on,
   the re-derivation a repair saves dominates.  Chosen by measurement
   across seeds of the synth-mix specs. *)
let default_resume_min_trail = 2000

(* ---------- arena primitives ---------- *)

let cref_scratch = 0
let arena_start = 4

let header_make ~size ~learnt = (size lsl 2) lor (if learnt then 2 else 0)
let header_size h = h lsr 2
let header_learnt h = h land 2 <> 0
let header_deleted h = h land 1 <> 0

let make_arena cap : arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap

let create () =
  let arena = make_arena 1024 in
  (* reserved scratch clause for materializing binary conflicts *)
  ba_set arena cref_scratch (header_make ~size:2 ~learnt:false);
  ba_set arena 1 0;
  ba_set arena 2 0;
  ba_set arena 3 0;
  {
    nvars = 0;
    var_cap = 0;
    arena;
    arena_size = arena_start;
    arena_wasted = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    n_live_orig = 0;
    w_data = [||];
    w_size = [||];
    bin_data = [||];
    bin_size = [||];
    vals = [||];
    level = [||];
    reason = [||];
    polarity = [||];
    activity = [||];
    heap = [||];
    heap_pos = [||];
    heap_size = 0;
    trail = [||];
    trail_size = 0;
    trail_lim = Vec.create ();
    qhead = 0;
    okay = true;
    kept = None;
    late_units = [];
    late_ready = false;
    resume_min_trail = default_resume_min_trail;
    var_inc = 1.0;
    max_learnts = 0.0;
    reduce_limit = None;
    inprocess_interval = Some 8000;
    conflicts_at_inprocess = 0;
    seen = [||];
    level_stamp = [||];
    stamp_ctr = 0;
    model_ = [||];
    model_len = 0;
    model_valid = false;
    intake = Array.make 16 0;
    interrupt = None;
    rng = None;
    proof_log = None;
    originals = [];
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learnt_literals = 0;
    max_learnt_size_ = 0;
    n_reduces = 0;
    n_subsumed = 0;
    n_strengthened = 0;
    n_compactions = 0;
    learnt_hist = Telemetry.Metrics.Histogram.create ();
    timing = false;
    t_propagate = 0.0;
    t_analyze = 0.0;
    t_restart = 0.0;
  }

let nvars s = s.nvars
let nclauses s = s.n_live_orig
let ok s = s.okay

let arena_alloc s words =
  let cap = Bigarray.Array1.dim s.arena in
  if s.arena_size + words > cap then begin
    let ncap = max (s.arena_size + words) (cap * 2) in
    let na = make_arena ncap in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub s.arena 0 s.arena_size)
      (Bigarray.Array1.sub na 0 s.arena_size);
    s.arena <- na
  end;
  let cr = s.arena_size in
  s.arena_size <- s.arena_size + words;
  cr

(* Store the size>=3 clause [lits.(0) .. lits.(size - 1)] in the arena;
   returns its cref. *)
let alloc_clause s lits size ~learnt ~lbd =
  let cr = arena_alloc s (2 + size) in
  let a = s.arena in
  ba_set a cr (header_make ~size ~learnt);
  ba_set a (cr + 1) lbd;
  for i = 0 to size - 1 do
    ba_set a (cr + 2 + i) lits.(i)
  done;
  cr

let mark_deleted s cr =
  let a = s.arena in
  let h = ba_get a cr in
  if not (header_deleted h) then begin
    ba_set a cr (h lor 1);
    s.arena_wasted <- s.arena_wasted + 2 + header_size h
  end

(* ---------- seeded randomization (SplitMix64, as in Channel.Prng) ---------- *)

(* Returns 0L when no seed is installed so all call sites stay deterministic
   by default. *)
let rng_next s =
  match s.rng with
  | None -> 0L
  | Some st ->
      let st = Int64.add st 0x9E3779B97F4A7C15L in
      s.rng <- Some st;
      let z =
        Int64.mul (Int64.logxor st (Int64.shift_right_logical st 30)) 0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
      in
      Int64.logxor z (Int64.shift_right_logical z 31)

let rng_bool s = Int64.logand (rng_next s) 1L = 1L

(* uniform in [0, bound); bound << 2^62 here *)
let rng_below s bound =
  Int64.to_int (Int64.rem (Int64.logand (rng_next s) Int64.max_int) (Int64.of_int bound))

let check_interrupt s =
  match s.interrupt with Some f when f () -> raise Interrupted | _ -> ()

(* ---------- variable order heap (max-heap on activity) ---------- *)

(* Both sifts move a hole instead of swapping pairs: the moving variable
   is written once, at its final slot, and every entry it passes shifts
   one level with a single write. *)
let heap_up s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let w = heap.(p) in
    if a > act.(w) then begin
      heap.(!i) <- w;
      pos.(w) <- !i;
      i := p
    end
    else continue := false
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_down s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let size = s.heap_size in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < size && act.(heap.(r)) > act.(heap.(l)) then r else l
      in
      let w = heap.(c) in
      if act.(w) > a then begin
        heap.(!i) <- w;
        pos.(w) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_remove_min s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  s.heap_pos.(v) <- -1;
  v

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* ---------- growing per-variable state ---------- *)

let grow_array a n default =
  let b = Array.make n default in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Give every per-variable array room for at least [n] variables, by
   doubling.  The entries past [nvars] keep their defaults until a
   variable claims them, so a new variable within the capacity needs no
   writes beyond its own heap slot and phase. *)
let reserve_vars s n =
  if n > s.var_cap then begin
    let cap = max n (max 16 (2 * s.var_cap)) in
    s.vals <- grow_array s.vals (2 * cap) 0;
    s.level <- grow_array s.level cap 0;
    s.reason <- grow_array s.reason cap (-1);
    s.polarity <- grow_array s.polarity cap false;
    s.activity <- grow_array s.activity cap 0.0;
    s.heap <- grow_array s.heap cap 0;
    s.heap_pos <- grow_array s.heap_pos cap (-1);
    s.seen <- grow_array s.seen cap false;
    s.level_stamp <- grow_array s.level_stamp (cap + 1) 0;
    s.trail <- grow_array s.trail cap 0;
    s.model_ <- grow_array s.model_ cap false;
    s.w_data <- grow_array s.w_data (2 * cap) [||];
    s.w_size <- grow_array s.w_size (2 * cap) 0;
    s.bin_data <- grow_array s.bin_data (2 * cap) [||];
    s.bin_size <- grow_array s.bin_size (2 * cap) 0;
    s.var_cap <- cap
  end

let new_var s =
  let v = s.nvars in
  reserve_vars s (v + 1);
  s.nvars <- v + 1;
  (* a seeded solver explores a random initial polarity per variable, so
     differently-seeded portfolio workers search different orthants *)
  if s.rng <> None then s.polarity.(v) <- rng_bool s;
  heap_insert s v;
  v

let new_vars s n =
  if n <= 0 then invalid_arg "Solver.new_vars: non-positive count";
  reserve_vars s (s.nvars + n);
  let first = new_var s in
  for _ = 2 to n do
    ignore (new_var s)
  done;
  first

(* ---------- watcher / binary-store primitives ---------- *)

let push2 data size_arr idx a b =
  let d = data.(idx) in
  let n = size_arr.(idx) in
  let d =
    if n + 2 > Array.length d then begin
      let nd = Array.make (max 8 (2 * Array.length d)) 0 in
      Array.blit d 0 nd 0 n;
      data.(idx) <- nd;
      nd
    end
    else d
  in
  Array.unsafe_set d n a;
  Array.unsafe_set d (n + 1) b;
  size_arr.(idx) <- n + 2

let push1 data size_arr idx a =
  let d = data.(idx) in
  let n = size_arr.(idx) in
  let d =
    if n + 1 > Array.length d then begin
      let nd = Array.make (max 4 (2 * Array.length d)) 0 in
      Array.blit d 0 nd 0 n;
      data.(idx) <- nd;
      nd
    end
    else d
  in
  Array.unsafe_set d n a;
  size_arr.(idx) <- n + 1

(* Watch a stored clause via its first two literals (with each other as
   blocking literal). *)
let attach s cr =
  let a = s.arena in
  let l0 = ba_get a (cr + 2) and l1 = ba_get a (cr + 3) in
  push2 s.w_data s.w_size (l0 lxor 1) cr l1;
  push2 s.w_data s.w_size (l1 lxor 1) cr l0

let attach_binary s a b =
  push1 s.bin_data s.bin_size (Lit.code a lxor 1) (Lit.code b);
  push1 s.bin_data s.bin_size (Lit.code b lxor 1) (Lit.code a)

(* ---------- assignment primitives ---------- *)

let lit_value s l = Array.unsafe_get s.vals l
let decision_level s = Vec.size s.trail_lim

(* Assign literal [l] true at level [lvl] with a tagged reason (-1 =
   none).  [lvl] is the literal's true level: the decision level for a
   decision, the highest level among the reason's other literals for an
   implication.  Below the current decision level that makes the trail
   out of order (an implied literal follows literals of higher levels). *)
let enqueue s l lvl reason =
  let v = l lsr 1 in
  Array.unsafe_set s.vals l 1;
  Array.unsafe_set s.vals (l lxor 1) (-1);
  s.level.(v) <- lvl;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

(* Undo every assignment above level [lvl].  An out-of-order trail can
   hold literals of level <= [lvl] past the level's trail bound; they stay
   assigned, keep their order, and are queued again so the clauses they
   falsify are re-examined against the now-smaller assignment. *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    let kept = ref 0 in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      if s.level.(v) > lvl then begin
        s.polarity.(v) <- l land 1 = 0;
        s.vals.(l) <- 0;
        s.vals.(l lxor 1) <- 0;
        s.reason.(v) <- -1;
        heap_insert s v
      end
      else incr kept
    done;
    if !kept > 0 then begin
      let j = ref bound in
      for i = bound to s.trail_size - 1 do
        let l = s.trail.(i) in
        if s.vals.(l) = 1 then begin
          s.trail.(!j) <- l;
          incr j
        end
      done
    end;
    s.trail_size <- bound + !kept;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- min s.qhead bound;
    (* a late unit whose level went is an ordinary clause again; the
       others may have lost their satisfying literal, which the next
       [propagate] implies again *)
    if s.late_units <> [] then begin
      s.late_units <- List.filter (fun (_, _, ul) -> ul <= lvl) s.late_units;
      s.late_ready <- s.late_units <> []
    end
  end

(* Imply again, at its true level, each late unit whose satisfying
   literal a backtrack took away, and drop those now satisfied from a
   level no higher than their own.  Runs first in [propagate], so the
   enqueue happens where the caller expects propagation; a late unit
   found false in the meantime is a conflict (cref, or the scratch
   clause for a binary), returned like [propagate]'s. *)
let flush_late s =
  s.late_ready <- false;
  let confl = ref (-1) in
  s.late_units <-
    List.filter
      (fun (l, reason, ul) ->
        if !confl >= 0 then true
        else
          match Array.unsafe_get s.vals l with
          | 0 ->
              enqueue s l ul reason;
              false
          | 1 -> s.level.(l lsr 1) > ul
          | _ ->
              (if reason land 1 = 0 then confl := reason lsr 1
               else begin
                 ba_set s.arena (cref_scratch + 2) l;
                 ba_set s.arena (cref_scratch + 3) (reason lsr 1);
                 confl := cref_scratch
               end);
              false)
      (List.rev s.late_units);
  if !confl >= 0 && s.late_units <> [] then s.late_ready <- true;
  !confl

(* ---------- activities ---------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

(* ---------- DRAT proof logging ---------- *)

let proof_line s prefix lits =
  match s.proof_log with
  | None -> ()
  | Some buf ->
      Buffer.add_string buf prefix;
      Array.iter
        (fun l ->
          Buffer.add_string buf (string_of_int (Lit.to_dimacs (Lit.of_code l)));
          Buffer.add_char buf ' ')
        lits;
      Buffer.add_string buf "0\n"

let proof_add s lits = proof_line s "" lits
let proof_delete s lits = proof_line s "d " lits
let proof_empty s = proof_add s [||]

let clause_lits s cr =
  let a = s.arena in
  let size = header_size (ba_get a cr) in
  Array.init size (fun i -> ba_get a (cr + 2 + i))

let proof_delete_clause s cr = proof_delete s (clause_lits s cr)

(* ---------- propagation ---------- *)

(* Returns the cref of a conflicting clause, or -1.  Binary conflicts
   are materialized in the reserved scratch clause at cref 0.

   Implied literals get their true level: a binary implication inherits
   the level of the literal that fired it; a clause implication the
   highest level among its false literals.  That is the current level
   whenever the firing literal is at the current level; only a literal
   queued below it (an out-of-order trail) pays for the scan, and the
   highest-level false literal then moves into the second watch, so
   backtracking past its level frees the watch before the clause can
   turn unit unnoticed. *)
let propagate s =
  let confl = ref (if s.late_ready then flush_late s else -1) in
  let vals = s.vals in
  let dl = decision_level s in
  while !confl < 0 && s.qhead < s.trail_size do
    let p = Array.unsafe_get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let lp = Array.unsafe_get s.level (p lsr 1) in
    (* binary implications first: cheapest, and finding conflicts early
       keeps the expensive watcher scan short *)
    let bd = Array.unsafe_get s.bin_data p in
    let bn = Array.unsafe_get s.bin_size p in
    let i = ref 0 in
    while !confl < 0 && !i < bn do
      let q = Array.unsafe_get bd !i in
      let v = Array.unsafe_get vals q in
      if v < 0 then begin
        (* conflict: scratch clause {q, ~p} *)
        let a = s.arena in
        ba_set a (cref_scratch + 2) q;
        ba_set a (cref_scratch + 3) (p lxor 1);
        confl := cref_scratch
      end
      else if v = 0 then enqueue s q lp (((p lxor 1) lsl 1) lor 1);
      incr i
    done;
    if !confl < 0 then begin
      let wd = Array.unsafe_get s.w_data p in
      let wn = Array.unsafe_get s.w_size p in
      let a = s.arena in
      let i = ref 0 and j = ref 0 in
      while !i < wn do
        let cr = Array.unsafe_get wd !i in
        let blocker = Array.unsafe_get wd (!i + 1) in
        if Array.unsafe_get vals blocker > 0 then begin
          (* blocking literal satisfied: keep, no clause access *)
          Array.unsafe_set wd !j cr;
          Array.unsafe_set wd (!j + 1) blocker;
          j := !j + 2;
          i := !i + 2
        end
        else begin
          let h = ba_get a cr in
          if header_deleted h then i := !i + 2 (* drop lazily *)
          else begin
            (* ensure the false literal (neg p) is at position 1 *)
            let np = p lxor 1 in
            let l0 = ba_get a (cr + 2) in
            let l1 = ba_get a (cr + 3) in
            let first =
              if l0 = np then begin
                ba_set a (cr + 2) l1;
                ba_set a (cr + 3) np;
                l1
              end
              else l0
            in
            if first <> blocker && Array.unsafe_get vals first > 0 then begin
              (* satisfied by the other watch: keep, better blocker *)
              Array.unsafe_set wd !j cr;
              Array.unsafe_set wd (!j + 1) first;
              j := !j + 2;
              i := !i + 2
            end
            else begin
              (* look for a new literal to watch *)
              let size = header_size h in
              let k = ref 2 in
              let found = ref (-1) in
              while !found < 0 && !k < size do
                let lk = ba_get a (cr + 2 + !k) in
                if Array.unsafe_get vals lk >= 0 then found := !k else incr k
              done;
              if !found >= 0 then begin
                let lk = ba_get a (cr + 2 + !found) in
                ba_set a (cr + 3) lk;
                ba_set a (cr + 2 + !found) np;
                push2 s.w_data s.w_size (lk lxor 1) cr first;
                i := !i + 2 (* moved to another list *)
              end
              else if Array.unsafe_get vals first < 0 then begin
                (* conflict: keep the watcher, copy the remaining ones
                   and bail out *)
                Array.unsafe_set wd !j cr;
                Array.unsafe_set wd (!j + 1) first;
                j := !j + 2;
                i := !i + 2;
                while !i < wn do
                  Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                  Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
                  i := !i + 2;
                  j := !j + 2
                done;
                confl := cr
              end
              else begin
                (* unit: find the implication's level *)
                let hi = ref 1 and hl = ref lp in
                if lp < dl then
                  for k = 2 to size - 1 do
                    let lk = Array.unsafe_get s.level (ba_get a (cr + 2 + k) lsr 1) in
                    if lk > !hl then begin
                      hl := lk;
                      hi := k
                    end
                  done;
                if !hi = 1 then begin
                  Array.unsafe_set wd !j cr;
                  Array.unsafe_set wd (!j + 1) first;
                  j := !j + 2
                end
                else begin
                  let lk = ba_get a (cr + 2 + !hi) in
                  ba_set a (cr + 3) lk;
                  ba_set a (cr + 2 + !hi) np;
                  push2 s.w_data s.w_size (lk lxor 1) cr first
                end;
                i := !i + 2;
                enqueue s first !hl (cr lsl 1)
              end
            end
          end
        end
      done;
      Array.unsafe_set s.w_size p !j
    end
  done;
  !confl

(* ---------- conflict analysis (first UIP) ---------- *)

(* Iterate the literals of a tagged reason, skipping the propagated
   literal itself (an arena reason clause has it at position 0). *)
let reason_iter s r ~f =
  if r land 1 = 1 then f (r lsr 1)
  else begin
    let cr = r lsr 1 in
    let a = s.arena in
    let size = header_size (ba_get a cr) in
    for k = 1 to size - 1 do
      f (ba_get a (cr + 2 + k))
    done
  end

let litredundant s l =
  (* cheap clause minimization: l is redundant if its reason's other
     literals are all already seen or assigned at level 0 *)
  let r = s.reason.(l lsr 1) in
  if r < 0 then false
  else if r land 1 = 1 then begin
    let q = r lsr 1 in
    q = l lxor 1 || s.seen.(q lsr 1) || s.level.(q lsr 1) = 0
  end
  else begin
    let cr = r lsr 1 in
    let a = s.arena in
    let size = header_size (ba_get a cr) in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < size do
      let q = ba_get a (cr + 2 + !k) in
      if not (q = l lxor 1 || s.seen.(q lsr 1) || s.level.(q lsr 1) = 0) then
        ok := false;
      incr k
    done;
    !ok
  end

(* LBD: number of distinct decision levels among [lits]. *)
let compute_lbd s lits =
  s.stamp_ctr <- s.stamp_ctr + 1;
  let stamp = s.stamp_ctr in
  let lbd = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(l lsr 1) in
      if s.level_stamp.(lv) <> stamp then begin
        s.level_stamp.(lv) <- stamp;
        incr lbd
      end)
    lits;
  !lbd

(* First-UIP analysis of a conflict at the current decision level (the
   caller backtracks to the conflict level first).  Seen literals of
   lower levels go to the learnt clause; on an out-of-order trail they
   can sit among the current level's literals, so the trail walk skips
   them instead of counting them off the path. *)
let analyze s conflict =
  let out = Vec.create () in
  Vec.push out 0;
  (* slot for the asserting literal *)
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let continue_loop = ref true in
  let dl = decision_level s in
  let expand q =
    let v = q lsr 1 in
    if (not s.seen.(v)) && s.level.(v) > 0 then begin
      s.seen.(v) <- true;
      var_bump s v;
      if s.level.(v) >= dl then incr path else Vec.push out q
    end
  in
  (* the conflict clause contributes all its literals *)
  let a = s.arena in
  let csize = header_size (ba_get a conflict) in
  for k = 0 to csize - 1 do
    expand (ba_get a (conflict + 2 + k))
  done;
  while !continue_loop do
    (* find next literal on the trail to expand *)
    while
      let v = s.trail.(!index) lsr 1 in
      (not s.seen.(v)) || s.level.(v) < dl
    do
      decr index
    done;
    p := s.trail.(!index);
    decr index;
    s.seen.(!p lsr 1) <- false;
    decr path;
    if !path <= 0 then continue_loop := false
    else begin
      let r = s.reason.(!p lsr 1) in
      reason_iter s r ~f:expand
    end
  done;
  Vec.set out 0 (!p lxor 1);
  (* minimize: drop redundant non-asserting literals *)
  let kept = Vec.create () in
  Vec.push kept (Vec.get out 0);
  for i = 1 to Vec.size out - 1 do
    let l = Vec.unsafe_get out i in
    if not (litredundant s l) then Vec.push kept l
  done;
  (* clear seen flags *)
  Vec.iter (fun l -> s.seen.(l lsr 1) <- false) out;
  (* compute backtrack level; move its literal to position 1 *)
  let nlits = Vec.size kept in
  let back_level = ref 0 in
  if nlits > 1 then begin
    let max_i = ref 1 in
    for i = 2 to nlits - 1 do
      if
        s.level.(Vec.unsafe_get kept i lsr 1)
        > s.level.(Vec.unsafe_get kept !max_i lsr 1)
      then max_i := i
    done;
    let tmp = Vec.get kept 1 in
    Vec.unsafe_set kept 1 (Vec.unsafe_get kept !max_i);
    Vec.unsafe_set kept !max_i tmp;
    back_level := s.level.(Vec.get kept 1 lsr 1)
  end;
  (Array.of_list (Vec.to_list kept), !back_level)

(* ---------- learnt clause DB reduction ---------- *)

let locked s cr =
  let l0 = ba_get s.arena (cr + 2) in
  lit_value s l0 = 1 && s.reason.(l0 lsr 1) = cr lsl 1

(* Glue-aware reduction: sort learnts by (LBD, size) and delete the worst
   half, sparing glue clauses (LBD <= 2), locked clauses and anything
   still propagating.  Binaries live in the implication store and are
   never deleted. *)
let reduce_db s =
  s.n_reduces <- s.n_reduces + 1;
  let a = s.arena in
  let n = Vec.size s.learnts in
  let crs = Array.init n (fun i -> Vec.get s.learnts i) in
  let key cr =
    let h = ba_get a cr in
    (ba_get a (cr + 1) lsl 32) lor header_size h
  in
  Array.sort (fun c1 c2 -> compare (key c1) (key c2)) crs;
  let keep = Vec.create () in
  let limit = n / 2 in
  let removed = ref 0 in
  Array.iteri
    (fun i cr ->
      let h = ba_get a cr in
      if header_deleted h then () (* already gone; drop from the list *)
      else if
        i >= n - limit && ba_get a (cr + 1) > 2 && not (locked s cr)
      then begin
        proof_delete_clause s cr;
        mark_deleted s cr;
        incr removed
      end
      else Vec.push keep cr)
    crs;
  s.learnts <- keep

(* ---------- arena compaction ---------- *)

(* Copy live clauses into a fresh arena and remap every cref holder
   (clause lists, watch lists, trail reasons).  Watcher order, blockers
   and watched positions are preserved, so this is safe at any decision
   level.  Old headers are overwritten with forwarding markers
   (-2 - newref). *)
let compact s =
  let live = s.arena_size - s.arena_wasted in
  let na = make_arena (max 1024 (live * 2)) in
  (* recreate the scratch slot *)
  Bigarray.Array1.blit
    (Bigarray.Array1.sub s.arena 0 arena_start)
    (Bigarray.Array1.sub na 0 arena_start);
  let next = ref arena_start in
  let a = s.arena in
  let relocate cr =
    let h = ba_get a cr in
    if h < 0 then -2 - h (* already moved *)
    else begin
      let words = 2 + header_size h in
      let ncr = !next in
      for k = 0 to words - 1 do
        ba_set na (ncr + k) (ba_get a (cr + k))
      done;
      next := !next + words;
      ba_set a cr (-2 - ncr);
      ncr
    end
  in
  let remap_vec v =
    let keep = Vec.create () in
    Vec.iter
      (fun cr ->
        let h = ba_get a cr in
        if h >= 0 && header_deleted h then () (* dead: drop *)
        else Vec.push keep (relocate cr))
      v;
    keep
  in
  let clauses' = remap_vec s.clauses in
  Vec.clear s.clauses;
  Vec.iter (fun cr -> Vec.push s.clauses cr) clauses';
  s.learnts <- remap_vec s.learnts;
  (* watch lists: drop dead entries, remap live ones in place *)
  for p = 0 to (2 * s.nvars) - 1 do
    let wd = s.w_data.(p) in
    let wn = s.w_size.(p) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < wn do
      let cr = wd.(!i) in
      let h = ba_get a cr in
      if h >= 0 && header_deleted h then ()
      else begin
        wd.(!j) <- (if h < 0 then -2 - h else relocate cr);
        wd.(!j + 1) <- wd.(!i + 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    s.w_size.(p) <- !j
  done;
  s.late_units <-
    List.map
      (fun ((l, r, ul) as u) ->
        if r >= 0 && r land 1 = 0 then begin
          let h = ba_get a (r lsr 1) in
          (l, (if h < 0 then -2 - h else relocate (r lsr 1)) lsl 1, ul)
        end
        else u)
      s.late_units;
  (* reasons on the trail *)
  for i = 0 to s.trail_size - 1 do
    let v = s.trail.(i) lsr 1 in
    let r = s.reason.(v) in
    if r >= 0 && r land 1 = 0 then begin
      let cr = r lsr 1 in
      let h = ba_get a cr in
      (* locked clauses are never deleted, so they have been moved *)
      let ncr = if h < 0 then -2 - h else relocate cr in
      s.reason.(v) <- ncr lsl 1
    end
  done;
  s.arena <- na;
  s.arena_size <- !next;
  s.arena_wasted <- 0;
  s.n_compactions <- s.n_compactions + 1

let maybe_compact s =
  if s.arena_size > 4096 && s.arena_wasted * 3 > s.arena_size then compact s

(* ---------- clause addition ---------- *)

(* Store the clause [lits.(0) .. lits.(n - 1)]; returns its cref, or -1
   for a binary. *)
let store_clause s lits n ~learnt ~lbd =
  match n with
  | 2 ->
      attach_binary s (Lit.of_code lits.(0)) (Lit.of_code lits.(1));
      if not learnt then s.n_live_orig <- s.n_live_orig + 1;
      -1
  | n when n >= 3 ->
      let cr = alloc_clause s lits n ~learnt ~lbd in
      attach s cr;
      if learnt then Vec.push s.learnts cr
      else begin
        Vec.push s.clauses cr;
        s.n_live_orig <- s.n_live_orig + 1
      end;
      cr
  | _ -> invalid_arg "Solver.store_clause: clause too short"

(* A one-literal clause holds at level 0.  It is enqueued out of order
   when the trail is deeper (after backtracking below the literal's
   level if it is assigned) and propagated by the next search; at level
   0 it is propagated at once, so [ok] reports a level-0 contradiction
   immediately. *)
let add_unit s l =
  if lit_value s l <> 0 then cancel_until s (s.level.(l lsr 1) - 1);
  enqueue s l 0 (-1);
  if decision_level s = 0 && propagate s >= 0 then begin
    proof_empty s;
    s.okay <- false
  end

(* Clause intake sorts in place in [s.intake], stably, by decreasing
   [key s l].  Up to [sort_cutoff] literals an insertion sort does it
   without allocating; longer clauses go through [Array.stable_sort],
   which puts them in the same order. *)
let sort_cutoff = 16

let sort_intake s key (a : int array) n =
  if n > sort_cutoff then begin
    let t = Array.sub a 0 n in
    Array.stable_sort (fun x y -> Int.compare (key s y) (key s x)) t;
    Array.blit t 0 a 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let k = key s x in
      let j = ref (i - 1) in
      while !j >= 0 && key s a.(!j) < k do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* ascending code order *)
let code_key _ l = -l

(* [add_long]'s order: non-false literals first, then false ones by
   decreasing level *)
let watch_key s l = if lit_value s l >= 0 then max_int else s.level.(l lsr 1)

(* Store the original clause in [s.intake]; returns the tagged reason it
   gives its first literal, whose partner in a binary is [l1]. *)
let store_intake s n l1 =
  let cr = store_clause s s.intake n ~learnt:false ~lbd:0 in
  if cr < 0 then (l1 lsl 1) lor 1 else cr lsl 1

(* Attach the clause of [n >= 2] literals in [s.intake] to the live
   trail.  The literals are ordered non-false first, then false by
   decreasing level, and the first two are watched.  A clause that is
   unit under the trail implies its literal at the level of its highest
   false literal; one whose only true literal sits above that level
   becomes a late unit, implied again at its true level once a backtrack
   unassigns the literal (see [flush_late]).  A falsified clause
   backtracks to its second-highest level, where it becomes unit, or to
   just below its highest level when the two highest share it. *)
let add_long s n =
  let lits = s.intake in
  (* [lits] arrive in ascending code order, which breaks ties *)
  sort_intake s watch_key lits n;
  let l0 = lits.(0) and l1 = lits.(1) in
  if lit_value s l1 >= 0 then ignore (store_intake s n l1)
  else begin
    let lv1 = s.level.(l1 lsr 1) in
    let lv0 = s.level.(l0 lsr 1) in
    match lit_value s l0 with
    | 0 ->
        let reason = store_intake s n l1 in
        enqueue s l0 lv1 reason
    | 1 ->
        let reason = store_intake s n l1 in
        if lv0 > lv1 then s.late_units <- (l0, reason, lv1) :: s.late_units
    | _ ->
        if lv0 > lv1 then begin
          cancel_until s lv1;
          let reason = store_intake s n l1 in
          enqueue s l0 lv1 reason
        end
        else begin
          cancel_until s (lv0 - 1);
          ignore (store_intake s n l1)
        end
  end

let fixed s l v = lit_value s l = v && s.level.(l lsr 1) = 0

(* Copy the clause's literal codes into [a] from index [i]. *)
let rec intake_codes s a i = function
  | [] -> ()
  | l :: rest ->
      if Lit.var l >= s.nvars then
        invalid_arg
          (Printf.sprintf "Solver.add_clause: variable %d not allocated" (Lit.var l));
      Array.unsafe_set a i (Lit.code l);
      intake_codes s a (i + 1) rest

(* Clauses are added against the live trail: after [Sat] the assignment
   may stay, and the next [solve] resumes from it (see [solve_body]).
   Only level-0 values simplify a clause; deeper ones are not facts.
   The literals are sorted by code, so duplicates and a complementary
   pair ([2v], [2v + 1]) sit next to each other, and one pass drops the
   duplicates and level-0 false literals and detects a tautology. *)
let add_clause s lits =
  let len = List.length lits in
  if len > Array.length s.intake then
    s.intake <- Array.make (max len (2 * Array.length s.intake)) 0;
  let a = s.intake in
  intake_codes s a 0 lits;
  if s.okay then begin
    if s.proof_log <> None then s.originals <- lits :: s.originals;
    s.model_valid <- false;
    sort_intake s code_key a len;
    let kept = ref 0 and last = ref (-1) and tautology = ref false and i = ref 0 in
    while (not !tautology) && !i < len do
      let l = a.(!i) in
      incr i;
      if l <> !last then begin
        if l = !last lxor 1 || fixed s l 1 then tautology := true
        else if not (fixed s l (-1)) then begin
          a.(!kept) <- l;
          incr kept
        end;
        last := l
      end
    done;
    if not !tautology then begin
      match !kept with
      | 0 ->
          proof_empty s;
          s.okay <- false
      | 1 -> add_unit s a.(0)
      | n -> add_long s n
    end
  end

(* ---------- inprocessing: subsumption + self-subsuming resolution ---------- *)

(* 64-bit clause signature: bit (var mod 64) per literal.  sig(D) not
   subset of sig(C) proves D cannot subsume C. *)
let clause_sig s cr =
  let a = s.arena in
  let size = header_size (ba_get a cr) in
  let g = ref 0 in
  for k = 0 to size - 1 do
    g := !g lor (1 lsl (ba_get a (cr + 2 + k) lsr 1 land 63))
  done;
  !g

(* Does the arena clause at [cr] contain literal [l]?  Linear scan;
   clauses here are short. *)
let clause_mem s cr l =
  let a = s.arena in
  let size = header_size (ba_get a cr) in
  let k = ref 0 in
  let found = ref false in
  while (not !found) && !k < size do
    if ba_get a (cr + 2 + !k) = l then found := true;
    incr k
  done;
  !found

(* Check [d_lits] against arena clause [cr]: [`Subsumes] when every
   literal appears in [cr]; [`Strengthen l] when exactly one appears
   negated (so [cr] can drop [l lxor 1]... i.e. drop the negation);
   [`No] otherwise. *)
let subsume_check s d_lits cr =
  let misses = ref 0 in
  let flipped = ref (-1) in
  let n = Array.length d_lits in
  let k = ref 0 in
  while !misses <= 1 && !k < n do
    let d = d_lits.(!k) in
    if clause_mem s cr d then ()
    else if !flipped < 0 && clause_mem s cr (d lxor 1) then begin
      flipped := d lxor 1;
      incr misses
    end
    else misses := 2;
    incr k
  done;
  if !misses = 0 then `Subsumes
  else if !misses = 1 then `Strengthen !flipped
  else `No

(* Remove literal [l] from the clause at [cr] in place (level 0 only).
   Returns the new size. *)
let shrink_clause s cr l =
  let a = s.arena in
  let h = ba_get a cr in
  let size = header_size h in
  let j = ref 0 in
  for k = 0 to size - 1 do
    let q = ba_get a (cr + 2 + k) in
    if q <> l then begin
      ba_set a (cr + 2 + !j) q;
      incr j
    end
  done;
  ba_set a cr (header_make ~size:!j ~learnt:(header_learnt h));
  s.arena_wasted <- s.arena_wasted + (size - !j);
  !j

(* Rebuild every watch list from the live arena clauses.  Run at
   decision level 0, after inprocessing has rewritten clauses in place
   (which invalidates watched positions).  The two best literals of each
   clause (true > unassigned > false) are moved to the watch positions;
   clauses reduced to a single non-false literal are reported as units,
   fully falsified clauses as a conflict.  Returns [Error ()] on
   conflict, else [Ok units]. *)
let rebuild_watches s =
  let a = s.arena in
  for p = 0 to (2 * s.nvars) - 1 do
    s.w_size.(p) <- 0
  done;
  let units = Vec.create () in
  let conflict = ref false in
  let rank l = match lit_value s l with 1 -> 2 | 0 -> 1 | _ -> 0 in
  let order_clause cr size =
    (* move the best literal to 0, second best to 1 *)
    let best = ref 0 in
    for k = 1 to size - 1 do
      if rank (ba_get a (cr + 2 + k)) > rank (ba_get a (cr + 2 + !best)) then
        best := k
    done;
    let t = ba_get a (cr + 2) in
    ba_set a (cr + 2) (ba_get a (cr + 2 + !best));
    ba_set a (cr + 2 + !best) t;
    let best2 = ref 1 in
    for k = 2 to size - 1 do
      if rank (ba_get a (cr + 2 + k)) > rank (ba_get a (cr + 2 + !best2)) then
        best2 := k
    done;
    let t = ba_get a (cr + 3) in
    ba_set a (cr + 3) (ba_get a (cr + 2 + !best2));
    ba_set a (cr + 2 + !best2) t
  in
  let visit cr =
    let h = ba_get a cr in
    if not (header_deleted h) then begin
      order_clause cr (header_size h);
      let v0 = lit_value s (ba_get a (cr + 2)) in
      let v1 = lit_value s (ba_get a (cr + 3)) in
      if v0 = -1 then conflict := true
      else begin
        if v0 = 0 && v1 = -1 then Vec.push units (ba_get a (cr + 2));
        attach s cr
      end
    end
  in
  Vec.iter visit s.clauses;
  Vec.iter visit s.learnts;
  if !conflict then Error () else Ok units

(* One backward-subsumption pass over the stored clauses, binaries
   included as subsumers.  Runs at decision level 0 with propagation at
   fixpoint.  Every deletion/strengthening is DRAT-logged (strengthened
   clause added before its fat version is deleted, so the proof stays a
   valid RUP sequence).  Watch lists are rebuilt wholesale afterwards —
   in-place strengthening invalidates watched positions — and derived
   units are then propagated.  Returns false if the pass derived
   unsatisfiability. *)
let subsumption_pass s =
  let a = s.arena in
  (* Level-0 reasons are never dereferenced (conflict analysis skips
     level-0 variables), so dropping them unlocks every clause for
     strengthening and keeps compaction's reason remap trivial. *)
  for i = 0 to s.trail_size - 1 do
    s.reason.(s.trail.(i) lsr 1) <- -1
  done;
  (* occurrence lists over live arena clauses *)
  let occ_data = Array.make (2 * s.nvars) [||] in
  let occ_size = Array.make (2 * s.nvars) 0 in
  let live = Vec.create () in
  let scan v =
    Vec.iter
      (fun cr ->
        let h = ba_get a cr in
        if not (header_deleted h) then begin
          Vec.push live cr;
          let size = header_size h in
          for k = 0 to size - 1 do
            push1 occ_data occ_size (ba_get a (cr + 2 + k)) cr
          done
        end)
      v
  in
  scan s.clauses;
  scan s.learnts;
  let sigs = Hashtbl.create 256 in
  Vec.iter (fun cr -> Hashtbl.replace sigs cr (clause_sig s cr)) live;
  let unsat = ref false in
  let unit_queue = Vec.create () in
  (* try to subsume/strengthen with subsumer literals [d_lits]; [self]
     is the cref of the subsumer when it lives in the arena (-1 for
     binaries) so it is not matched against itself *)
  let apply_subsumer d_lits ~self ~dsig =
    if not !unsat then begin
      (* scan the occurrence list of the rarest literal *)
      let best = ref d_lits.(0) in
      Array.iter (fun l -> if occ_size.(l) < occ_size.(!best) then best := l) d_lits;
      let cand = occ_data.(!best) and cn = occ_size.(!best) in
      for ci = 0 to cn - 1 do
        let cr = cand.(ci) in
        if not !unsat then begin
          let h = ba_get a cr in
          if
            cr <> self
            && (not (header_deleted h))
            && header_size h >= Array.length d_lits
            && dsig land lnot (Hashtbl.find sigs cr) = 0
          then
            match subsume_check s d_lits cr with
            | `No -> ()
            | `Subsumes ->
                proof_delete_clause s cr;
                mark_deleted s cr;
                if not (header_learnt h) then
                  s.n_live_orig <- s.n_live_orig - 1;
                s.n_subsumed <- s.n_subsumed + 1
            | `Strengthen l -> (
                (* resolvent (cr \ {l}) is implied: log it, then drop
                   the fat clause *)
                let old = clause_lits s cr in
                let kept =
                  Array.of_list (List.filter (fun q -> q <> l) (Array.to_list old))
                in
                proof_add s kept;
                proof_delete s old;
                s.n_strengthened <- s.n_strengthened + 1;
                match Array.length kept with
                | 0 ->
                    proof_empty s;
                    unsat := true
                | 1 ->
                    mark_deleted s cr;
                    if not (header_learnt h) then
                      s.n_live_orig <- s.n_live_orig - 1;
                    Vec.push unit_queue kept.(0)
                | 2 ->
                    (* moves to the binary store; an original stays an
                       original there, so the live count is unchanged *)
                    mark_deleted s cr;
                    attach_binary s (Lit.of_code kept.(0)) (Lit.of_code kept.(1))
                | _ ->
                    ignore (shrink_clause s cr l);
                    Hashtbl.replace sigs cr (clause_sig s cr))
        end
      done
    end
  in
  (* binaries as subsumers *)
  for p = 0 to (2 * s.nvars) - 1 do
    let bd = s.bin_data.(p) and bn = s.bin_size.(p) in
    for i = 0 to bn - 1 do
      let q = bd.(i) in
      let l = p lxor 1 in
      (* clause {l, q}; visit each once *)
      if l < q then begin
        let d_lits = [| l; q |] in
        let dsig = (1 lsl (l lsr 1 land 63)) lor (1 lsl (q lsr 1 land 63)) in
        apply_subsumer d_lits ~self:(-1) ~dsig
      end
    done
  done;
  (* arena clauses as subsumers, smallest first *)
  let by_size = Array.init (Vec.size live) (fun i -> Vec.get live i) in
  Array.sort
    (fun c1 c2 ->
      compare (header_size (ba_get a c1)) (header_size (ba_get a c2)))
    by_size;
  Array.iter
    (fun cr ->
      let h = ba_get a cr in
      if not (header_deleted h) then
        apply_subsumer (clause_lits s cr) ~self:cr ~dsig:(Hashtbl.find sigs cr))
    by_size;
  (* drop dead crefs from the clause lists *)
  let prune v =
    let keep = Vec.create () in
    Vec.iter
      (fun cr -> if not (header_deleted (ba_get a cr)) then Vec.push keep cr)
      v;
    keep
  in
  let clauses' = prune s.clauses in
  Vec.clear s.clauses;
  Vec.iter (fun cr -> Vec.push s.clauses cr) clauses';
  s.learnts <- prune s.learnts;
  (* restore watch consistency, then flush derived units *)
  if not !unsat then begin
    match rebuild_watches s with
    | Error () ->
        proof_empty s;
        unsat := true
    | Ok more_units ->
        Vec.iter (fun l -> Vec.push unit_queue l) more_units;
        Vec.iter
          (fun l ->
            if not !unsat then
              match lit_value s l with
              | 1 -> ()
              | -1 ->
                  proof_empty s;
                  unsat := true
              | _ ->
                  enqueue s l 0 (-1);
                  if propagate s >= 0 then begin
                    proof_empty s;
                    unsat := true
                  end)
          unit_queue
  end;
  if !unsat then begin
    s.okay <- false;
    false
  end
  else begin
    maybe_compact s;
    true
  end

let maybe_inprocess s =
  match s.inprocess_interval with
  | None -> true
  | Some interval ->
      if s.n_conflicts - s.conflicts_at_inprocess >= interval then begin
        s.conflicts_at_inprocess <- s.n_conflicts;
        (* the pass wants level 0 at a propagation fixpoint; a resumed
           trail and out-of-order level-0 units give up neither *)
        cancel_until s 0;
        if propagate s >= 0 then begin
          proof_empty s;
          s.okay <- false;
          false
        end
        else subsumption_pass s
      end
      else true

(* ---------- search ---------- *)

let luby y i =
  (* size of the smallest complete subsequence containing index i *)
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let i = ref i in
  while !size - 1 <> !i do
    size := (!size - 1) / 2;
    decr seq;
    i := !i mod !size
  done;
  y ** float_of_int !seq

let pick_branch_var s =
  (* seeded solvers occasionally branch on a uniformly random unassigned
     variable (a VSIDS tiebreak-style diversification, ~2% of decisions).
     The variable is left in the heap: popping it later as an assigned
     entry is harmless, exactly like stale entries after backtracking. *)
  let random_pick =
    if s.rng <> None && s.heap_size > 0 && rng_below s 50 = 0 then begin
      let v = s.heap.(rng_below s s.heap_size) in
      if s.vals.(2 * v) = 0 then Some v else None
    end
    else None
  in
  match random_pick with
  | Some v -> v
  | None ->
      let rec go () =
        if s.heap_size = 0 then -1
        else
          let v = heap_remove_min s in
          if s.vals.(2 * v) = 0 then v else go ()
      in
      go ()

type search_outcome = Out_sat | Out_unsat | Out_restart

(* process-wide registry metrics, fed alongside each solver's own
   counters; updates are no-ops (one atomic load) without a live sink *)
let m_learnt_size = Telemetry.Metrics.histogram "sat.learnt_size"
let m_decisions = Telemetry.Metrics.counter "sat.decisions"
let m_propagations = Telemetry.Metrics.counter "sat.propagations"
let m_conflicts = Telemetry.Metrics.counter "sat.conflicts"
let m_restarts = Telemetry.Metrics.counter "sat.restarts"
let m_solve_calls = Telemetry.Metrics.counter "sat.solve_calls"

let record_learnt s lits back_level =
  proof_add s lits;
  s.n_learnt_literals <- s.n_learnt_literals + Array.length lits;
  if Array.length lits > s.max_learnt_size_ then
    s.max_learnt_size_ <- Array.length lits;
  Telemetry.Metrics.Histogram.observe s.learnt_hist (Array.length lits);
  Telemetry.Metrics.observe m_learnt_size (Array.length lits);
  (* LBD must be read off the pre-backtrack levels *)
  let lbd = if Array.length lits >= 3 then compute_lbd s lits else 0 in
  cancel_until s back_level;
  match Array.length lits with
  | 1 -> enqueue s lits.(0) 0 (-1)
  | 2 ->
      attach_binary s (Lit.of_code lits.(0)) (Lit.of_code lits.(1));
      enqueue s lits.(0) back_level ((lits.(1) lsl 1) lor 1)
  | _ ->
      let cr = store_clause s lits (Array.length lits) ~learnt:true ~lbd in
      enqueue s lits.(0) back_level (cr lsl 1)

(* Remove clause [cr]'s watcher from the watch list of [~l]. *)
let unwatch s l cr =
  let idx = l lxor 1 in
  let wd = s.w_data.(idx) and wn = s.w_size.(idx) in
  let i = ref 0 in
  while wd.(!i) <> cr do
    i := !i + 2
  done;
  Array.blit wd (!i + 2) wd !i (wn - !i - 2);
  s.w_size.(idx) <- wn - 2

(* The level a conflict belongs to: the highest level among the
   falsified clause's literals.  On an out-of-order trail it can lie
   below the current level; the two highest-level literals are then
   moved into the watches, so the clause is watched by literals that the
   backjump after analysis unassigns.  Binary conflicts need no moves:
   both literals of a binary are always watched. *)
let conflict_level s confl =
  let a = s.arena in
  let level_at k = s.level.(ba_get a (confl + 2 + k) lsr 1) in
  let dl = decision_level s in
  if confl = cref_scratch then max (level_at 0) (level_at 1)
  else if level_at 0 = dl && level_at 1 = dl then dl
  else begin
    let size = header_size (ba_get a confl) in
    for i = 0 to 1 do
      let best = ref i in
      for k = i + 1 to size - 1 do
        if level_at k > level_at !best then best := k
      done;
      if !best <> i then begin
        let li = ba_get a (confl + 2 + i) and lb = ba_get a (confl + 2 + !best) in
        if !best > 1 then unwatch s li confl;
        ba_set a (confl + 2 + i) lb;
        ba_set a (confl + 2 + !best) li;
        if !best > 1 then
          push2 s.w_data s.w_size (lb lxor 1) confl (ba_get a (confl + 3 - i))
      end
    done;
    level_at 0
  end

let search s ~assumptions ~conflict_limit =
  let conflicts = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    match
      (* [timing] is only set while a trace is live, so the two clock
         reads per propagation stay off the default path *)
      (if not s.timing then propagate s
       else begin
         let t0 = Telemetry.now () in
         let r = propagate s in
         s.t_propagate <- s.t_propagate +. (Telemetry.now () -. t0);
         r
       end)
    with
    | confl when confl >= 0 ->
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflicts;
        if s.n_conflicts land 63 = 0 then check_interrupt s;
        let level = conflict_level s confl in
        if level = 0 then begin
          proof_empty s;
          s.okay <- false;
          outcome := Some Out_unsat
        end
        else begin
          cancel_until s level;
          let lits, back_level =
            if not s.timing then analyze s confl
            else begin
              let t0 = Telemetry.now () in
              let r = analyze s confl in
              s.t_analyze <- s.t_analyze +. (Telemetry.now () -. t0);
              r
            end
          in
          record_learnt s lits back_level;
          var_decay_activity s
        end
    | _ ->
        if float_of_int (Vec.size s.learnts) >= s.max_learnts then begin
          let t0 = if s.timing then Telemetry.now () else 0.0 in
          reduce_db s;
          maybe_compact s;
          (match s.reduce_limit with
          | Some _ -> () (* pinned by the test knob *)
          | None -> s.max_learnts <- s.max_learnts *. 1.1);
          if s.timing then s.t_restart <- s.t_restart +. (Telemetry.now () -. t0)
        end;
        if conflict_limit >= 0 && !conflicts >= conflict_limit then begin
          let t0 = if s.timing then Telemetry.now () else 0.0 in
          cancel_until s 0;
          s.n_restarts <- s.n_restarts + 1;
          if s.timing then s.t_restart <- s.t_restart +. (Telemetry.now () -. t0);
          outcome := Some Out_restart
        end
        else begin
          (* take assumptions first, as pseudo-decisions *)
          let dl = decision_level s in
          let next_lit =
            if dl < List.length assumptions then begin
              let a = Lit.code (List.nth assumptions dl) in
              match lit_value s a with
              | 1 -> `Dummy (* already satisfied: open an empty level *)
              | -1 -> `Conflict_assumption
              | _ -> `Decide a
            end
            else
              match pick_branch_var s with
              | -1 -> `All_assigned
              | v ->
                  let phase = s.polarity.(v) in
                  (* seeded solvers flip the saved phase on ~2% of decisions *)
                  let phase =
                    if s.rng <> None && rng_below s 50 = 0 then not phase else phase
                  in
                  `Decide ((v * 2) lor if phase then 0 else 1)
          in
          match next_lit with
          | `All_assigned -> outcome := Some Out_sat
          | `Conflict_assumption -> outcome := Some Out_unsat
          | `Dummy -> Vec.push s.trail_lim s.trail_size
          | `Decide l ->
              s.n_decisions <- s.n_decisions + 1;
              if s.n_decisions land 1023 = 0 then check_interrupt s;
              Vec.push s.trail_lim s.trail_size;
              enqueue s l (decision_level s) (-1)
        end
  done;
  match !outcome with Some o -> o | None -> assert false

(* Fault-injection probe: a process-global hook invoked at instrumented
   points (here and in higher layers via [probe]).  [None] (the default)
   costs one load and a branch; installers (Synth.Fault) must set it before
   spawning worker domains.  The hook may raise — that is the point: an
   injected exception propagates out of the probe site exactly as a real
   failure would. *)
let probe_hook : (string -> unit) option ref = ref None
let set_probe f = probe_hook := f
let probe site = match !probe_hook with None -> () | Some f -> f site

(* Conflicts a resumed solve may spend repairing the kept assignment
   before it restarts from level 0 on the ordinary Luby schedule.
   Chosen by measurement, like the Luby unit 100: an unbounded repair
   wanders on small specs, too small a one gives up repairs that were
   nearly done. *)
let repair_budget = 32

(* A [Sat] keeps its trail when it is long enough to be worth keeping
   ([resume_min_trail]).  The next solve resumes from it when its
   assumptions are the same (clauses added in between have already been
   attached against it); any other solve starts from level 0.  A short
   trail, [Unsat] and interrupts leave the solver at level 0, exactly as
   a solver that never kept a trail. *)
let solve_body ?(assumptions = []) s =
  probe "sat.solve";
  s.model_valid <- false;
  if not s.okay then Unsat
  else begin
    let resume = s.kept = Some assumptions in
    s.kept <- None;
    if not resume then cancel_until s 0;
    (match s.reduce_limit with
    | Some n -> s.max_learnts <- float_of_int n
    | None ->
        s.max_learnts <-
          max 1000.0 (float_of_int (Vec.size s.clauses) *. 0.5));
    let result = ref None in
    let restart_i = ref 0 in
    let repairing = ref resume in
    (try
       while !result = None do
         if not (maybe_inprocess s) then result := Some Unsat
         else begin
           let limit =
             if !repairing then repair_budget
             else int_of_float (luby 2.0 !restart_i *. 100.0)
           in
           if !repairing then repairing := false else incr restart_i;
           match search s ~assumptions ~conflict_limit:limit with
           | Out_sat ->
               for v = 0 to s.nvars - 1 do
                 s.model_.(v) <- s.vals.(2 * v) = 1
               done;
               s.model_len <- s.nvars;
               s.model_valid <- true;
               if s.trail_size >= s.resume_min_trail then s.kept <- Some assumptions;
               result := Some Sat
           | Out_unsat -> result := Some Unsat
           | Out_restart -> ()
         end
       done
     with Interrupted ->
       cancel_until s 0;
       raise Interrupted);
    if s.kept = None then cancel_until s 0;
    match !result with Some r -> r | None -> assert false
  end

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_literals;
    max_learnt_size = s.max_learnt_size_;
    reduces = s.n_reduces;
    subsumed = s.n_subsumed;
    strengthened = s.n_strengthened;
    compactions = s.n_compactions;
  }

let learnt_size_histogram s = Telemetry.Metrics.Histogram.snapshot s.learnt_hist

(* Each solve call becomes a [sat.solve] span whose end event carries the
   per-call statistics deltas (the counters themselves are cumulative),
   including the inner-loop phase split (propagate/analyze/restart
   seconds) that [trace report] attributes wall time with. *)
let solve ?assumptions s =
  if not (Telemetry.enabled ()) then solve_body ?assumptions s
  else begin
    let before = stats s in
    let hist0 = learnt_size_histogram s in
    let t_prop0 = s.t_propagate
    and t_ana0 = s.t_analyze
    and t_rst0 = s.t_restart in
    let timing0 = s.timing in
    s.timing <- true;
    let sp =
      Telemetry.begin_span "sat.solve"
        ~fields:
          [
            ("vars", Telemetry.int s.nvars);
            ("clauses", Telemetry.int (nclauses s));
          ]
    in
    let finish result =
      s.timing <- timing0;
      let a = stats s in
      let delta =
        Telemetry.Metrics.Hist.sub (learnt_size_histogram s) hist0
      in
      Telemetry.Metrics.incr m_solve_calls 1;
      Telemetry.Metrics.incr m_decisions (a.decisions - before.decisions);
      Telemetry.Metrics.incr m_propagations
        (a.propagations - before.propagations);
      Telemetry.Metrics.incr m_conflicts (a.conflicts - before.conflicts);
      Telemetry.Metrics.incr m_restarts (a.restarts - before.restarts);
      Telemetry.end_span sp
        ~fields:
          [
            ("result", Telemetry.str result);
            ("decisions", Telemetry.int (a.decisions - before.decisions));
            ( "propagations",
              Telemetry.int (a.propagations - before.propagations) );
            ("conflicts", Telemetry.int (a.conflicts - before.conflicts));
            ("restarts", Telemetry.int (a.restarts - before.restarts));
            ( "learnt_size_hist",
              Telemetry.str (Telemetry.Metrics.Hist.to_csv delta) );
            ("propagate_s", Telemetry.float (s.t_propagate -. t_prop0));
            ("analyze_s", Telemetry.float (s.t_analyze -. t_ana0));
            ("restart_s", Telemetry.float (s.t_restart -. t_rst0));
          ]
    in
    match solve_body ?assumptions s with
    | Sat ->
        finish "sat";
        Sat
    | Unsat ->
        finish "unsat";
        Unsat
    | exception Interrupted ->
        finish "interrupted";
        raise Interrupted
  end

(* [model_] outlives the model: past [model_len] it may hold anything *)
let model_get s v =
  if v < 0 || v >= s.model_len then invalid_arg "index out of bounds";
  Array.unsafe_get s.model_ v

let value s l =
  if not s.model_valid then invalid_arg "Solver.value: no model available";
  let b = model_get s (Lit.var l) in
  if Lit.sign l then b else not b

let value_var s v =
  if not s.model_valid then invalid_arg "Solver.value_var: no model available";
  model_get s v

let model s =
  if not s.model_valid then invalid_arg "Solver.model: no model available";
  Array.sub s.model_ 0 s.model_len

let set_interrupt s f = s.interrupt <- f
let interrupt s = s.interrupt
let set_reduce_limit s n = s.reduce_limit <- n
let set_inprocess_interval s i = s.inprocess_interval <- i
let set_resume_min_trail s n = s.resume_min_trail <- n

let set_seed s seed =
  s.rng <- Some (Int64.of_int seed);
  (* scramble the saved phases of already-allocated variables so the first
     descent differs from the unseeded solver's all-false default *)
  for v = 0 to s.nvars - 1 do
    if s.vals.(2 * v) = 0 then s.polarity.(v) <- rng_bool s
  done

let enable_proof s =
  if Vec.size s.clauses > 0 || s.n_live_orig > 0 || s.trail_size > 0 then
    invalid_arg "Solver.enable_proof: must be called before adding clauses";
  s.proof_log <- Some (Buffer.create 4096)

let proof s = Option.map Buffer.contents s.proof_log
let original_clauses s = List.rev s.originals

(* ---------- introspection (tests) ---------- *)

let iter_clauses s f =
  (* binaries: each stored twice; emit once *)
  for p = 0 to (2 * s.nvars) - 1 do
    let bd = s.bin_data.(p) and bn = s.bin_size.(p) in
    for i = 0 to bn - 1 do
      let q = bd.(i) in
      let l = p lxor 1 in
      if l < q then f [ Lit.of_code l; Lit.of_code q ]
    done
  done;
  let emit v =
    Vec.iter
      (fun cr ->
        if not (header_deleted (ba_get s.arena cr)) then
          f (Array.to_list (Array.map Lit.of_code (clause_lits s cr))))
      v
  in
  emit s.clauses;
  emit s.learnts

(* Trail invariants: a variable is on the trail once, and exactly when
   it is assigned; an implied literal's level is the highest level among
   its reason's other literals, which are false and earlier on the
   trail; a reasonless literal above level 0 is its level's decision. *)
let check_trail s =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let pos = Array.make s.nvars (-1) in
  try
    for i = 0 to s.trail_size - 1 do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      if pos.(v) >= 0 then
        fail "var %d on the trail twice (positions %d and %d)" v pos.(v) i;
      if lit_value s l <> 1 then fail "trail literal %d at %d is not true" l i;
      pos.(v) <- i
    done;
    for v = 0 to s.nvars - 1 do
      if s.vals.(2 * v) <> 0 && pos.(v) < 0 then
        fail "var %d is assigned but not on the trail" v
    done;
    let dl = decision_level s in
    for i = 0 to s.trail_size - 1 do
      let l = s.trail.(i) in
      let lv = s.level.(l lsr 1) and r = s.reason.(l lsr 1) in
      if lv > dl then fail "literal %d at level %d above decision level %d" l lv dl;
      if r < 0 then begin
        if lv > 0 && Vec.get s.trail_lim (lv - 1) <> i then
          fail "reasonless literal %d at level %d is not its level's decision" l lv
      end
      else begin
        if r land 1 = 0 && ba_get s.arena ((r lsr 1) + 2) <> l then
          fail "literal %d: its reason clause %d does not imply it" l (r lsr 1);
        let hi = ref 0 in
        reason_iter s r ~f:(fun q ->
            if lit_value s q <> -1 then
              fail "literal %d: reason literal %d is not false" l q;
            if pos.(q lsr 1) >= i then
              fail "literal %d: reason literal %d is not earlier on the trail" l q;
            hi := max !hi s.level.(q lsr 1));
        if !hi <> lv then
          fail "implied literal %d at level %d, its reason's highest level is %d"
            l lv !hi
      end
    done;
    Ok ()
  with Bad m -> Error m

let self_check s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let a = s.arena in
  (* structural: every live arena clause is watched exactly once in each
     of the watch lists of the negations of its first two literals, and
     watch lists reference only live clauses from those positions *)
  let watch_count = Hashtbl.create 256 in
  let bad = ref None in
  for p = 0 to (2 * s.nvars) - 1 do
    let wd = s.w_data.(p) and wn = s.w_size.(p) in
    let i = ref 0 in
    while !i < wn do
      let cr = wd.(!i) in
      let h = ba_get a cr in
      if not (header_deleted h) then begin
        let l0 = ba_get a (cr + 2) and l1 = ba_get a (cr + 3) in
        if p <> l0 lxor 1 && p <> l1 lxor 1 then
          bad :=
            Some
              (Printf.sprintf
                 "clause %d watched under literal %d but watches are %d/%d" cr p
                 l0 l1);
        Hashtbl.replace watch_count (cr, p)
          (1 + Option.value (Hashtbl.find_opt watch_count (cr, p)) ~default:0)
      end;
      i := !i + 2
    done
  done;
  match !bad with
  | Some m -> Error m
  | None -> (
      let check_clause cr =
        let h = ba_get a cr in
        if header_deleted h then Ok ()
        else begin
          let l0 = ba_get a (cr + 2) and l1 = ba_get a (cr + 3) in
          let c0 =
            Option.value (Hashtbl.find_opt watch_count (cr, l0 lxor 1)) ~default:0
          in
          let c1 =
            Option.value (Hashtbl.find_opt watch_count (cr, l1 lxor 1)) ~default:0
          in
          if c0 <> 1 || c1 <> 1 then
            fail "clause %d watch counts %d/%d (want 1/1)" cr c0 c1
          else if not (s.okay && s.qhead = s.trail_size && not s.late_ready)
          then Ok ()
          else begin
            (* semantic: at a propagation fixpoint (nothing queued, no
               late unit waiting) a false watch means the clause is
               satisfied — by the other watch, or by the blocking
               literal that let propagation skip it (otherwise a
               unit/conflict was missed).  Only meaningful while the
               solver is still consistent — a level-0 conflict
               legitimately abandons propagation mid-queue. *)
            let v0 = lit_value s l0 and v1 = lit_value s l1 in
            let satisfied () =
              List.exists (fun l -> lit_value s l = 1) (Array.to_list (clause_lits s cr))
            in
            if (v0 = -1 || v1 = -1) && not (satisfied ()) then
              fail "clause %d: watch %d false but the clause is not satisfied" cr
                (if v0 = -1 then l0 else l1)
            else Ok ()
          end
        end
      in
      let check_vec v =
        let r = ref (Ok ()) in
        Vec.iter
          (fun cr -> match !r with Error _ -> () | Ok () -> r := check_clause cr)
          v;
        !r
      in
      match check_vec s.clauses with
      | Error m -> Error m
      | Ok () -> (
          match check_vec s.learnts with
          | Error m -> Error m
          | Ok () -> (
              (* binary store symmetry: {l, q} present both ways *)
              let sym = ref (Ok ()) in
              for p = 0 to (2 * s.nvars) - 1 do
                let bd = s.bin_data.(p) and bn = s.bin_size.(p) in
                for i = 0 to bn - 1 do
                  match !sym with
                  | Error _ -> ()
                  | Ok () ->
                      let q = bd.(i) in
                      let l = p lxor 1 in
                      (* expect l in bin_data.(q lxor 1) *)
                      let od = s.bin_data.(q lxor 1)
                      and on = s.bin_size.(q lxor 1) in
                      let found = ref false in
                      for k = 0 to on - 1 do
                        if od.(k) = l then found := true
                      done;
                      if not !found then
                        sym :=
                          fail "binary {%d,%d} missing its mirror entry" l q
                done
              done;
              match !sym with
              | Error m -> Error m
              | Ok () ->
                  (* value array consistency *)
                  let rec vals_ok v =
                    if v >= s.nvars then check_trail s
                    else if s.vals.(2 * v) <> -s.vals.((2 * v) + 1) then
                      fail "var %d: inconsistent literal values" v
                    else vals_ok (v + 1)
                  in
                  vals_ok 0)))
