type t = { uid : int; n : node }

and node =
  | True
  | Var of int
  | Not of t
  | And of t list
  | Or of t list
  | Xor of t * t
  | Ite of t * t * t

let id e = e.uid
let node e = e.n
let equal a b = a == b
let hash e = e.uid
let compare a b = Int.compare a.uid b.uid

(* Hash-consing compares a node's children by identity: two nodes are the
   same key when their constructors match and their children are
   physically equal, which hash-consing makes the same as structural
   equality. *)
module Tbl = Hashtbl.Make (struct
  type t = node

  let rec same_list xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> x == y && same_list xs ys
    | _ -> false

  let equal a b =
    match (a, b) with
    | True, True -> true
    | Var i, Var j -> i = j
    | Not x, Not y -> x == y
    | And xs, And ys | Or xs, Or ys -> same_list xs ys
    | Xor (a, b), Xor (c, d) -> a == c && b == d
    | Ite (c, a, b), Ite (c', a', b') -> c == c' && a == a' && b == b'
    | _ -> false

  let mix h x = (h * 31) + x

  let rec hash_list h = function
    | [] -> h
    | e :: es -> hash_list (mix h e.uid) es

  let hash n =
    let h =
      match n with
      | True -> 0
      | Var i -> mix 1 i
      | Not e -> mix 2 e.uid
      | And es -> hash_list 3 es
      | Or es -> hash_list 4 es
      | Xor (a, b) -> mix (mix 5 a.uid) b.uid
      | Ite (c, a, b) -> mix (mix (mix 6 c.uid) a.uid) b.uid
    in
    (* spread the low bits, which pick the bucket *)
    Int.hash h
end)

(* Uids come from one process-wide atomic counter, so they never collide
   across scopes and a uid sort stays a construction-order sort. *)
let uids = Atomic.make 0

let true_ = { uid = Atomic.fetch_and_add uids 1; n = True }
let false_ = { uid = Atomic.fetch_and_add uids 1; n = Not true_ }

(* A hash-consing table.  Portfolio workers build expressions in one
   scope from several domains, so every lookup+insert is one critical
   section; a CEGIS run builds a counterexample's nodes once per
   iteration, so lookups stay a visible cost next to the solver's search.
   The table is strongly held: a weak one would make uids, and with them
   the CEGIS trajectory, depend on GC timing. *)
type scope = { table : t Tbl.t; lock : Mutex.t }

let new_scope () =
  let table = Tbl.create 4096 in
  Tbl.add table True true_;
  Tbl.add table (Not true_) false_;
  { table; lock = Mutex.create () }

(* Every domain starts in the one process-wide scope. *)
let scope_key =
  let global = new_scope () in
  Domain.DLS.new_key (fun () -> global)

let current_scope () = Domain.DLS.get scope_key

let with_scope scope f =
  let prev = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key scope;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key prev) f

let scope_size s = Mutex.protect s.lock (fun () -> Tbl.length s.table)

(* Neither [Tbl.find_opt] nor [Tbl.add] raises on a well-formed node, so
   the lock needs no [Fun.protect] (and [mk] allocates no closure). *)
let mk n =
  let s = current_scope () in
  Mutex.lock s.lock;
  let e =
    match Tbl.find_opt s.table n with
    | Some e -> e
    | None ->
        let e = { uid = Atomic.fetch_and_add uids 1; n } in
        Tbl.add s.table n e;
        e
  in
  Mutex.unlock s.lock;
  e

let var i =
  if i < 0 then invalid_arg "Expr.var: negative index";
  mk (Var i)

let not_ e = match e.n with Not x -> x | _ -> mk (Not e)
let is_true e = equal e true_
let is_false e = equal e false_
let of_bool b = if b then true_ else false_

(* A complementary pair is some [x] next to [Not x]: look for the [Not]
   node's child among the operands instead of negating every operand,
   which would hash-cons a [Not] node per operand. *)
let has_complement es =
  List.exists (fun e -> match e.n with Not x -> List.memq x es | _ -> false) es

let and_ es =
  let es = List.sort_uniq compare es in
  let es = List.filter (fun e -> not (is_true e)) es in
  if List.exists is_false es || has_complement es then false_
  else match es with [] -> true_ | [ e ] -> e | _ -> mk (And es)

let or_ es =
  let es = List.sort_uniq compare es in
  let es = List.filter (fun e -> not (is_false e)) es in
  if List.exists is_true es || has_complement es then true_
  else match es with [] -> false_ | [ e ] -> e | _ -> mk (Or es)

(* [a] is [not_ b], found without building [not_ b] *)
let complementary a b =
  (match a.n with Not x -> x == b | _ -> false)
  || match b.n with Not x -> x == a | _ -> false

let xor a b =
  if is_false a then b
  else if is_false b then a
  else if is_true a then not_ b
  else if is_true b then not_ a
  else if equal a b then false_
  else if complementary a b then true_
  else
    (* canonical operand order *)
    let a, b = if a.uid <= b.uid then (a, b) else (b, a) in
    mk (Xor (a, b))

let rec xor_l = function
  | [] -> false_
  | [ e ] -> e
  | es ->
      (* balanced tree keeps the DAG shallow for long parity chains *)
      let n = List.length es in
      let rec split i acc = function
        | rest when i = n / 2 -> (List.rev acc, rest)
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let left, right = split 0 [] es in
      xor (xor_l left) (xor_l right)

let imp a b = or_ [ not_ a; b ]
let iff a b = not_ (xor a b)

let ite c a b =
  if is_true c then a
  else if is_false c then b
  else if equal a b then a
  else if is_true a then or_ [ c; b ]
  else if is_false a then and_ [ not_ c; b ]
  else if is_true b then or_ [ not_ c; a ]
  else if is_false b then and_ [ c; a ]
  else mk (Ite (c, a, b))

let eval assignment e =
  let cache = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt cache e.uid with
    | Some v -> v
    | None ->
        let v =
          match e.n with
          | True -> true
          | Var i -> assignment i
          | Not x -> not (go x)
          | And es -> List.for_all go es
          | Or es -> List.exists go es
          | Xor (a, b) -> go a <> go b
          | Ite (c, a, b) -> if go c then go a else go b
        in
        Hashtbl.add cache e.uid v;
        v
  in
  go e

let fold_nodes f init e =
  let seen = Hashtbl.create 64 in
  let acc = ref init in
  let rec go e =
    if not (Hashtbl.mem seen e.uid) then begin
      Hashtbl.add seen e.uid ();
      acc := f !acc e;
      match e.n with
      | True | Var _ -> ()
      | Not x -> go x
      | And es | Or es -> List.iter go es
      | Xor (a, b) ->
          go a;
          go b
      | Ite (c, a, b) ->
          go c;
          go a;
          go b
    end
  in
  go e;
  !acc

let vars e =
  fold_nodes (fun acc x -> match x.n with Var i -> i :: acc | _ -> acc) [] e
  |> List.sort_uniq Int.compare

let size e = fold_nodes (fun acc _ -> acc + 1) 0 e

let rec pp fmt e =
  match e.n with
  | True -> Format.pp_print_string fmt "true"
  | Var i -> Format.fprintf fmt "v%d" i
  | Not x when is_true x -> Format.pp_print_string fmt "false"
  | Not x -> Format.fprintf fmt "!%a" pp x
  | And es -> Format.fprintf fmt "(and %a)" pp_list es
  | Or es -> Format.fprintf fmt "(or %a)" pp_list es
  | Xor (a, b) -> Format.fprintf fmt "(xor %a %a)" pp a pp b
  | Ite (c, a, b) -> Format.fprintf fmt "(ite %a %a %a)" pp c pp a pp b

and pp_list fmt es =
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp fmt es
