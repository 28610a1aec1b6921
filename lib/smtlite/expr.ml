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

(* Structural key used for hash-consing: children identified by uid. *)
module Key = struct
  type k =
    | KTrue
    | KVar of int
    | KNot of int
    | KAnd of int list
    | KOr of int list
    | KXor of int * int
    | KIte of int * int * int

  let of_node = function
    | True -> KTrue
    | Var i -> KVar i
    | Not e -> KNot e.uid
    | And es -> KAnd (List.map (fun e -> e.uid) es)
    | Or es -> KOr (List.map (fun e -> e.uid) es)
    | Xor (a, b) -> KXor (a.uid, b.uid)
    | Ite (c, a, b) -> KIte (c.uid, a.uid, b.uid)
end

(* Uids come from one process-wide atomic counter, so they never collide
   across scopes and a uid sort stays a construction-order sort. *)
let uids = Atomic.make 0

let true_ = { uid = Atomic.fetch_and_add uids 1; n = True }
let false_ = { uid = Atomic.fetch_and_add uids 1; n = Not true_ }

(* A hash-consing table.  Portfolio workers build expressions in one
   scope from several domains, so every lookup+insert is one critical
   section; solver search (which never allocates expressions) dominates
   wall-clock.  The table is strongly held: a weak one would make uids,
   and with them the CEGIS trajectory, depend on GC timing. *)
type scope = { table : (Key.k, t) Hashtbl.t; lock : Mutex.t }

let new_scope () =
  let table = Hashtbl.create 4096 in
  Hashtbl.add table Key.KTrue true_;
  Hashtbl.add table (Key.KNot true_.uid) false_;
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

let scope_size s = Mutex.protect s.lock (fun () -> Hashtbl.length s.table)

let mk n =
  let key = Key.of_node n in
  let s = current_scope () in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some e -> e
      | None ->
          let e = { uid = Atomic.fetch_and_add uids 1; n } in
          Hashtbl.add s.table key e;
          e)

let var i =
  if i < 0 then invalid_arg "Expr.var: negative index";
  mk (Var i)

let not_ e = match e.n with Not x -> x | _ -> mk (Not e)
let is_true e = equal e true_
let is_false e = equal e false_
let of_bool b = if b then true_ else false_

let and_ es =
  let es = List.sort_uniq compare es in
  let es = List.filter (fun e -> not (is_true e)) es in
  if List.exists is_false es then false_
  else if List.exists (fun e -> List.memq (not_ e) es) es then false_
  else
    match es with [] -> true_ | [ e ] -> e | _ -> mk (And es)

let or_ es =
  let es = List.sort_uniq compare es in
  let es = List.filter (fun e -> not (is_false e)) es in
  if List.exists is_true es then true_
  else if List.exists (fun e -> List.memq (not_ e) es) es then true_
  else
    match es with [] -> false_ | [ e ] -> e | _ -> mk (Or es)

let xor a b =
  if is_false a then b
  else if is_false b then a
  else if is_true a then not_ b
  else if is_true b then not_ a
  else if equal a b then false_
  else if equal a (not_ b) then true_
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
