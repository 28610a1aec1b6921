(** Hash-consed Boolean expression DAGs.

    Expressions are maximally shared: structurally equal expressions are
    physically equal, so equality and hashing are O(1) and the Tseitin
    translation caches per node.  Smart constructors perform light
    simplification (constant folding, involution of negation, duplicate and
    complement detection in [and_]/[or_]).

    Sharing is per {e scope}: each domain builds into its current
    {!scope}, which starts as one process-wide table.  A caller that runs
    many independent problems in one process (the serve daemon) gives
    each its own scope, so the nodes of a finished run can be collected
    instead of living in the table for the life of the process. *)

type t

type node = private
  | True
  | Var of int
  | Not of t
  | And of t list
  | Or of t list
  | Xor of t * t
  | Ite of t * t * t

(** [id e] identifies the node: ids are unique within a process, and
    structurally equal nodes built in one scope share theirs. *)
val id : t -> int

(** [node e] exposes the node structure for traversal. *)
val node : t -> node

(** The constant true / false. *)
val true_ : t

val false_ : t

(** [var i] is the propositional variable with index [i >= 0]. *)
val var : int -> t

(** [not_ e] is negation (simplifies [not_ (not_ e)] to [e]). *)
val not_ : t -> t

(** [and_ es] is the conjunction; [and_ [] = true_]. *)
val and_ : t list -> t

(** [or_ es] is the disjunction; [or_ [] = false_]. *)
val or_ : t list -> t

(** [xor a b] is exclusive or. *)
val xor : t -> t -> t

(** [xor_l es] is the parity of a list, folded as a balanced tree. *)
val xor_l : t list -> t

(** [imp a b] is implication [a => b]. *)
val imp : t -> t -> t

(** [iff a b] is equivalence. *)
val iff : t -> t -> t

(** [ite c a b] is if-then-else. *)
val ite : t -> t -> t -> t

(** [of_bool b] is [true_] or [false_]. *)
val of_bool : bool -> t

(** [is_true e] / [is_false e] recognize the constants. *)
val is_true : t -> bool

val is_false : t -> bool

(** [equal a b] is physical equality (valid thanks to hash-consing, for
    nodes built in one scope). *)
val equal : t -> t -> bool

val hash : t -> int
val compare : t -> t -> int

(** [eval assignment e] evaluates [e] under the variable assignment
    (a function from variable index to [bool]). *)
val eval : (int -> bool) -> t -> bool

(** [vars e] is the sorted list of variable indices occurring in [e]. *)
val vars : t -> int list

(** [size e] is the number of distinct DAG nodes reachable from [e]. *)
val size : t -> int

val pp : Format.formatter -> t -> unit

(** {1 Hash-consing scopes} *)

(** A hash-consing table.  Structurally equal expressions built in the
    same scope are physically equal; built in different scopes they are
    distinct nodes with distinct ids (still semantically equal).  Every
    scope already holds {!true_} and {!false_}. *)
type scope

(** [new_scope ()] is a scope holding only the constants, not yet
    installed in any domain. *)
val new_scope : unit -> scope

(** The scope the calling domain is building into. *)
val current_scope : unit -> scope

(** [with_scope s f] runs [f] with [s] as the calling domain's scope and
    restores the previous one afterwards.  A scope does not cross
    [Domain.spawn] by itself: capture {!current_scope} before spawning
    and re-install it in the child. *)
val with_scope : scope -> (unit -> 'a) -> 'a

(** [scope_size s] is the number of nodes [s] holds, constants included. *)
val scope_size : scope -> int
