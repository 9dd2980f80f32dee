(** Intentions-list recovery (the Lampson-Sturgis technique the paper
    pairs with its locking protocols).

    Updates by an active transaction are buffered as a list of
    (operation, result) {e intentions} rather than applied to the
    committed state.  The transaction's own view replays its intentions
    on top of the committed state; commit installs the intentions;
    abort simply discards them.  Recovery is thus trivially correct and
    never disturbs other transactions' views. *)

open Weihl_event

type t

val create : Weihl_spec.Seq_spec.t -> t

val view : t -> Txn.t -> Weihl_spec.Seq_spec.frontier
(** Committed state as seen by the transaction: the committed frontier
    advanced through its own intentions. *)

val peek : t -> Txn.t -> Operation.t -> Value.t option
(** The result the operation would receive from the transaction's view
    (the specification's first permissible outcome), without recording
    anything.  [None] when the specification permits no outcome. *)

val execute : t -> Txn.t -> Operation.t -> Value.t option
(** Like {!peek}, but records the (operation, result) pair as an
    intention of the transaction. *)

val record : t -> Txn.t -> Operation.t -> Value.t -> unit
(** Record a {e chosen} (operation, result) intention — unlike
    {!execute}, the caller picks which permissible outcome to grant.
    Data-dependent protocols use this to steer a non-deterministic
    specification toward a result class that does not conflict with
    other holders.
    @raise Invalid_argument if the result is not permissible from the
    transaction's view. *)

val intentions : t -> Txn.t -> (Operation.t * Value.t) list
(** The transaction's recorded intentions, oldest first. *)

val active : t -> (Txn.t * (Operation.t * Value.t) list) list
(** Intentions of every transaction with recorded, uncommitted work. *)

val commit : t -> Txn.t -> unit
(** Install the transaction's intentions into the committed state.
    @raise Invalid_argument if the intentions no longer replay — a
    protocol bug, since locking must have preserved their validity. *)

val abort : t -> Txn.t -> unit
(** Discard the transaction's intentions. *)
