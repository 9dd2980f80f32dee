(** Committed projections reconstructed from a shipped event stream.

    A replica holds nothing but the records its shard's WAL shipped; to
    answer anything it must turn that stream back into "which
    transactions committed, with which operations, as of which
    timestamp".  This module is that reconstruction, shared by the
    failover drill (lost-commit accounting) and the equivalence
    property.

    The timestamp attached to each transaction is its {e serialization}
    timestamp — the commit timestamp for updates, the initiation
    timestamp for read-only transactions (hybrid atomicity, §4.3), and
    [None] under a commit-order policy.

    The read path keeps the same projection incrementally, as
    per-object state: {!Weihl_cc.Fold}, which checkpoint capture
    shares. *)

open Weihl_event
module Cc = Weihl_cc

type txn = {
  activity : Activity.t;
  ts : Timestamp.t option;
  ops : (Object_id.t * Operation.t * Value.t) list;
      (** granted operations in program order *)
}

val committed : Cc.Recovery.order -> Event.t list -> txn list
(** The committed transactions of an event stream, sorted by the
    recovery order ([Timestamp_order] sorts by serialization timestamp;
    [Commit_order] keeps local commit order, with [ts = None]). *)

val as_of : int -> txn list -> txn list
(** The prefix with serialization timestamp [<= t].  Transactions
    without a timestamp are dropped — an as-of query is only meaningful
    under a timestamp policy. *)

val updates_history : keep:(txn -> bool) -> Event.t list -> History.t
(** The sub-history containing exactly the events of the committed
    update transactions selected by [keep] — what
    {!Cc.Recovery.replay} rebuilds a snapshot from, with every logged
    timestamp reinstated. *)

val equal_txn : txn -> txn -> bool

val pp_txn : Format.formatter -> txn -> unit

val diff : txn list -> txn list -> string option
(** [None] when the projections agree; otherwise a one-line description
    of the first disagreement (missing, extra or differing
    transaction), for divergence reports. *)
