(** Committed projections reconstructed from a shipped event stream.

    A replica holds nothing but the records its shard's WAL shipped; to
    answer anything it must turn that stream back into "which
    transactions committed, with which operations, as of which
    timestamp".  This module is that reconstruction, shared by the
    read path ({!Fold}, which serves reads), the failover drill
    (lost-commit accounting) and the equivalence property.

    The timestamp attached to each transaction is its {e serialization}
    timestamp — the commit timestamp for updates, the initiation
    timestamp for read-only transactions (hybrid atomicity, §4.3), and
    [None] under a commit-order policy.

    {!Fold} keeps the same projection incrementally: the replica tier
    feeds it a replica's applied events once, when a read first needs
    them, and serves reads from the per-object states it maintains,
    instead of replaying the stream per read. *)

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

(** {1 The incremental fold}

    One shard's committed updates folded, in timestamp order and up to
    a mark, into one {!Weihl_spec.Seq_spec.frontier} per object — the
    state a read-only activity at any timestamp above the mark
    observes.

    {!feed} tracks each update activity's completed operations in
    program order (an invocation followed by its response on the same
    object, as {!Cc.Recovery.completed_ops} pairs them) and its first
    timestamped event (the initiation under [`Static], the commit under
    [`Hybrid], as {!History.timestamp_of} reads it).  Read-only
    activities are skipped and an [Abort] drops the activity.  The
    activity's first [Commit] stages it at that timestamp; a commit
    without one is dropped, as {!committed} drops it.  {!upto} folds
    every staged transaction at or below the new mark into the
    frontiers, sorted by timestamp.

    The fold is {e broken} — it answers nothing true any more — when a
    commit arrives at or below the folded mark (the mark certified a
    state that missed it) or a logged result is one the object's
    specification rules out.  Neither happens in a correct run. *)

module Fold : sig
  type t

  val create : spec:(Object_id.t -> Weihl_spec.Seq_spec.t option) -> t
  (** An empty fold.  [spec] names each object's sequential
      specification; [None] marks an unknown object. *)

  val feed : t -> Event.t -> unit
  (** Track one event of the shard's stream, in stream order. *)

  val upto : t -> int -> unit
  (** Raise the mark to [h] — a no-op unless [h] is above it — folding
      the staged transactions with timestamp [<= h]. *)

  val mark : t -> int
  (** The highest mark folded to; [-1] before the first. *)

  val broken : t -> string option
  (** Why the fold no longer holds the committed state, if it does
      not. *)

  val frontier : t -> Object_id.t -> Weihl_spec.Seq_spec.frontier option
  (** The object's state as of the mark: its folded frontier, or the
      specification's start for an object no folded update touched;
      [None] for an unknown object. *)
end
