(** Crash recovery from the event log.

    The shared event log doubles as a write-ahead log: its text form
    ({!Weihl_event.Notation}) is the durable record, and the committed
    projection determines the state to rebuild.  Recovery re-executes
    the committed transactions serially against fresh objects:

    - in {e commit order} for dynamic-atomic systems — commit order is
      consistent with [precedes], so dynamic atomicity guarantees it is
      a valid serialization;
    - in {e timestamp order} for static and hybrid systems — their
      definitions make the timestamp order the valid serialization.

    Re-execution must reproduce the logged results exactly (serial
    execution of a deterministic specification); any mismatch means the
    log and the objects disagree and recovery fails loudly rather than
    silently diverging.  Aborted and in-flight transactions are
    discarded, exactly as [perm] discards them in the model. *)

open Weihl_event

type order = Commit_order | Timestamp_order

val order_of_policy : System.ts_policy -> order
(** Commit order for dynamic atomicity, timestamp order for the static
    and hybrid policies. *)

val committed_in_order :
  order -> History.t -> (Activity.t * (Object_id.t * Operation.t * Value.t) list) list
(** The committed transactions, each with its completed operations in
    program order, sorted by the recovery order.  Activities without a
    timestamp are dropped under [Timestamp_order]. *)

type report = {
  replayed : int;
      (** committed transactions of the log re-executed — a
          checkpoint's rebuild transaction is not one of them *)
  folded : int;
      (** committed transactions a checkpoint's rebuild transaction
          stood in for; [folded + replayed] is what a full-log replay
          re-executes *)
  substituted : int;
      (** operations whose replayed result legally differed from the
          logged one — only possible under non-deterministic
          specifications (e.g. the semiqueue), where replay may make a
          different permissible choice than the original execution *)
  dropped_records : int;
      (** torn-tail records truncated by {!Wal.decode} before replay *)
}

type failure =
  | Corrupt of Wal.error  (** the durable log is damaged mid-stream *)
  | Divergent of string
      (** replay produced, or the log claims, a result the
          specification rules out *)
  | Checkpoint_invalid of string
      (** checkpoint-aware recovery could not proceed: the log was
          truncated behind a checkpoint but no usable checkpoint covers
          the missing prefix, or a checkpoint's recorded in-doubt set
          is unreachable from the log tail *)

val pp_failure : Format.formatter -> failure -> unit

val replay_txns :
  System.t ->
  (Activity.t * (Object_id.t * Operation.t * Value.t) list) list ->
  (report, failure) result
(** The replay engine on an explicit transaction list (as produced by
    {!committed_in_order}) — the sharded runtime uses it to replay a
    {e merged} cross-shard committed projection in global commit-
    timestamp order against one combined system.  Failures are always
    {!failure.Divergent} here. *)

val replay :
  order -> System.t -> History.t -> (report, failure) result
(** Re-execute the committed transactions of the history against the
    (fresh) system's objects, validating both the logged results and
    the replayed results against each object's sequential
    specification.  A disagreement where both results are permissible
    is counted as a substitution; one the specification rules out is a
    divergence.  The system's log will contain the replayed events. *)

(** {1 Sharded recovery}

    A shard participating in two-phase commit can crash between its
    yes-vote (the durable {!Wal.control.Prepared} record) and the
    coordinator's decision.  On restart such a transaction is
    {e in-doubt}: its effects must be reinstated and held in the
    prepared state — blocking conflicting operations — until a decision
    resolves it.  It must neither commit (the coordinator may have
    aborted) nor abort (the coordinator may have committed). *)

type shard_report = {
  base : report;  (** the committed-projection replay *)
  reinstated : int;
      (** prepared-but-undecided transactions re-executed and parked in
          the prepared state *)
  resolved : int;
      (** reinstated transactions resolved immediately — by a durable
          {!Wal.control.Decided} record or by the [resolve] callback *)
  in_doubt : (int * Txn.t) list;
      (** transactions still in-doubt after recovery, as [(gid, txn)];
          resolve them later with {!System.commit_prepared} /
          {!System.abort_prepared} once the coordinator's decision is
          learned *)
}

(** {1 Checkpoint-aware recovery}

    With state checkpoints ({!Checkpoint}) recovery no longer replays
    the whole log: it loads the newest checkpoint whose durable
    [Checkpointed] marker matches its file digest, replays the
    checkpoint's rebuild transaction — the committed state folded below
    the checkpoint, as one transaction — and then only the log tail at
    sequence numbers [>= covered], skipping the folded activities whose
    records reach it.  Restart work is bounded by the tail length plus
    the objects' state, not the log length.  A damaged, missing, or stale
    checkpoint falls back {e loudly} (a note per fallback) to the next
    older checkpoint, and finally to a full-log replay — unless the log
    was already truncated behind a checkpoint, in which case recovery
    fails with {!failure.Checkpoint_invalid} rather than silently
    recovering partial state. *)

type source = Full_replay | From_checkpoint of { covered : int }

type checkpointed_report = {
  shard : shard_report;
  source : source;  (** which path recovery actually took *)
  fallbacks : string list;
      (** one loud note per checkpoint that was skipped and why; empty
          when the newest checkpoint was used (or none existed) *)
  wal_records : int;  (** records surviving in the durable log *)
  replayed_records : int;
      (** log records recovery consumed: the tail length under
          [From_checkpoint] — the recovery-work bound the soak harness
          asserts — or [wal_records] under [Full_replay] *)
  rebuild_ops : int;
      (** operations of the checkpoint's rebuild transaction replayed
          ahead of the tail; [0] under [Full_replay] *)
}

val pp_source : Format.formatter -> source -> unit

val restore_checkpointed :
  ?resolve:(int -> [ `Commit of Timestamp.t option | `Abort | `Unknown ]) ->
  ?checkpoints:string list ->
  order ->
  System.t ->
  string ->
  (checkpointed_report, failure) result
(** Crash recovery proper, the one restore path: {!Wal.decode_records}
    the durable log — truncating a torn tail, rejecting mid-log
    corruption with {!failure.Corrupt} — then replay its committed
    projection ({!replay}'s engine), reinstate every transaction with a
    durable [Prepared] record but no commit/abort in the surviving log,
    and resolve each from its durable [Decided] record when present,
    else via [resolve] (e.g. a query against the coordinator's decision
    log; default [`Unknown], leaving it in-doubt).

    [checkpoints] holds the retained checkpoint file texts (any order;
    matched to durable [Checkpointed] markers by digest).  Markers are
    tried newest first; each unusable one adds a [fallbacks] note.
    With no checkpoint the whole surviving log is replayed
    ([Full_replay]); this is the invariant the fault harness checks:
    recovery lands on exactly the state of the committed projection of
    the surviving log. *)
