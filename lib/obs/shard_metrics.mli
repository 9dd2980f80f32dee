(** Per-shard contention and 2PC round metrics for the sharded runtime.

    A thin convention layer over {!Metrics}: one counter family per
    shard ([shard<i>.committed.local], [.committed.tpc], [.aborted],
    [.prepared], [.conflicts], plus an [in_doubt] gauge), and
    group-wide 2PC instruments ([tpc.rounds], [tpc.commit],
    [tpc.abort], [tpc.messages], [txn.shard_fanout]).
    All instruments live in one {!Metrics.Registry}, so the usual
    text/JSON renderers see them too. *)

type shard = {
  committed_local : Metrics.Counter.t;
      (** single-shard commits (no 2PC round) *)
  committed_tpc : Metrics.Counter.t;  (** commits decided by 2PC *)
  aborted : Metrics.Counter.t;
  prepared : Metrics.Counter.t;  (** yes-votes (prepare records) *)
  conflicts : Metrics.Counter.t;  (** operations that blocked *)
  in_doubt : Metrics.Gauge.t;  (** currently prepared, undecided *)
  mailbox_depth : Metrics.Gauge.t;
      (** queued requests in the shard's mailbox (multicore runtime);
          [max] is the high-water mark *)
}

type t

val create :
  ?registry:Metrics.Registry.t -> ?replicas:int -> shards:int -> unit -> t
(** Instruments for [shards] shards, registered in [registry] (a fresh
    one by default).  [replicas] (default 0) additionally creates the
    read-replica instruments ([replica<i>.lag.records], [.lag.vtime],
    [.applied], [.reads], plus group-wide [replication.promotions],
    [.resyncs] and [.stale_bounces]).
    @raise Invalid_argument if [shards <= 0] or [replicas < 0]. *)

val registry : t -> Metrics.Registry.t
val shard_count : t -> int

val shard : t -> int -> shard
(** @raise Invalid_argument if the index is out of range. *)

val local_commit : t -> int -> unit
val tpc_commit_at : t -> int -> unit
val abort_at : t -> int -> unit
val prepare_at : t -> int -> unit
val conflict_at : t -> int -> unit
val set_in_doubt : t -> int -> int -> unit
val set_mailbox_depth : t -> int -> int -> unit

(** {1 Read-replica instruments}

    Populated by the replica tier ({!Weihl_replica.Tier} feeds them
    when constructed with [?metrics]); all no-arg-safe only when the
    instruments exist — the per-replica calls raise on an index outside
    the [replicas] the metrics were created with. *)

val replica_count : t -> int

val set_replica_lag : t -> replica:int -> records:int -> vtime:int -> unit
(** The replica's apply lag right now: feed records not yet applied,
    and the timestamp-domain staleness (group clock minus the
    replica's oldest live-shard high-water mark). *)

val replica_applied : t -> replica:int -> records:int -> unit
(** Tick the replica's applied-records counter by one segment's worth. *)

val replica_read : t -> replica:int -> unit
(** One snapshot read served by the replica. *)

val replica_resync : t -> unit
val stale_bounce : t -> unit
val promotion : t -> unit

val replica_lag : t -> int -> int
val replica_lag_vtime : t -> int -> int
val replica_applied_count : t -> int -> int
val replica_reads : t -> int -> int
val promotion_count : t -> int
val resync_count : t -> int
val stale_bounce_count : t -> int

val tpc_round : t -> committed:bool -> messages:int -> fanout:int -> unit
(** Record one multi-shard commit decision: whether it committed, the
    2PC messages it exchanged, and the transaction's shard fan-out. *)

val fanout : t -> Metrics.Histogram.t
(** Shard fan-out of multi-shard commit decisions. *)

val wal_sync : t -> records:int -> unit
(** Record one WAL device sync that made [records] previously-appended
    records durable at once (group commit: [records] is the batch
    size).  Ticks [wal.appends] by [records], [wal.syncs] by one, and
    observes [records] in the [group_commit.batch_size] histogram. *)

val syncs_per_commit : t -> float
(** [wal.syncs / total commits] across all shards — group commit is
    paying off when this is below 1.  [0.] before any commit. *)

val group_commit_batch : t -> Metrics.Histogram.t
(** Records made durable per WAL sync ([group_commit.batch_size]). *)

val wal_sync_count : t -> int
val wal_append_count : t -> int

val mailbox_depth : t -> int -> float
(** High-water mark of shard [i]'s mailbox depth. *)

val checkpoint_written : t -> duration:float -> age:int -> unit
(** Record one checkpoint file made durable.  [duration] is the
    wall-clock cost of capture+encode+marker sync in microseconds
    ([checkpoint.write_duration]); [age] is how many records the log
    head is past the checkpoint's redo point — the tail a crash right
    now would replay ([checkpoint.age_records] gauge). *)

val recovery_done : t -> duration:float -> records:int -> unit
(** Record one completed shard recovery: wall-clock [duration] in
    microseconds ([recovery.duration]) and the number of WAL [records]
    actually replayed ([recovery.records_replayed]) — the tail behind a
    checkpoint, or the whole log when none was usable. *)

val checkpoint_count : t -> int
val checkpoint_write : t -> Metrics.Histogram.t
val checkpoint_age : t -> float
val recovery_count : t -> int
val recovery_duration : t -> Metrics.Histogram.t
val recovery_records : t -> Metrics.Histogram.t

val render : t -> string
(** A per-shard table, a 2PC summary line, a full one-line histogram
    summary (count, mean, percentiles, max) of [txn.shard_fanout], and
    — once any sync happened — a WAL/group commit summary.  Checkpoint and recovery summaries appear once any
    checkpoint was written or any recovery ran. *)
