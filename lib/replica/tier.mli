(** A read-replica tier over a shard {!Weihl_shard.Group}.

    Hybrid atomicity (§4.3) hands every read-only activity a timestamp
    at initiation and promises the committed state {e as of} that
    timestamp — a contract a log-shipping replica can serve without
    ever touching the primary's lock tables.  The tier ships each
    shard's WAL record stream to [replicas] replicas over a seeded
    {!Weihl_dist.Msim} channel and routes read-only transactions to
    them at their initiation timestamp.

    {2 The shipping protocol}

    Node 0 of the channel is the primary feed; nodes [1..replicas] are
    the replicas.  Each {!pump} round sends, per live shard and
    replica, one CRC-framed segment ({!Weihl_cc.Wal.segment}) starting
    at the replica's last {e acked} position — unacknowledged data is
    simply re-sent, so a dropped segment or ack heals on the next
    round.  The
    segment carries the shard's {e watermark}: the group clock reading
    taken before the cut, so every commit with timestamp [<= watermark]
    is inside the shipped prefix.  A replica applies a segment only
    when it splices exactly at its applied position (overlaps are
    trimmed, pure duplicates acked away); a damaged segment — torn,
    checksum-caught, or mis-based — is refused whole and answered with
    a resync request from the last applied position, never applied in
    part.  Each applied segment advances the replica's {e high-water
    mark} to the watermark.

    Each replica keeps, per shard, the record lines it applied, byte
    for byte as they arrived — its durable local log.  A segment that
    splices exactly is kept as the very string the feed cut, shared by
    every replica it was sent to; an overlapping one keeps a copy of
    its new tail only.  Events are decoded from the log on demand
    ({!replica_events}), never retained.

    {2 The high-water-mark rule}

    A read at initiation timestamp [T] may be served by a replica only
    if [T <= hwm] on every shard the read touches: below the mark the
    shipped prefix provably contains every commit the read must
    observe; above it the read blocks (pumping, under [`Wait]) or
    bounces to the primary.  Staleness is detected, never silent.

    The watermark is {!Weihl_shard.Group.serving_mark}: the group
    clock at the cut, clamped below every commit the shipped prefix
    does not hold yet — below the initiation timestamp of any live
    update ({!Weihl_shard.Group.oldest_live_update} — under [`Static]
    an update commits at the timestamp it drew at [begin_txn], long
    after the clock passed it), below the agreed timestamp of any
    in-doubt leg on the shard whose decision is a commit, and, under
    group commit, below any commit the shard applied but has not
    synced.

    {2 Serving from folded state}

    Each replica folds every shard's committed updates into one
    {!Weihl_spec.Seq_spec} frontier per object ({!Weihl_cc.Fold}), in
    timestamp order and up to the mark.  Applying a segment only
    appends its lines to the log; a read first catches the fold of
    every shard it touches up, decoding the lines applied since the
    fold last caught up, so each record is folded once, by the first
    read that needs it, and a replica nobody reads folds nothing.  A
    read is then one lookup per step: the first permissible outcome of the
    step's operation at the object's frontier — for a read-only
    operation, what [Hybrid] and [Multiversion] answer a read-only
    invocation.  Whether a step is refused depends on that state, not
    on the operation: a step whose outcome would change the frontier is
    refused, and any other is answered.  So a replica answers a
    bank account's [deposit 0], or a [withdraw] the balance cannot
    cover ([insufficient_funds]), where [Hybrid] at the primary refuses
    every operation that is not read-only.  A bounced read
    folds the primary's committed updates up to [T] from scratch, over
    the touched shards only; the tier builds no {!Weihl_cc.System}.
    A commit fed at or below the fold's mark, or a logged result the
    specification rules out, breaks the shard's fold: every later read
    touching it fails with the reason, until a new epoch resets it.

    {2 Failover}

    {!fail_over} promotes the most-advanced replica by applied log
    position: the old primary is fenced by bumping the shard's epoch
    (in-flight old-epoch segments are refused), the promoted replica
    catches up from the durable WAL tail, the primary incarnation is
    rebuilt from the same durable log ({!Weihl_shard.Group.recover_shard},
    in-doubt legs resolved against the decision log), and the promoted
    replica's state is verified against the recovered primary's,
    object by object — zero lost committed transactions, by check
    rather than by assumption.  The check compares state, not
    transaction names: a primary recovered from a checkpoint lists one
    rebuild transaction in place of the transactions it folded.  Replicas then resync from position zero on the new
    epoch; until their marks recover, reads bounce to the primary. *)

open Weihl_event
module Cc = Weihl_cc
module Msim = Weihl_dist.Msim
module Group = Weihl_shard.Group

type t

type stale_policy =
  [ `Bounce  (** stale reads go straight to the primary *)
  | `Wait of int
    (** pump up to this many rounds for the mark to catch up, then
        bounce *) ]

val create :
  ?faults:Msim.faults ->
  ?stale:stale_policy ->
  ?seed:int ->
  ?metrics:Weihl_obs.Shard_metrics.t ->
  replicas:int ->
  make_object:(Cc.Event_log.t -> Object_id.t -> Cc.Atomic_object.t) ->
  Group.t ->
  t
(** A tier of [replicas] replicas over the group.  [faults] (default
    none) injects drop/duplicate/reorder on the shipping channel;
    [stale] (default [`Wait 4]) picks the stale-read policy;
    [seed] (default the group's seed is not visible, so 1) drives the
    channel's delays and faults.  [make_object] is the constructor
    registered with the group: the tier builds each object once, on
    first use, for the specification ([spec] field) its folds and reads
    run.
    @raise Invalid_argument if [replicas <= 0] or the group runs more
    than one domain (the tier's watermark cut relies on the
    deterministic sequential mode). *)

val group : t -> Group.t
val replica_count : t -> int

(** {1 Shipping} *)

val pump : t -> unit
(** One shipping round: per live shard and live replica, send one
    segment of at most 64 records from the replica's acked position,
    then deliver the channel to quiescence (acks, resyncs and
    retransmit responses included).  Each shard is cut once per resume
    position — slice, watermark and text — and every replica resuming
    there is sent the same text, so a round costs the records shipped,
    not the length of the log ({!Weihl_shard.Group.records_from}). *)

val sync : t -> unit
(** Pump until every live, unpartitioned replica has applied the full
    feed of every live shard, or no round makes progress. *)

val feed_pos : t -> shard:int -> int
(** Records in the shard's feed (0 for a crashed shard) —
    {!Weihl_shard.Group.record_count}, O(1).  The lag gauges, the
    caught-up check and {!sync}'s round budget read it, so none of them
    walks the log. *)

val applied_pos : t -> replica:int -> shard:int -> int
val hwm : t -> replica:int -> shard:int -> int
(** The replica's high-water mark for the shard; [-1] before the first
    applied segment of the current epoch. *)

val lag_records : t -> replica:int -> int
(** Feed records not yet applied by the replica, summed over live
    shards. *)

val replica_log : t -> replica:int -> shard:int -> string
(** The replica's durable log for the shard as a WAL text: a header at
    base 0, then the record lines it applied, byte for byte as they
    arrived — a gapless stream from position 0. *)

val replica_events : t -> replica:int -> shard:int -> Event.t list
(** The events of {!replica_log}, in apply order, decoded on demand.
    For checks and drills. *)

val epoch : t -> shard:int -> int

(** {1 Replica faults} *)

val set_lag : t -> replica:int -> int -> unit
(** Skip the replica for the next [n] pump rounds — an apply-lag
    schedule. *)

val crash_replica : t -> int -> unit
(** The replica stops receiving and serving.  Its applied records are
    its durable local log and survive; its high-water mark does not
    (it is segment metadata), so after {!restart_replica} the replica
    acks its old position, resumes from it, and serves no read until a
    fresh segment re-establishes the mark. *)

val restart_replica : t -> int -> unit
val replica_down : t -> int -> bool

val partition_replica : t -> int -> unit
(** Cut the channel link between the feed and the replica. *)

val heal_replica : t -> int -> unit

val damage_next_segments : t -> int -> unit
(** Corrupt the text of the next [n] segments cut — the receiver must
    detect each (CRC or framing) and resync rather than apply. *)

val send_segment :
  ?alter:(string -> string) -> t -> replica:int -> shard:int -> from:int -> unit
(** Cut shard [shard]'s segment resuming at [from] — wherever the
    replica stands — pass its text through [alter] (default: as cut),
    send it to [replica], and run the channel until it and whatever it
    sets off are delivered.  Fault injection for the apply path: a
    [from] ahead of the replica is a gap, and [alter] damages the text
    where the caller chooses. *)

(** {1 Snapshot reads} *)

type serve = Served_replica of int | Served_primary

type read_outcome = {
  read_ts : int;  (** the initiation timestamp, from the group clock *)
  values : (Object_id.t * Operation.t * Value.t) list;
  serve : serve;
  bounced : bool;
      (** the chosen replica was below the mark (or down) and the read
          fell back to the primary *)
  waited : int;  (** pump rounds spent waiting for the mark *)
}

val read :
  ?replica:int ->
  t ->
  (Object_id.t * Operation.t) list ->
  (read_outcome, string) result
(** Run a read-only transaction against the tier at a fresh initiation
    timestamp.  [replica] pins the serving replica (default:
    round-robin).  Each step is answered from the folded state as of
    the timestamp.  [Error] when:
    - a step names an unregistered object (["unknown object x"]; no
      timestamp is drawn);
    - a step has no permissible outcome, or one that would change the
      object's state as of the timestamp (["read refused: ..."]) — a
      rule about that state, not the operation (see "Serving from
      folded state" above);
    - a touched shard's fold is broken (["replica state broken: ..."]);
    - the read bounced and the primary cannot serve it either
      (["unavailable: ..."]): a touched primary shard is down, or a
      live update initiated below the timestamp may still commit
      there.
    @raise Invalid_argument under the [`None_] timestamp policy —
    snapshot reads need initiation timestamps. *)

(** {1 Failover} *)

type promotion = {
  shard : int;
  promoted : int;  (** the most-advanced replica by applied position *)
  promoted_pos : int;  (** its position before catch-up *)
  caught_up : int;  (** records applied from the durable WAL tail *)
  new_epoch : int;
  verified : string option;
      (** [None] when every object's state folded from the promoted
          replica's log equals its state folded from the recovered
          primary's history, leaving out the in-doubt legs recovery
          resolved — the zero-lost-commits check; [Some msg] describes
          the first object that differs, or says the replica could not
          catch up from the durable WAL *)
}

val crash_primary : t -> int -> unit
(** Crash the shard's primary, retaining its durable WAL for
    {!fail_over}.  Idempotent per incarnation. *)

val fail_over : t -> int -> (promotion, string) result
(** Promote over the shard: fence the old incarnation (epoch bump),
    catch the most-advanced replica up from the durable tail, rebuild
    the primary from the durable WAL, verify the promoted projection
    against it, and re-point the shipping feed at the new epoch (all
    replicas resync from zero).  Crashes the primary first if it is
    still up.  [Error] reports an unrecoverable WAL or a verification
    failure. *)

(** {1 Introspection} *)

val promotions : t -> int

val resyncs : t -> int
(** Resync requests sent, summed over replicas ({!render} shows each
    replica's own count). *)

val fenced_segments : t -> int
val damaged_segments : t -> int
val segments_shipped : t -> int
val stale_bounced : t -> int
val reads_at : t -> replica:int -> int
val reads_primary : t -> int
val reads_waited : t -> int

val entries_consulted : t -> int
(** Entries reads have consulted so far: one frontier lookup per step,
    plus every event a read feeds a fold — a replica's catch-up on the
    records applied since its fold last caught up, or a bounced read's
    fold of the primary's history.
    Deterministic for a seeded call sequence — the growth counter
    behind a read's cost model. *)

val channel_dropped : t -> int
val channel_duplicated : t -> int
val channel_reordered : t -> int

val render : t -> string
(** A per-replica table (state, applied position, lag, lowest mark,
    reads served, resyncs requested) plus a channel summary — the
    body of [weihl replica]. *)
