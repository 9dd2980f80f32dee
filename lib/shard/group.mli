(** A shard group: N independent {!Weihl_cc.System} instances behind
    one transactional facade.

    Each shard owns its own event log, Lamport clock and durable WAL;
    the {!Router} places every object on exactly one shard.  A global
    transaction ({!Gtxn}) lazily opens a shard-local leg on first
    contact with each shard.

    The single-call API is a batch of one: {!invoke} is a one-entry
    {!invoke_batch}, and {!commit} of a transaction with at most one
    leg is a one-transaction {!commit_batch} — a single-shard commit
    runs no coordination round (hybrid updates still draw their commit
    timestamp from the group clock, which keeps the global timestamp
    order of updates consistent with [precedes]).  A multi-shard
    transaction commits by two-phase commit under one discipline,
    written once: every leg votes after a durable [Prepared] control
    record, the coordinator chooses the commit timestamp as one past
    the max of the participants' clock readings routed through the
    group clock, and each leg applies the decision under a durable
    [Decided] record.  One scheduler runs it, {!commit_batch}'s two
    synchronous waves with one WAL sync per shard per wave; {!commit}
    is a batch of one.  A commit that injects a fault (coordinator and
    participant crashes, partitions, message faults, forced no-votes)
    first runs its message round over {!Weihl_dist.Tpc.Driver} as a
    model, and the waves apply the fate the model records for each
    leg.

    All timestamps — static/hybrid-read-only initiation timestamps,
    single-shard hybrid commit timestamps, and 2PC-agreed commit
    timestamps — are drawn from the single group clock, so they are
    globally unique and the merged commit order is well defined.

    The group also models failure: {!crash_shard} drops a shard's
    volatile state (returning its WAL), {!recover_shard} rebuilds it
    via {!Weihl_cc.Recovery.restore_checkpointed} — reinstating prepared
    in-doubt legs — and {!resolve_in_doubt} applies the coordinator's
    decision log (presumed abort for unrecorded transactions). *)

open Weihl_event
module Cc = Weihl_cc
module Tpc = Weihl_dist.Tpc

type t

type invoke_result =
  | Granted of Value.t
  | Wait of Gtxn.t list
      (** Blocked on the listed global transactions (waits-for edges
          translated from the home shard's local graph). *)
  | Refused of string

type checkpoint_config = {
  every : int;
      (** auto-checkpoint a shard after every [every] commits that land
          on it *)
  archive : bool;
      (** archive truncated WAL prefixes (see {!archived_segments})
          instead of dropping them *)
}

val default_checkpoint : checkpoint_config
(** [{ every = 100; archive = false }]. *)

val create :
  ?policy:Cc.System.ts_policy ->
  ?metrics:Weihl_obs.Shard_metrics.t ->
  ?seed:int ->
  ?domains:int ->
  ?group_commit:bool ->
  ?sync_cost:(unit -> unit) ->
  ?checkpoint:checkpoint_config ->
  shards:int ->
  unit ->
  t
(** A group of [shards] systems under one timestamp policy.  [seed]
    derives the message-simulation seed of each faulted commit's model
    round.

    [domains] (default 1) counts the domains executing shard work, the
    calling domain's included: 1 runs every shard call inline on the
    caller — the deterministic sequential semantics — while
    [domains = N > 1] spreads the shards over [min N shards] owners
    ({!Exec}): shard [s] belongs to owner [s mod N], owner 0 is the
    domain that calls the group and runs its shards inline, and the
    other owners are worker domains behind bounded mailboxes.  Per-shard
    execution order is identical in every mode, so results do not
    depend on the domain count — only wall-clock timing does.  Call
    {!shutdown} when done with a multi-domain group.

    [group_commit] (default false) switches the WAL durability model
    from everything-appended-is-durable to the synced-prefix model:
    the group marks, per shard, the event-log and control-record
    prefix the last sync covered, {!durable_shard} returns only that
    prefix, and a crash loses the unsynced tail.  One sync rule holds
    on every commit path: a commit syncs the shards it appended to
    before it acknowledges if and only if [group_commit] is on — a
    wave after its commit records and votes and again after its
    [Decided] records.  [sync_cost] is the
    simulated device sync latency, paid once per per-shard sync on
    that shard's owner domain (so syncs overlap across domains); a
    wave's syncs ride on the wave's own jobs.

    [checkpoint] turns on state checkpointing: each shard writes a
    checkpoint file after every [every] commits that land on it
    (staggered across shards so the group never checkpoints in
    lock-step), keeps its files back to the second-newest marked one,
    and truncates its WAL behind the older marked file's redo point.  Without it the group never
    checkpoints on its own — {!checkpoint_shard} still works on
    demand.

    @raise Invalid_argument if [shards <= 0], the metrics were built
    for a different shard count, or [checkpoint.every] is not
    positive. *)

val shutdown : t -> unit
(** Join the worker domains (no-op at [domains = 1]).  Required before
    process exit for a multi-domain group — idle workers block on their
    mailboxes and the runtime waits for every domain. *)

val domain_count : t -> int
(** Domains executing shard work, the caller's included (1 in inline
    mode). *)

val jobs_posted : t -> int
(** Jobs posted to worker mailboxes so far: the group's cross-domain
    round trips (0 at [domains = 1]).  Deterministic for a seeded call
    sequence. *)

val mailbox_depth : t -> int -> int
(** Requests queued right now on the mailbox of the shard's owner (0
    inline and for the caller's shards). *)

val mailbox_max_depth : t -> int -> int
(** High-water mark of that mailbox's depth (0 inline and for the
    caller's shards). *)

val policy : t -> Cc.System.ts_policy
val shard_count : t -> int
val clock : t -> Cc.Lamport_clock.t

val shard_of : t -> Object_id.t -> int
(** Where the router places this object. *)

val system : t -> int -> Cc.System.t
(** The shard's current system incarnation (recovery replaces it).
    @raise Invalid_argument if the index is out of range. *)

val shard_crashed : t -> int -> bool

val add_object :
  t -> Object_id.t -> (Cc.Event_log.t -> Object_id.t -> Cc.Atomic_object.t) -> unit
(** Register the object on its home shard.  The constructor is retained
    so recovery can rebuild the shard's objects against a fresh log.
    @raise Invalid_argument on a duplicate object id. *)

val objects : t -> (Object_id.t * int) list
(** Registered objects with their home shards, sorted by id. *)

val has_object : t -> Object_id.t -> bool
(** Whether the object is registered.  O(1). *)

(** {1 Cross-shard tracing} *)

val set_tracer : t -> Weihl_obs.Shard_trace.t -> unit
(** Install a cross-shard trace: each shard's probe feeds its own
    timeline (pid [s + 1]); the group emits global-transaction spans
    on the coordinator timeline (pid 0), WAL-sync markers on the shard
    timelines, and one flow event per 2PC message whose effect a commit
    wave applied (a prepare to each leg that voted, its vote back, the
    decision to each leg that learned it), stamped at the
    coordinator's current virtual time.  Every subsequent {!begin_txn}
    also receives a {!Gtxn.trace_ctx}.  The tracer's [now] closure
    should already point at the driver's virtual clock.
    @raise Invalid_argument if the tracer was built for a different
    shard count. *)

val tracer : t -> Weihl_obs.Shard_trace.t option

(** {1 The transactional facade} *)

val begin_txn : t -> Activity.t -> Gtxn.t
(** Start a global transaction; static (and hybrid read-only)
    initiation timestamps come from the group clock and are shared by
    all of its legs. *)

val invoke : t -> Gtxn.t -> Object_id.t -> Operation.t -> invoke_result
(** Route the operation to the object's home shard, opening a leg there
    on first contact — {!invoke_batch} of one entry.  Refuses with
    ["shard down"] when the home shard is crashed.  @raise
    Invalid_argument if the transaction is not active or the object is
    unknown to its home shard. *)

val commit : ?fault:Tpc.fault -> ?votes_no:int list -> t -> Gtxn.t -> unit
(** Commit one transaction: {!commit_batch} of one.  [fault] and
    [votes_no] apply to a multi-shard transaction only: [fault] injects
    failures into its round (crashes, message faults, partitions) and
    [votes_no] forces the listed participant indices (positions in
    {!Gtxn.legs} order) to vote no.  With either, the round first runs
    over {!Weihl_dist.Tpc.Driver} as a model whose sites read their
    shard's clock live and record their vote and the verdict they
    learn, seeded from the group's seed and {!tpc_rounds}; the waves
    then prepare the legs that voted yes, abort those that voted no,
    take down the shards whose site crashed, apply the learned
    verdicts and presume abort for legs the round never engaged.  The
    transaction may be left {!Gtxn.status.In_doubt} (some leg prepared,
    no decision reached).  Outcomes are read back via {!Gtxn.status}.
    @raise Invalid_argument if the transaction is not active or has an
    operation still waiting. *)

val abort : ?reason:string -> t -> Gtxn.t -> unit
(** Abort every active leg (legs on crashed shards are already gone).
    @raise Invalid_argument if the transaction is not active. *)

(** {1 Batched execution and group commit}

    The multicore hot path.  The coordinator groups work by home
    shard and runs each phase as one job per worker domain, running its
    own shards' share inline meanwhile, then joins — shards execute
    their sub-lists in parallel on their owner domains.  Per-shard
    order is the batch order, so the outcome is deterministic at any
    domain count. *)

val invoke_batch :
  t -> (Gtxn.t * Object_id.t * Operation.t) list -> invoke_result list
(** Execute one operation per entry, batched per home shard; results
    come back in entry order.  Equivalent to calling {!invoke} on each
    entry in order, except that different shards' entries run
    concurrently.  @raise Invalid_argument as {!invoke}, or for an
    entry whose transaction has an operation still waiting from an
    earlier call, unless the entry retries that same object and
    operation: activities are sequential. *)

val commit_batch : ?crash_before_sync:int list -> t -> Gtxn.t list -> unit
(** Commit a batch with group commit and batched synchronous 2PC:
    single-shard commits and multi-shard prepares execute in one job
    wave (under [group_commit], one WAL sync per shard covers the whole
    batch — the [group_commit.batch_size] histogram observes it), the
    coordinator decides every multi-shard transaction after the vote
    sync, and a second wave applies decisions under [Decided] records
    and a final sync.  Under [group_commit] no transaction is
    acknowledged (status [Committed], entry in the committed
    projection) before the sync covering its records has returned.

    [crash_before_sync] injects the group-commit fault: the listed
    shards die after appending their wave-1 records but before the
    sync, losing the unsynced tail — their single-shard commits are
    never acknowledged, and multi-shard transactions with a leg there
    abort (no durable yes-vote).  Outcomes are read back via
    {!Gtxn.status}.  @raise Invalid_argument if a transaction is not
    active or has an operation still waiting. *)

(** {1 In-doubt resolution} *)

val decision_of : t -> int -> [ `Commit of int | `Abort ] option
(** The coordinator's durable decision for a gid, if recorded. *)

val resolve_in_doubt : t -> int
(** Resolve every prepared leg on a live shard from the decision log —
    presumed abort when no decision is recorded.  This is the
    participant-recontacts-coordinator step that ends the blocking
    window.  Returns the number of legs resolved. *)

val in_doubt : t -> (int * int) list
(** Currently prepared legs on live shards as [(gid, shard)]; gid is
    [-1] for a prepared local transaction the group no longer tracks. *)

val in_doubt_count : t -> int

val oldest_live_update : t -> int option
(** The smallest initiation timestamp of any live update: an [Active]
    or [In_doubt] global transaction, or a prepared leg on a live shard
    that no global transaction tracks any more (gid [-1] in
    {!in_doubt}).  Such an update may still commit at that timestamp —
    static atomicity draws it at {!begin_txn} — so no as-of state above
    it is final yet.  [None] when no live update carries one: always
    under [`Hybrid], whose updates draw their timestamp at commit. *)

val serving_mark : t -> int -> int
(** The timestamp up to which shard [s]'s durable record stream, read
    to its end ({!record_count}), holds every commit: the group clock
    reading, clamped below {!oldest_live_update}, below the agreed
    timestamp of every prepared leg on [s] whose recorded decision is a
    commit, and — under group commit — below every commit [s] applied
    since its last sync (in-doubt resolution applies a commit without
    syncing it).  A replica that has
    applied the stream to its end may serve snapshot reads at or below
    it.  Unlike {!checkpoint_shard}'s low-water mark it ignores live
    read-only transactions, which add nothing to the stream. *)

(** {1 Durability, checkpoints, crash, recovery} *)

val record_count : t -> int -> int
(** Records in the shard's durable record stream: its events
    interleaved with the [Prepared] / [Decided] / [Checkpointed]
    control records at the positions they were written.  Positions
    are absolute from the first record the shard's current incarnation
    appended: checkpoint truncation drops a prefix of
    {!durable_shard}'s {e text} but never renumbers the stream.  Under
    group commit only the synced prefix counts — the first [n] events
    and first [m] controls the last sync covered, which is exactly a
    prefix of the stream.  O(1), and no shard call.
    @raise Invalid_argument on a bad index. *)

val records_from : t -> int -> pos:int -> max:int -> Cc.Wal.record list
(** [records_from t s ~pos ~max] is the durable stream's records
    [pos .. min (pos + max) (record_count t s) - 1] in order — the
    feed a log-shipping channel cuts segments from, and what
    checkpoints, archiving and crashes encode.  Nothing is copied or
    memoized per event: a binary search over the shard's control
    positions finds the controls in range, the events in range are
    read from the shard's history by walking in from its newest end
    ({!History.slice}, one shard call), and the two merge by position.
    The cost is O(records returned + events newer than them + log of
    the control count): reading the tail of a long log is cheap,
    whatever its length.  [[]] when [pos] is at or past the end.
    @raise Invalid_argument on a bad index or a negative [pos] or
    [max]. *)

val entries_touched : t -> int
(** Log entries {!records_from} has read so far: history cells walked
    plus control entries examined.  Deterministic for a seeded call
    sequence — the growth counter behind shipping's cost model. *)

val control_log : t -> int -> (int * Cc.Wal.control) list
(** The control records the shard's current incarnation appended,
    oldest first, each with the event-log length when it was appended
    — synced or not.  With the shard's history and {!synced_marks}
    these are the parts the durable stream is merged from; tests
    rebuild the stream from them to check {!records_from}.
    @raise Invalid_argument on a bad index. *)

val synced_marks : t -> int -> (int * int) option
(** Under group commit, the (events, controls) prefix the shard's last
    WAL sync covered; [None] without group commit, where every append
    is durable.  @raise Invalid_argument on a bad index. *)

val durable_shard : t -> int -> string
(** The shard's WAL: its durable record stream (see {!record_count})
    framed by {!Cc.Wal.encode_records} under the label ["shard-<i>"].
    Once checkpoint truncation has run, the text keeps absolute record
    numbering but starts at the truncation point (header [@<base>]);
    only records from {!wal_base} on are read, so crashing a
    checkpointed shard encodes just its tail. *)

val checkpoint_shard : ?lose_marker:bool -> t -> int -> int
(** Write one state checkpoint of the shard now, without stopping
    traffic: feed the shard's fold the durable records since its last
    checkpoint, fold up to the mark — under [`Static] and [`Hybrid] the
    group's low-water mark, below every initiation timestamp a live
    transaction holds on any shard and every decided commit a leg has
    not applied — and capture the rebuild transaction
    ({!Cc.Checkpoint.capture}), named [ckpt<shard>_<n>] with [n]
    counting the shard's checkpoints across incarnations.  Then store
    the encoded file, append and sync the WAL [Checkpointed] marker
    that makes it official, and — once two marked files exist —
    truncate the WAL behind the older one's redo point (archiving the
    prefix under [checkpoint.archive]).  Returns the new checkpoint's
    redo point.  Under a tracer, the shard's [checkpoint] span carries
    the redo point ([covered]), the records behind it ([age]), the
    objects re-derived for this capture ([rederived]), the state lines
    written ([objects]) and the file's size ([bytes]).

    [lose_marker] (default false) simulates the crash window where the
    file reached disk but its marker never became durable: the file is
    stored, no marker is written, and no truncation happens — recovery
    must ignore the file, and it neither evicts a marked file from the
    retention window nor sets the truncation horizon.

    @raise Invalid_argument if the shard is out of range or crashed.
    @raise Failure if the shard's fold is broken — a commit fed at or
    below a mark already folded, or a logged result its specification
    rules out — which a correct run never reaches. *)

val checkpoint_files : t -> int -> string list
(** The shard's retained checkpoint files, newest first — what recovery
    will be offered.  @raise Invalid_argument on a bad index. *)

val checkpoint_work : t -> int * int
(** [(checkpoints, work)]: checkpoints taken so far on every shard, and
    the records their captures read plus the rebuild operations they
    wrote — the capture-cost counter of the bench's growth section. *)

val corrupt_checkpoint : t -> int -> f:(string -> string) -> bool
(** Damage the shard's newest checkpoint file in place (fault
    injection).  [false] when the shard has no checkpoint.
    @raise Invalid_argument on a bad index. *)

val wal_base : t -> int -> int
(** Records truncated off the head of the shard's durable WAL — 0 until
    checkpoint truncation first runs.
    @raise Invalid_argument on a bad index. *)

val archived_segments : t -> int -> string list
(** Truncated WAL prefixes the [archive] option preserved, oldest
    first; each is a {!Cc.Wal.encode_records} text with the base of the
    range it covers.  Empty unless [checkpoint.archive] is set.
    @raise Invalid_argument on a bad index. *)

val crash_shard : t -> int -> string
(** Mark the shard crashed and return its WAL as of the crash.  Active
    global transactions with a leg there abort at their surviving
    shards; prepared legs elsewhere are untouched (their fate belongs
    to the decision log).  @raise Invalid_argument on a bad index. *)

val recover_shard :
  ?resolve:(int -> [ `Commit of Timestamp.t option | `Abort | `Unknown ]) ->
  t ->
  int ->
  string ->
  (Cc.Recovery.checkpointed_report, Cc.Recovery.failure) result
(** Rebuild a crashed shard from WAL text via
    {!Cc.Recovery.restore_checkpointed}, offering the shard's retained
    checkpoint files: the newest durable, digest-valid checkpoint is
    loaded and only the WAL tail behind its redo point is replayed;
    damaged or unmarked files fall back loudly (see the report's
    [fallbacks]) to an older checkpoint or to full replay.  Fresh
    system, objects re-created, prepared-undecided transactions
    reinstated and resolved — by default against the group's decision
    log with presumed abort.  Every leg of the crashed incarnation is
    dropped from its global transaction (leg ids restart with each
    incarnation), and surviving in-doubt legs are re-linked; a
    transaction left in doubt with no leg still prepared or on a
    crashed shard takes the decision log's verdict (presumed abort).
    The
    recovered incarnation starts with an empty checkpoint directory and
    an untruncated WAL.

    The result is [Error (Corrupt _)], and the shard stays down, when a
    leg on the shard had prepared, the decision log holds a commit for
    its transaction, and the recovered log neither commits it nor
    holds it in doubt: its [Prepared] record was lost, as when a
    damaged last line reads as a torn tail.
    @raise Invalid_argument if the shard is not crashed. *)

(** {1 Cross-shard deadlock} *)

val find_deadlock : t -> Gtxn.t list option
(** A cycle in the union of the live shards' waits-for graphs, lifted
    to global transactions — cycles invisible to any single shard.

    It makes no shard call.  The group mirrors each shard's waits-for
    edges on the coordinator: every [Wait] result {!invoke_batch} folds
    records the waiting leg with its raw blocker legs, a grant or
    refusal clears the entry, and so does the leg's commit, abort or
    verdict; recovery resets the shard's mirror.  The search lifts legs
    to global transactions as it walks — a leg counts while it is
    active and still indexed — and visits them in the order a merge of
    the shards' snapshots would (shards ascending, waiter legs
    ascending; a transaction's legs by descending shard), so the cycle,
    and hence the victim, is the one that merge gives. *)

val victim : Gtxn.t list -> Gtxn.t
(** The youngest (highest-gid) transaction of a cycle.
    @raise Invalid_argument on an empty cycle. *)

(** {1 Global-atomicity checks} *)

val shard_label : int -> string
(** The label shard [s]'s WAL texts and segments carry. *)

val committed_projection :
  t -> (Activity.t * (Object_id.t * Operation.t * Value.t) list) list
(** Every committed global transaction with its granted operations in
    program order, sorted by the group's serialization order: commit
    order under [`None_], timestamp order under [`Static] / [`Hybrid].
    Feed it to {!Cc.Recovery.replay_txns} against one combined fresh
    system: global atomicity holds iff the merged replay validates. *)

val committed_count : t -> int
(** Committed global transactions so far, in constant time. *)

val agreed_commit_ts : t -> int -> int option
(** The 2PC-agreed commit timestamp for a gid, if it committed
    distributed. *)

val tpc_rounds : t -> int
(** Multi-shard commit decisions so far: every 2PC round, faulted or
    clean. *)
