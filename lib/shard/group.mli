(** A shard group: N independent {!Weihl_cc.System} instances behind
    one transactional facade.

    Each shard owns its own event log, Lamport clock and durable WAL;
    the {!Router} places every object on exactly one shard.  A global
    transaction ({!Gtxn}) lazily opens a shard-local leg on first
    contact with each shard.  Commit takes one of two paths:

    - {e fast path} — a transaction that touched a single shard commits
      locally, with no coordination round (hybrid updates still draw
      their commit timestamp from the group clock, which keeps the
      global timestamp order of updates consistent with [precedes]);
    - {e 2PC} — a multi-shard transaction runs a real two-phase commit
      round over {!Weihl_dist.Tpc.Driver}: every leg votes after
      writing a durable [Prepared] control record, the coordinator
      chooses the commit timestamp as one past the max of the
      participants' clock readings routed through the group clock, and
      each leg applies the decision under a durable [Decided] record.

    All timestamps — static/hybrid-read-only initiation timestamps,
    fast-path hybrid commit timestamps, and 2PC-agreed commit
    timestamps — are drawn from the single group clock, so they are
    globally unique and the merged commit order is well defined.

    The group also models failure: {!crash_shard} drops a shard's
    volatile state (returning its WAL), {!recover_shard} rebuilds it
    via {!Weihl_cc.Recovery.restore_shard} — reinstating prepared
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

type commit_outcome =
  | Fast  (** single-shard local commit — no coordination round *)
  | Distributed of Tpc.decision * int list
      (** the 2PC decision record and the participant shards, in the
          order the transaction first touched them *)

type checkpoint_config = {
  every : int;
      (** auto-checkpoint a shard after every [every] commits that land
          on it *)
  retain : int;  (** checkpoint files kept per shard (the newest N) *)
  archive : bool;
      (** archive truncated WAL prefixes (see {!archived_segments})
          instead of dropping them *)
}

val default_checkpoint : checkpoint_config
(** [{ every = 100; retain = 2; archive = false }]. *)

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
    derives each 2PC round's message-simulation seed.

    [domains] (default 1) picks the execution mode: 1 runs every shard
    call inline on the caller's domain — the deterministic sequential
    semantics — while [domains > 1] spawns [min domains shards] worker
    domains, each owning its shards' systems behind a bounded mailbox
    ({!Exec}).  Per-shard execution order is identical in both modes,
    so results do not depend on the domain count — only wall-clock
    timing does.  Call {!shutdown} when done with a multi-domain group.

    [group_commit] (default false) switches the WAL durability model
    from everything-appended-is-durable to the synced-prefix model
    used by {!commit_batch}: {!durable_shard} then returns only
    records covered by a sync, and a crash loses the unsynced tail.
    {!commit} then syncs before it acknowledges: the fast path after
    the commit record, 2PC after each participant's [Prepared] record
    and before its yes vote.  [sync_cost] is the simulated device sync
    latency, paid once per
    per-shard sync on that shard's domain (so syncs overlap across
    domains).

    [checkpoint] turns on fuzzy checkpointing: each shard writes a
    checkpoint file after every [every] commits that land on it
    (staggered across shards so the group never checkpoints in
    lock-step), keeps the newest [retain] files, and truncates its WAL
    behind the oldest retained checkpoint's redo point.  Without it the
    group never checkpoints on its own — {!checkpoint_shard} still
    works on demand.

    @raise Invalid_argument if [shards <= 0], the metrics were built
    for a different shard count, or the checkpoint config is not
    positive. *)

val shutdown : t -> unit
(** Join the worker domains (no-op at [domains = 1]).  Required before
    process exit for a multi-domain group — idle workers block on their
    mailboxes and the runtime waits for every domain. *)

val domain_count : t -> int
(** Worker domains executing shard work (1 in inline mode). *)

val mailbox_depth : t -> int -> int
(** Requests queued on the shard's mailbox right now (0 inline). *)

val mailbox_max_depth : t -> int -> int
(** High-water mark of the shard's mailbox depth (0 inline). *)

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

(** {1 Cross-shard tracing} *)

val set_tracer : t -> Weihl_obs.Shard_trace.t -> unit
(** Install a cross-shard trace: each shard's probe feeds its own
    timeline (pid [s + 1]); the group emits global-transaction spans,
    2PC phase spans, WAL-sync markers and message-flight flow events on
    the coordinator timeline (pid 0).  Every subsequent {!begin_txn}
    also receives a {!Gtxn.trace_ctx}.  The tracer's [now] closure
    should already point at the driver's virtual clock.
    @raise Invalid_argument if the tracer was built for a different
    shard count. *)

val clear_tracer : t -> unit
(** Remove the tracer and the per-shard probes. *)

val tracer : t -> Weihl_obs.Shard_trace.t option

(** {1 The transactional facade} *)

val begin_txn : t -> Activity.t -> Gtxn.t
(** Start a global transaction; static (and hybrid read-only)
    initiation timestamps come from the group clock and are shared by
    all of its legs. *)

val invoke : t -> Gtxn.t -> Object_id.t -> Operation.t -> invoke_result
(** Route the operation to the object's home shard, opening a leg there
    on first contact.  Refuses with ["shard down"] when the home shard
    is crashed.  @raise Invalid_argument if the transaction is not
    active or the object is unknown to its home shard. *)

val commit : ?fault:Tpc.fault -> ?votes_no:int list -> t -> Gtxn.t -> commit_outcome
(** Commit: fast path for [<= 1] legs, 2PC otherwise.  [fault] injects
    failures into the 2PC round (crashes, message faults, partitions);
    [votes_no] forces the listed participant indices (positions in
    {!Gtxn.shards} order) to vote no.  After a faulty round the
    transaction may be left {!Gtxn.status.In_doubt} (some leg prepared,
    no decision reached) and shards may be marked crashed.
    @raise Invalid_argument if the transaction is not active. *)

val abort : ?reason:string -> t -> Gtxn.t -> unit
(** Abort every active leg (legs on crashed shards are already gone).
    @raise Invalid_argument if the transaction is not active. *)

(** {1 Batched execution and group commit}

    The multicore hot path.  The coordinator groups work by home
    shard, posts one job per shard to its mailbox, and joins on all
    replies — shards execute their sub-lists in parallel on their own
    domains.  Per-shard order is the batch order, so the outcome is
    deterministic at any domain count. *)

val invoke_batch :
  t -> (Gtxn.t * Object_id.t * Operation.t) list -> invoke_result list
(** Execute one operation per entry, batched per home shard; results
    come back in entry order.  Equivalent to calling {!invoke} on each
    entry in order, except that different shards' entries run
    concurrently.  @raise Invalid_argument as {!invoke}. *)

val commit_batch : ?crash_before_sync:int list -> t -> Gtxn.t list -> unit
(** Commit a batch with group commit and batched synchronous 2PC:
    single-shard commits and multi-shard prepares execute in one job
    wave (one WAL sync per shard covers the whole batch — the
    [group_commit.batch_size] histogram observes it), the coordinator
    decides every multi-shard transaction after the vote sync, and a
    second wave applies decisions under [Decided] records and a final
    sync.  No transaction is acknowledged (status [Committed], entry
    in the committed projection) before the sync covering its records
    has returned.

    [crash_before_sync] injects the group-commit fault: the listed
    shards die after appending their wave-1 records but before the
    sync, losing the unsynced tail — their single-shard commits are
    never acknowledged, and multi-shard transactions with a leg there
    abort (no durable yes-vote).  Outcomes are read back via
    {!Gtxn.status}.  @raise Invalid_argument if a transaction is not
    active. *)

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

(** {1 Durability, checkpoints, crash, recovery} *)

val shard_records : t -> int -> Cc.Wal.record list
(** The shard's durable record stream as a list — events interleaved
    with control records, positions absolute from the first record the
    shard ever appended.  Under group commit only the synced prefix
    appears.  This is the feed a log-shipping channel cuts segments
    from: checkpoint truncation drops a prefix of {!durable_shard}'s
    {e text} but never renumbers this stream.
    @raise Invalid_argument on a bad index. *)

val durable_shard : t -> int -> string
(** The shard's WAL: its event log interleaved with the [Prepared] /
    [Decided] / [Checkpointed] control records at the positions they
    were written, framed by {!Cc.Wal.encode_records} under the label
    ["shard-<i>"].  Once checkpoint truncation has run, the text keeps
    absolute record numbering but starts at the truncation point
    (header [@<base>]). *)

val checkpoint_shard : ?lose_marker:bool -> t -> int -> int
(** Write one fuzzy checkpoint of the shard now, without stopping
    traffic: capture the durable record stream
    ({!Cc.Checkpoint.capture}), store the encoded file, append and sync
    the WAL [Checkpointed] marker that makes it official, then — once
    [retain] files exist — truncate the WAL behind the oldest retained
    checkpoint's redo point (archiving the prefix under
    [checkpoint.archive]).  Returns the new checkpoint's redo point.

    [lose_marker] (default false) simulates the crash window where the
    file reached disk but its marker never became durable: the file is
    stored, no marker is written, and no truncation happens — recovery
    must ignore the file.

    @raise Invalid_argument if the shard is out of range or crashed. *)

val checkpoint_files : t -> int -> string list
(** The shard's retained checkpoint files, newest first — what recovery
    will be offered.  @raise Invalid_argument on a bad index. *)

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
    log with presumed abort.  Surviving in-doubt legs are re-linked to
    their global transactions.  The recovered incarnation starts with
    an empty checkpoint directory and an untruncated WAL.
    @raise Invalid_argument if the shard is not crashed. *)

(** {1 Cross-shard deadlock} *)

val find_deadlock : t -> Gtxn.t list option
(** A cycle in the union of the live shards' waits-for graphs, lifted
    to global transactions — cycles invisible to any single shard. *)

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

val committed_projection_ts :
  t ->
  (Activity.t * Timestamp.t option * (Object_id.t * Operation.t * Value.t) list)
  list
(** {!committed_projection} with each transaction's serialization
    timestamp exposed (its commit timestamp for updates, initiation
    timestamp for hybrid read-only transactions; [None] under
    [`None_]).  A replica tier filters this by timestamp to obtain the
    committed state {e as of} a snapshot read's initiation time. *)

val committed_count : t -> int

val agreed_commit_ts : t -> int -> int option
(** The 2PC-agreed commit timestamp for a gid, if it committed
    distributed. *)

val tpc_rounds : t -> int
