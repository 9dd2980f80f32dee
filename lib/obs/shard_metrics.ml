module M = Metrics

type shard = {
  committed_local : M.Counter.t;
  committed_tpc : M.Counter.t;
  aborted : M.Counter.t;
  prepared : M.Counter.t;
  conflicts : M.Counter.t;
  in_doubt : M.Gauge.t;
  mailbox_depth : M.Gauge.t;
}

type replica = {
  lag_records : M.Gauge.t;
  lag_vtime : M.Gauge.t;
  applied : M.Counter.t;
  replica_reads : M.Counter.t;
}

type t = {
  registry : M.Registry.t;
  shards : shard array;
  replicas : replica array;
  promotions : M.Counter.t;
  resyncs : M.Counter.t;
  stale_bounces : M.Counter.t;
  tpc_rounds : M.Counter.t;
  tpc_commits : M.Counter.t;
  tpc_aborts : M.Counter.t;
  tpc_messages : M.Counter.t;
  fanout : M.Histogram.t;
  wal_appends : M.Counter.t;
  wal_syncs : M.Counter.t;
  group_commit_batch : M.Histogram.t;
  checkpoints : M.Counter.t;
  checkpoint_write : M.Histogram.t;
  checkpoint_age : M.Gauge.t;
  recoveries : M.Counter.t;
  recovery_duration : M.Histogram.t;
  recovery_records : M.Histogram.t;
}

let fanout_buckets = Array.init 16 (fun i -> float_of_int (i + 1))

(* Batch sizes: 1..16 then powers of two up to 1024. *)
let batch_buckets =
  Array.of_list
    (List.init 16 (fun i -> float_of_int (i + 1))
    @ [ 32.; 64.; 128.; 256.; 512.; 1024. ])

let create ?registry ?(replicas = 0) ~shards () =
  if shards <= 0 then invalid_arg "Shard_metrics.create: shards must be positive";
  if replicas < 0 then
    invalid_arg "Shard_metrics.create: replicas must be non-negative";
  let registry =
    match registry with Some r -> r | None -> M.Registry.create ()
  in
  let replica i =
    let name what = Fmt.str "replica%d.%s" i what in
    {
      lag_records = M.Registry.gauge registry (name "lag.records");
      lag_vtime = M.Registry.gauge registry (name "lag.vtime");
      applied = M.Registry.counter registry (name "applied");
      replica_reads = M.Registry.counter registry (name "reads");
    }
  in
  let shard i =
    let c what = M.Registry.counter registry (Fmt.str "shard%d.%s" i what) in
    {
      committed_local = c "committed.local";
      committed_tpc = c "committed.tpc";
      aborted = c "aborted";
      prepared = c "prepared";
      conflicts = c "conflicts";
      in_doubt = M.Registry.gauge registry (Fmt.str "shard%d.in_doubt" i);
      mailbox_depth =
        M.Registry.gauge registry (Fmt.str "shard%d.mailbox_depth" i);
    }
  in
  {
    registry;
    shards = Array.init shards shard;
    replicas = Array.init replicas replica;
    promotions = M.Registry.counter registry "replication.promotions";
    resyncs = M.Registry.counter registry "replication.resyncs";
    stale_bounces = M.Registry.counter registry "replication.stale_bounces";
    tpc_rounds = M.Registry.counter registry "tpc.rounds";
    tpc_commits = M.Registry.counter registry "tpc.commit";
    tpc_aborts = M.Registry.counter registry "tpc.abort";
    tpc_messages = M.Registry.counter registry "tpc.messages";
    fanout =
      M.Registry.histogram ~buckets:fanout_buckets registry "txn.shard_fanout";
    wal_appends = M.Registry.counter registry "wal.appends";
    wal_syncs = M.Registry.counter registry "wal.syncs";
    group_commit_batch =
      M.Registry.histogram ~buckets:batch_buckets registry
        "group_commit.batch_size";
    checkpoints = M.Registry.counter registry "checkpoint.writes";
    checkpoint_write =
      M.Registry.histogram registry "checkpoint.write_duration";
    checkpoint_age = M.Registry.gauge registry "checkpoint.age_records";
    recoveries = M.Registry.counter registry "recovery.count";
    recovery_duration = M.Registry.histogram registry "recovery.duration";
    recovery_records =
      M.Registry.histogram ~buckets:batch_buckets registry
        "recovery.records_replayed";
  }

let registry t = t.registry
let shard_count t = Array.length t.shards

let shard t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Shard_metrics.shard: index out of range";
  t.shards.(i)

let local_commit t i = M.Counter.incr (shard t i).committed_local
let tpc_commit_at t i = M.Counter.incr (shard t i).committed_tpc
let abort_at t i = M.Counter.incr (shard t i).aborted
let prepare_at t i = M.Counter.incr (shard t i).prepared
let conflict_at t i = M.Counter.incr (shard t i).conflicts
let set_in_doubt t i n = M.Gauge.set (shard t i).in_doubt (float_of_int n)

let set_mailbox_depth t i n =
  M.Gauge.set (shard t i).mailbox_depth (float_of_int n)

let replica_count t = Array.length t.replicas

let replica t i =
  if i < 0 || i >= Array.length t.replicas then
    invalid_arg "Shard_metrics.replica: index out of range";
  t.replicas.(i)

let set_replica_lag t ~replica:i ~records ~vtime =
  let r = replica t i in
  M.Gauge.set r.lag_records (float_of_int records);
  M.Gauge.set r.lag_vtime (float_of_int vtime)

let replica_applied t ~replica:i ~records =
  M.Counter.add (replica t i).applied records

let replica_read t ~replica:i = M.Counter.incr (replica t i).replica_reads
let replica_resync t = M.Counter.incr t.resyncs
let stale_bounce t = M.Counter.incr t.stale_bounces
let promotion t = M.Counter.incr t.promotions
let replica_lag t i = int_of_float (M.Gauge.value (replica t i).lag_records)
let replica_lag_vtime t i = int_of_float (M.Gauge.value (replica t i).lag_vtime)
let replica_applied_count t i = M.Counter.value (replica t i).applied
let replica_reads t i = M.Counter.value (replica t i).replica_reads
let promotion_count t = M.Counter.value t.promotions
let resync_count t = M.Counter.value t.resyncs
let stale_bounce_count t = M.Counter.value t.stale_bounces

let tpc_round t ~committed ~messages ~fanout =
  M.Counter.incr t.tpc_rounds;
  M.Counter.incr (if committed then t.tpc_commits else t.tpc_aborts);
  M.Counter.add t.tpc_messages messages;
  M.Histogram.observe t.fanout (float_of_int fanout)

(* One WAL device sync covering [records] appended records (group
   commit: batch size = records amortized by a single sync). *)
let wal_sync t ~records =
  M.Counter.add t.wal_appends records;
  M.Counter.incr t.wal_syncs;
  if records > 0 then
    M.Histogram.observe t.group_commit_batch (float_of_int records)

(* One checkpoint file made durable: [duration] is the wall-clock cost
   of capture+encode+marker sync (µs); [age] is how far behind the log
   head the redo point landed — records the fuzzy snapshot could not
   cover and recovery must still replay. *)
let checkpoint_written t ~duration ~age =
  M.Counter.incr t.checkpoints;
  M.Histogram.observe t.checkpoint_write duration;
  M.Gauge.set t.checkpoint_age (float_of_int age)

(* One shard recovery completed: [records] is the WAL work actually
   replayed — the tail behind a checkpoint, or the whole log. *)
let recovery_done t ~duration ~records =
  M.Counter.incr t.recoveries;
  M.Histogram.observe t.recovery_duration duration;
  M.Histogram.observe t.recovery_records (float_of_int records)

let syncs_per_commit t =
  let commits =
    Array.fold_left
      (fun acc s ->
        acc
        + M.Counter.value s.committed_local
        + M.Counter.value s.committed_tpc)
      0 t.shards
  in
  if commits = 0 then 0.
  else float_of_int (M.Counter.value t.wal_syncs) /. float_of_int commits

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "shard  commit(local)  commit(2pc)  aborted  prepared  conflicts  in-doubt\n";
  Array.iteri
    (fun i s ->
      Buffer.add_string buf
        (Fmt.str "%5d  %13d  %11d  %7d  %8d  %9d  %8.0f\n" i
           (M.Counter.value s.committed_local)
           (M.Counter.value s.committed_tpc)
           (M.Counter.value s.aborted)
           (M.Counter.value s.prepared)
           (M.Counter.value s.conflicts)
           (M.Gauge.value s.in_doubt)))
    t.shards;
  Buffer.add_string buf
    (Fmt.str "2pc: %d round(s), %d commit / %d abort, %d message(s)\n"
       (M.Counter.value t.tpc_rounds)
       (M.Counter.value t.tpc_commits)
       (M.Counter.value t.tpc_aborts)
       (M.Counter.value t.tpc_messages));
  Buffer.add_string buf
    (Fmt.str "txn.shard_fanout: %a\n" M.Histogram.pp t.fanout);
  if M.Counter.value t.wal_syncs > 0 then
    Buffer.add_string buf
      (Fmt.str
         "wal: %d append(s), %d sync(s) (%.2f sync(s)/commit)\n\
          group_commit.batch_size: %a\n"
         (M.Counter.value t.wal_appends)
         (M.Counter.value t.wal_syncs)
         (syncs_per_commit t) M.Histogram.pp t.group_commit_batch);
  if M.Counter.value t.checkpoints > 0 then
    Buffer.add_string buf
      (Fmt.str
         "checkpoints: %d written (age %.0f record(s))\n\
          checkpoint.write_duration: %a\n"
         (M.Counter.value t.checkpoints)
         (M.Gauge.value t.checkpoint_age)
         M.Histogram.pp t.checkpoint_write);
  if M.Counter.value t.recoveries > 0 then
    Buffer.add_string buf
      (Fmt.str
         "recoveries: %d\nrecovery.duration: %a\nrecovery.records_replayed: %a\n"
         (M.Counter.value t.recoveries)
         M.Histogram.pp t.recovery_duration M.Histogram.pp t.recovery_records);
  if Array.length t.replicas > 0 then begin
    Buffer.add_string buf "replica  applied  lag(rec)  lag(vt)  reads\n";
    Array.iteri
      (fun i r ->
        Buffer.add_string buf
          (Fmt.str "%7d  %7d  %8.0f  %7.0f  %5d\n" i
             (M.Counter.value r.applied)
             (M.Gauge.value r.lag_records)
             (M.Gauge.value r.lag_vtime)
             (M.Counter.value r.replica_reads)))
      t.replicas;
    Buffer.add_string buf
      (Fmt.str
         "replication: %d promotion(s), %d resync(s), %d stale bounce(s)\n"
         (M.Counter.value t.promotions)
         (M.Counter.value t.resyncs)
         (M.Counter.value t.stale_bounces))
  end;
  Buffer.contents buf

let fanout t = t.fanout
let group_commit_batch t = t.group_commit_batch
let wal_sync_count t = M.Counter.value t.wal_syncs
let wal_append_count t = M.Counter.value t.wal_appends
let mailbox_depth t i = M.Gauge.max_value (shard t i).mailbox_depth
let checkpoint_count t = M.Counter.value t.checkpoints
let checkpoint_write t = t.checkpoint_write
let checkpoint_age t = M.Gauge.value t.checkpoint_age
let recovery_count t = M.Counter.value t.recoveries
let recovery_duration t = t.recovery_duration
let recovery_records t = t.recovery_records
