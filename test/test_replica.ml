(* The read-replica tier: WAL shipping over a lossy channel, snapshot
   reads behind the high-water mark, stale-read detection, failover,
   and the replica/primary equivalence property. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

let proto name = Option.get (Fault_harness.find_protocol name)

let build ?group_commit ?checkpoint (p : Fault_harness.protocol) ~shards ~seed =
  let w = p.Fault_harness.workload () in
  ( Shard_harness.group ?group_commit ?checkpoint ~seed ~shards p
      w.Workload.objects,
    w )

let tier_of ?faults ?stale ?seed (p : Fault_harness.protocol) ~replicas group =
  Replica_tier.create ?faults ?stale ?seed ~replicas
    ~make_object:p.Fault_harness.make_object group

let drive ?(clients = 4) ?(duration = 200) ?(base = 0) ?(seed = 5) group w =
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients clients;
      duration;
      activity_base = base;
      seed;
    }
  in
  ignore (Sharded_driver.run ~config group w)

(* Commit a deposit of [n] into [acct] as its own transaction. *)
let deposit group acct n =
  let g = Shard_group.begin_txn group (Activity.update (Fmt.str "dep%d" n)) in
  (match Shard_group.invoke group g acct (Bank_account.deposit n) with
  | Shard_group.Granted _ -> ()
  | _ -> Alcotest.fail "deposit refused");
  Shard_group.commit group g

let updates_only =
  List.filter (fun (t : Replica_projection.txn) ->
      not (Activity.is_read_only t.Replica_projection.activity))

let shard_committed group s =
  Replica_projection.committed Recovery.Timestamp_order
    (History.to_list (System.history (Shard_group.system group s)))
  |> updates_only

let replica_committed tier ~replica ~shard =
  Replica_projection.committed Recovery.Timestamp_order
    (Replica_tier.replica_events tier ~replica ~shard)
  |> updates_only

let check_equiv tier group ~replicas ~shards =
  for i = 0 to replicas - 1 do
    for s = 0 to shards - 1 do
      match
        Replica_projection.diff
          (replica_committed tier ~replica:i ~shard:s)
          (shard_committed group s)
      with
      | None -> ()
      | Some msg -> Alcotest.failf "replica %d shard %d: %s" i s msg
    done
  done

(* --- shipping ------------------------------------------------------- *)

let test_ship_and_apply () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:3 ~seed:2 in
  let tier = tier_of p ~replicas:2 group in
  drive group w;
  Replica_tier.sync tier;
  for i = 0 to 1 do
    for s = 0 to 2 do
      check_int "applied = feed"
        (Replica_tier.feed_pos tier ~shard:s)
        (Replica_tier.applied_pos tier ~replica:i ~shard:s)
    done;
    check_int "no lag" 0 (Replica_tier.lag_records tier ~replica:i)
  done;
  check_equiv tier group ~replicas:2 ~shards:3;
  check_bool "segments flowed" true (Replica_tier.segments_shipped tier > 0)

let test_lossy_channel_heals () =
  let p = proto "multiversion" in
  let group, w = build p ~shards:2 ~seed:3 in
  let faults = { Msim.drop = 0.3; duplicate = 0.3; reorder = 0.4 } in
  let tier = tier_of ~faults ~seed:9 p ~replicas:3 group in
  drive group w;
  Replica_tier.sync tier;
  check_equiv tier group ~replicas:3 ~shards:2;
  check_bool "channel actually dropped" true
    (Replica_tier.channel_dropped tier > 0)

let test_damaged_segment_resyncs () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:4 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  Replica_tier.damage_next_segments tier 3;
  Replica_tier.sync tier;
  check_bool "damage detected" true (Replica_tier.damaged_segments tier >= 1);
  check_bool "resynced" true (Replica_tier.resyncs tier >= 1);
  (* The table counts resyncs per replica, in its last column: the rows
     sum to the total, and replica 0 — sent the first segment cut, which
     was damaged — shows its own. *)
  let rows = String.split_on_char '\n' (Replica_tier.render tier) in
  let resyncs i =
    let cells =
      String.split_on_char ' ' (List.nth rows (i + 1))
      |> List.filter (fun c -> c <> "")
    in
    int_of_string (List.nth cells (List.length cells - 1))
  in
  check_int "per-replica resyncs sum to the total" (Replica_tier.resyncs tier)
    (resyncs 0 + resyncs 1);
  check_bool "the damaged replica's row counts its resyncs" true (resyncs 0 > 0);
  (* The refused segments were never applied, even in part. *)
  check_equiv tier group ~replicas:2 ~shards:2

(* A one-record segment whose header newline is flipped (by 0x10, as
   damage injection flips a byte, or by 0x20) reads as an intact, empty
   segment at base 0: the header runs on into its record line, whose
   last token is no [@base].  The end carried beside it gives it away —
   it is damage, resynced, and the replica's mark never covers the
   record it did not receive. *)
let test_damaged_header_is_damage () =
  List.iter
    (fun bit ->
      let p = proto "hybrid" in
      let group, w = build p ~shards:1 ~seed:7 in
      let deposit = deposit group (List.hd w.Workload.objects) in
      let tier = tier_of p ~replicas:1 group in
      deposit 100;
      Replica_tier.sync tier;
      let held = Replica_tier.applied_pos tier ~replica:0 ~shard:0 in
      let mark = Replica_tier.hwm tier ~replica:0 ~shard:0 in
      deposit 50;
      let feed = Replica_tier.feed_pos tier ~shard:0 in
      check_bool "the deposit left more than one record" true (feed - held > 1);
      let flip_header_newline text =
        let b = Bytes.of_string text in
        Bytes.set b (String.index text '\n') (Char.chr (Char.code '\n' lxor bit));
        Bytes.to_string b
      in
      Replica_tier.send_segment tier ~replica:0 ~shard:0 ~from:(feed - 1)
        ~alter:flip_header_newline;
      check_int "counted as damage" 1 (Replica_tier.damaged_segments tier);
      check_int "resynced" 1 (Replica_tier.resyncs tier);
      (* The resync's retransmit, from the replica's position, carried
         the deposit and then the mark over it. *)
      check_int "applied to the feed's end" feed
        (Replica_tier.applied_pos tier ~replica:0 ~shard:0);
      check_bool "the mark moved with it" true
        (Replica_tier.hwm tier ~replica:0 ~shard:0 > mark);
      check_equiv tier group ~replicas:1 ~shards:1)
    [ 0x10; 0x20 ]

(* A segment that starts past the replica's applied position is a gap,
   not damage: the replica asks for a resync, and the retransmit from
   its position applies. *)
let test_gap_resyncs_without_damage () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:1 ~seed:7 in
  let deposit = deposit group (List.hd w.Workload.objects) in
  deposit 100;
  deposit 50;
  let tier = tier_of p ~replicas:1 group in
  Replica_tier.send_segment tier ~replica:0 ~shard:0 ~from:1;
  check_int "resynced" 1 (Replica_tier.resyncs tier);
  check_int "no damage counted" 0 (Replica_tier.damaged_segments tier);
  check_int "the retransmit applied from the start"
    (Replica_tier.feed_pos tier ~shard:0)
    (Replica_tier.applied_pos tier ~replica:0 ~shard:0);
  check_equiv tier group ~replicas:1 ~shards:1

let test_lag_schedule_catches_up () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:6 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  Replica_tier.set_lag tier ~replica:1 5;
  Replica_tier.pump tier;
  check_bool "lagged replica behind" true
    (Replica_tier.lag_records tier ~replica:1
    > Replica_tier.lag_records tier ~replica:0);
  Replica_tier.sync tier;
  check_equiv tier group ~replicas:2 ~shards:2

(* --- snapshot reads ------------------------------------------------- *)

let read_all_accounts (w : Workload.t) =
  List.map (fun x -> (x, Bank_account.balance)) w.Workload.objects

(* Satellite: the stale-read regression.  A read below the replica's
   mark must bounce to the primary (or wait), never return the
   replica's early state.  This test fails if the tier ever serves the
   pre-deposit balance. *)
let test_stale_read_bounces () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:1 ~seed:7 in
  let acct = List.hd w.Workload.objects in
  let deposit = deposit group acct in
  let tier = tier_of ~stale:`Bounce p ~replicas:1 group in
  deposit 100;
  (* Nothing shipped yet: the replica has no mark, so the read must be
     answered by the primary — with the committed balance. *)
  (match Replica_tier.read ~replica:0 tier [ (acct, Bank_account.balance) ] with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    check_bool "bounced" true o.Replica_tier.bounced;
    (match o.Replica_tier.serve with
    | Replica_tier.Served_primary -> ()
    | Replica_tier.Served_replica _ ->
      Alcotest.fail "replica served below its mark");
    match o.Replica_tier.values with
    | [ (_, _, Value.Int 100) ] -> ()
    | _ -> Alcotest.fail "read missed the committed deposit");
  check_int "stale reads counted" 1 (Replica_tier.stale_bounced tier);
  (* Under the wait policy the mark catches up and the replica serves —
     again with the full committed state. *)
  deposit 50;
  let tier2 = tier_of ~stale:(`Wait 4) p ~replicas:1 group in
  match Replica_tier.read ~replica:0 tier2 [ (acct, Bank_account.balance) ] with
  | Error msg -> Alcotest.fail msg
  | Ok o -> (
    (match o.Replica_tier.serve with
    | Replica_tier.Served_replica 0 -> ()
    | _ -> Alcotest.fail "expected the replica to serve after waiting");
    check_bool "waited for the mark" true (o.Replica_tier.waited > 0);
    match o.Replica_tier.values with
    | [ (_, _, Value.Int 150) ] -> ()
    | _ -> Alcotest.fail "replica served early state")

(* Under group commit in-doubt resolution applies a decision without a
   sync.  Here the coordinator decides commit and dies before any
   decide message leaves, so both legs stay prepared until
   [resolve_in_doubt] commits them from the decision log: the deposits
   are in each shard's history but not yet in its durable stream, so no
   segment carries them.  The serving mark must stay below them, so the
   read bounces to the primary instead of serving the balances from
   before the deposits. *)
let test_unsynced_commit_holds_the_mark () =
  let p = proto "hybrid" in
  let group, w = build ~group_commit:true p ~shards:2 ~seed:7 in
  let on s =
    List.find (fun x -> Shard_group.shard_of group x = s) w.Workload.objects
  in
  let steps = [ (on 0, Bank_account.balance); (on 1, Bank_account.balance) ] in
  let tier = tier_of p ~replicas:1 group in
  let g = Shard_group.begin_txn group (Activity.update "dep") in
  List.iter
    (fun (x, _) ->
      match Shard_group.invoke group g x (Bank_account.deposit 100) with
      | Shard_group.Granted _ -> ()
      | _ -> Alcotest.fail "deposit refused")
    steps;
  Shard_group.commit
    ~fault:{ Tpc.no_fault with f_coordinator_crash = Tpc.Mid_decision 0 }
    group g;
  check_int "both legs resolved" 2 (Shard_group.resolve_in_doubt group);
  Replica_tier.pump tier;
  match Replica_tier.read ~replica:0 tier steps with
  | Error msg -> Alcotest.fail msg
  | Ok o -> (
    match o.Replica_tier.values with
    | [ (_, _, Value.Int 100); (_, _, Value.Int 100) ] -> ()
    | vs ->
      Alcotest.failf "read missed the commit: %a"
        Fmt.(list ~sep:(any ", ") Value.pp)
        (List.map (fun (_, _, v) -> v) vs))

let test_reads_round_robin_and_match_primary () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:8 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:150 group w;
  Replica_tier.sync tier;
  let steps = read_all_accounts w in
  for _ = 1 to 4 do
    match Replica_tier.read tier steps with
    | Error msg -> Alcotest.fail msg
    | Ok o ->
      check_bool "served without bouncing" false o.Replica_tier.bounced
  done;
  check_bool "both replicas served" true
    (Replica_tier.reads_at tier ~replica:0 > 0
    && Replica_tier.reads_at tier ~replica:1 > 0)

(* Under static atomicity an update draws its timestamp at [begin_txn]
   and may commit below a mark the clock has already passed.  Here
   [upd1] begins at ts 2 and deposits 50; a read at ts 3 must not be
   answered with 100, because [upd1] then commits at ts 2 and the
   committed state as of ts 3 is 150.  With no state final yet, the
   read is unavailable. *)
let test_static_read_waits_for_live_update () =
  let p = proto "multiversion" in
  let group, w = build p ~shards:1 ~seed:7 in
  let acct = List.hd w.Workload.objects in
  let tier = tier_of p ~replicas:1 group in
  let deposit name n =
    let g = Shard_group.begin_txn group (Activity.update name) in
    (match Shard_group.invoke group g acct (Bank_account.deposit n) with
    | Shard_group.Granted _ -> ()
    | _ -> Alcotest.fail "deposit refused");
    g
  in
  Shard_group.commit group (deposit "fund0" 100);
  Replica_tier.sync tier;
  let upd1 = deposit "upd1" 50 in
  let balance () =
    Replica_tier.read ~replica:0 tier [ (acct, Bank_account.balance) ]
  in
  (match balance () with
  | Ok { Replica_tier.values = [ (_, _, v) ]; read_ts; _ } ->
    Alcotest.failf "read at ts %d answered %a under a live update from ts 2"
      read_ts Value.pp v
  | Ok _ -> Alcotest.fail "read answered the wrong number of steps"
  | Error msg ->
    check_bool "unavailable, not diverged" true
      (String.starts_with ~prefix:"unavailable" msg));
  Shard_group.commit group upd1;
  match balance () with
  | Error msg -> Alcotest.fail msg
  | Ok o -> (
    (match o.Replica_tier.serve with
    | Replica_tier.Served_replica 0 -> ()
    | _ -> Alcotest.fail "expected the replica to serve once upd1 committed");
    match o.Replica_tier.values with
    | [ (_, _, Value.Int 150) ] -> ()
    | _ -> Alcotest.fail "replica missed upd1's deposit")

let test_unknown_object_is_an_error () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:3 in
  let tier = tier_of p ~replicas:1 group in
  drive ~duration:60 group w;
  Replica_tier.sync tier;
  match Replica_tier.read tier [ (Object_id.v "nope", Bank_account.balance) ] with
  | Ok _ -> Alcotest.fail "read of an unregistered object answered"
  | Error msg ->
    check_bool "names the object" true
      (String.starts_with ~prefix:"unknown object nope" msg)

(* A replica answers a step from the state as of the read's timestamp
   and refuses it only if it would change that state — a rule about the
   state, not the operation.  A [deposit 0] and a [withdraw] the balance
   cannot cover leave a bank account as it is, so the replica answers
   them, although [Hybrid] at the primary refuses every operation that
   is not read-only; a [deposit 50] would change it and is refused. *)
let test_read_refusal_follows_the_state () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:1 ~seed:7 in
  let acct = List.hd w.Workload.objects in
  let tier = tier_of p ~replicas:1 group in
  let g = Shard_group.begin_txn group (Activity.update "fund0") in
  (match Shard_group.invoke group g acct (Bank_account.deposit 100) with
  | Shard_group.Granted _ -> ()
  | _ -> Alcotest.fail "deposit refused");
  Shard_group.commit group g;
  Replica_tier.sync tier;
  let read op = Replica_tier.read ~replica:0 tier [ (acct, op) ] in
  let answers op expected =
    match read op with
    | Error msg -> Alcotest.failf "%a: %s" Operation.pp op msg
    | Ok o -> (
      (match o.Replica_tier.serve with
      | Replica_tier.Served_replica 0 -> ()
      | _ -> Alcotest.failf "%a: not served by the replica" Operation.pp op);
      match o.Replica_tier.values with
      | [ (_, _, v) ] ->
        check_bool (Fmt.str "%a answers %a" Operation.pp op Value.pp expected)
          true (Value.equal v expected)
      | _ -> Alcotest.fail "wrong number of answers")
  in
  answers (Bank_account.deposit 0) Value.ok;
  answers (Bank_account.withdraw 500) Value.insufficient_funds;
  answers Bank_account.balance (Value.Int 100);
  (match read (Bank_account.deposit 50) with
  | Ok _ -> Alcotest.fail "a state-changing deposit was answered"
  | Error msg ->
    check_bool "refused as a change" true
      (String.starts_with ~prefix:"read refused: deposit(50) would change" msg));
  (* Nothing was applied: the balance is still the committed one. *)
  answers Bank_account.balance (Value.Int 100)

(* The fold on its own: committed updates fold in timestamp order, not
   arrival order, and only up to the mark; a commit fed at or below the
   mark breaks it.  A replica only catches its fold up when serving a
   read, and then no logged commit lies above the mark, so the mark
   rule is pinned here rather than through [Tier.read]. *)
let test_fold_orders_by_timestamp_up_to_the_mark () =
  let acct = Object_id.v "acct0" in
  let spec x =
    if Object_id.equal x acct then Some Bank_account.spec else None
  in
  let f = Fold.create ~ts_ordered:true ~spec in
  let txn name op ts =
    let a = Activity.update name in
    List.iter (Fold.feed f)
      [
        Event.invoke a acct op;
        Event.respond a acct Value.ok;
        Event.commit_ts a acct (Timestamp.v ts);
      ]
  in
  let balance_is n =
    match Fold.frontier f acct with
    | None -> false
    | Some fr ->
      Option.equal Value.equal
        (Seq_spec.determined fr Bank_account.balance)
        (Some (Value.Int n))
  in
  (* Arrives first, serializes second: the withdrawal is [ok] only
     after the deposit. *)
  txn "w" (Bank_account.withdraw 7) 10;
  txn "d" (Bank_account.deposit 10) 5;
  txn "late" (Bank_account.deposit 100) 20;
  Fold.upto f 12;
  check_bool "not broken" true (Fold.broken f = None);
  check_bool "ts 5 and 10 folded, ts 20 staged" true (balance_is 3);
  Fold.upto f 25;
  check_bool "ts 20 folded" true (balance_is 103);
  txn "below" (Bank_account.deposit 1) 24;
  check_bool "a commit at or below the mark breaks the fold" true
    (Fold.broken f <> None)

(* --- replica crash -------------------------------------------------- *)

let test_replica_crash_keeps_log_loses_mark () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:11 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  Replica_tier.sync tier;
  let pos = Replica_tier.applied_pos tier ~replica:0 ~shard:0 in
  check_bool "mark established" true (Replica_tier.hwm tier ~replica:0 ~shard:0 >= 0);
  Replica_tier.crash_replica tier 0;
  Replica_tier.restart_replica tier 0;
  (* Durable log survives; the mark (segment metadata) does not. *)
  check_int "applied survives the crash" pos
    (Replica_tier.applied_pos tier ~replica:0 ~shard:0);
  check_int "mark reset" (-1) (Replica_tier.hwm tier ~replica:0 ~shard:0);
  (* A restarted replica is below any mark: the read either bounces or
     pumps until a fresh segment re-establishes it — never serves the
     unmarked state silently. *)
  (match Replica_tier.read ~replica:0 tier (read_all_accounts w) with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    check_bool "bounced or waited for a fresh mark" true
      (o.Replica_tier.bounced || o.Replica_tier.waited > 0));
  Replica_tier.sync tier;
  check_bool "fresh segment re-established the mark" true
    (Replica_tier.hwm tier ~replica:0 ~shard:0 >= 0);
  check_equiv tier group ~replicas:2 ~shards:2

(* --- failover ------------------------------------------------------- *)

let test_failover_zero_lost () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:12 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:150 group w;
  Replica_tier.sync tier;
  let pre = shard_committed group 0 in
  check_bool "something committed" true (pre <> []);
  Replica_tier.crash_primary tier 0;
  (match Replica_tier.fail_over tier 0 with
  | Error msg -> Alcotest.fail msg
  | Ok pr ->
    (match pr.Replica_tier.verified with
    | None -> ()
    | Some msg -> Alcotest.fail msg);
    check_int "epoch bumped" 1 pr.Replica_tier.new_epoch);
  (* The recovered incarnation holds every pre-crash commit. *)
  let after = shard_committed group 0 in
  List.iter
    (fun txn ->
      check_bool "commit survived failover" true
        (List.exists (Replica_projection.equal_txn txn) after))
    pre;
  check_int "promotion counted" 1 (Replica_tier.promotions tier);
  (* Replicas resync onto the new epoch and converge again. *)
  drive ~duration:100 ~base:50_000 ~seed:13 group w;
  Replica_tier.sync tier;
  check_equiv tier group ~replicas:2 ~shards:2

(* Failover on a checkpointing group: the primary recovers from a
   checkpoint, so its history lists a rebuild transaction in place of
   the transactions the checkpoint folded, and the promotion is
   verified on per-object state.  The group's checks and the replicas'
   equivalence hold before and after more traffic. *)
let test_failover_from_checkpoint () =
  List.iter
    (fun (name, seed) ->
      let p = proto name in
      let group, w =
        build p ~seed ~shards:2
          ~checkpoint:{ Shard_group.every = 10; archive = false }
      in
      let tier = tier_of p ~replicas:2 group in
      drive ~duration:200 ~seed group w;
      Replica_tier.sync tier;
      check_bool (name ^ ": the shard checkpointed") true
        (Shard_group.checkpoint_files group 0 <> []);
      Replica_tier.crash_primary tier 0;
      (match Replica_tier.fail_over tier 0 with
      | Error msg -> Alcotest.fail msg
      | Ok pr -> (
        match pr.Replica_tier.verified with
        | None -> ()
        | Some msg -> Alcotest.fail (name ^ ": " ^ msg)));
      check_bool (name ^ ": recovered through a rebuild transaction") true
        (Activity.Set.exists
           (fun a -> String.starts_with ~prefix:"ckpt0_" (Activity.name a))
           (History.committed (System.history (Shard_group.system group 0))));
      ignore (Shard_group.resolve_in_doubt group);
      Alcotest.(check (option string))
        (name ^ ": group checks after failover") None
        (Shard_harness.run_checks p group);
      drive ~duration:100 ~base:50_000 ~seed:(seed + 1) group w;
      Replica_tier.sync tier;
      ignore (Shard_group.resolve_in_doubt group);
      Alcotest.(check (option string))
        (name ^ ": group checks after more traffic") None
        (Shard_harness.run_checks p group);
      check_equiv tier group ~replicas:2 ~shards:2)
    [ ("hybrid", 41); ("multiversion", 43) ]

let test_fencing_refuses_old_epoch () =
  let p = proto "hybrid" in
  let group, w = build p ~shards:2 ~seed:14 in
  let tier = tier_of p ~replicas:2 group in
  drive ~duration:120 group w;
  (* Cut replica 1 off, fail over, heal: its queued old-epoch segments
     arrive fenced and are refused. *)
  Replica_tier.pump tier;
  Replica_tier.partition_replica tier 1;
  Replica_tier.pump tier;
  (match Replica_tier.fail_over tier 0 with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  Replica_tier.heal_replica tier 1;
  Replica_tier.sync tier;
  check_int "epoch advanced" 1 (Replica_tier.epoch tier ~shard:0);
  check_equiv tier group ~replicas:2 ~shards:2

(* --- the failover drill -------------------------------------------- *)

let test_drill_smoke () =
  let s =
    Fault_sweep.run
      ~verdict:(fun d -> d.Replica_drill.d_verdict)
      ~plan:Shard_plan.generate
      (Replica_drill.run_schedule ~quick:true)
      Replica_drill.protocols [ 1; 2; 3; 4; 5; 6 ]
  in
  let r = Replica_drill.totals s in
  check_int "all schedules ran" 6 s.Fault_sweep.schedules;
  check_int "zero lost commits" 0 r.Replica_drill.r_lost;
  check_int "zero stale reads served" 0 r.Replica_drill.r_stale;
  (match s.Fault_sweep.divergences with
  | [] -> ()
  | d :: _ ->
    Alcotest.fail
      (Fmt.str "diverged: %a" Replica_drill.pp_schedule d));
  check_bool "promotions happened" true (r.Replica_drill.r_promotions >= 6);
  check_bool "reads flowed" true (r.Replica_drill.r_reads > 0)

(* --- pinned bytes ----------------------------------------------------- *)

(* The bytes the log layer writes, pinned by CRC-32: every shard's
   durable WAL, every retained checkpoint file and archived WAL prefix,
   and every segment the tier ships.  The run is seeded: hybrid
   atomicity with commit-wave 2PC, group commit, a checkpoint every
   20 commits per shard (archiving what truncation drops) and a
   2-replica tier pumped after every commit.  The channel is
   fault-free, so every segment is applied whole at its replica's
   position: the texts shipped are the feed cut at the replicas'
   positions before each round, which the positions the round leaves
   behind confirm. *)
let pinned_shards = 3

let pinned_digests () =
  let p = proto "hybrid" in
  let group, w =
    build p ~seed:3 ~group_commit:true
      ~checkpoint:{ Shard_group.every = 20; archive = true }
      ~shards:pinned_shards
  in
  let tier = tier_of p ~replicas:2 group in
  let shards = List.init pinned_shards Fun.id in
  let shipped = ref [] and torn = ref 0 in
  let pump () =
    let cuts =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun s ->
              if Shard_group.shard_crashed group s then None
              else
                let from = Replica_tier.applied_pos tier ~replica:i ~shard:s in
                let slice = Shard_group.records_from group s ~pos:from ~max:64 in
                Some
                  ( i,
                    s,
                    from + List.length slice,
                    Wal.segment ~label:(Shard_group.shard_label s) ~base:from
                      slice ))
            shards)
        [ 0; 1 ]
    in
    Replica_tier.pump tier;
    List.iter
      (fun (i, s, upto, text) ->
        if Replica_tier.applied_pos tier ~replica:i ~shard:s <> upto then
          incr torn;
        shipped := Wal.crc32 text :: !shipped)
      cuts
  in
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients 4;
      duration = 600;
      seed = 5;
    }
  in
  ignore
    (Sharded_driver.run ~config
       ~on_commit:(fun g gt ~nth_multi:_ ->
         Shard_group.commit g gt;
         pump ())
       group w);
  let caught_up () =
    List.for_all
      (fun i ->
        List.for_all
          (fun s ->
            Replica_tier.applied_pos tier ~replica:i ~shard:s
            = Replica_tier.feed_pos tier ~shard:s)
          shards)
      [ 0; 1 ]
  in
  let rounds = ref 0 in
  while (not (caught_up ())) && !rounds < 1000 do
    incr rounds;
    pump ()
  done;
  check_bool "the replicas caught up" true (caught_up ());
  check_int "every round applied its segments whole" 0 !torn;
  check_int "every segment sent was re-cut" (List.length !shipped)
    (Replica_tier.segments_shipped tier);
  let crcs = List.map Wal.crc32 in
  let hex n = Fmt.str "%08x" n in
  ( Shard_group.committed_count group,
    List.map (Shard_group.wal_base group) shards,
    crcs (List.map (Shard_group.durable_shard group) shards),
    List.map (fun s -> crcs (Shard_group.checkpoint_files group s)) shards,
    List.map (fun s -> crcs (Shard_group.archived_segments group s)) shards,
    ( List.length !shipped,
      Wal.crc32 (String.concat " " (List.rev_map hex !shipped)) ) )

let test_pinned_bytes () =
  let committed, bases, durable, ckpts, archived, (segments, segments_crc) =
    pinned_digests ()
  in
  let ints = Alcotest.(list int) in
  check_int "committed" 402 committed;
  Alcotest.check ints "WAL bases" [ 850; 885; 1853 ] bases;
  Alcotest.check ints "durable WALs" [ 0x9042be0e; 0x24b39a84; 0xab7fa4c5 ]
    durable;
  Alcotest.(check (list (list int)))
    "checkpoint files"
    [
      [ 0x4ffca08d; 0x985b8ded ]; [ 0xa0916bb0; 0x15373906 ];
      [ 0x2e337f66; 0x2d1b2b76 ];
    ]
    ckpts;
  Alcotest.(check (list (list int)))
    "archived prefixes"
    [
      [
        0x24295000; 0x8f0d9c03; 0x4f434e34; 0x23662f1f; 0x2a8a6f3e; 0xcd15e46a;
        0xd2a9063e; 0xcb7d0f94;
      ];
      [
        0x198964d9; 0xad62f47b; 0x76d82c1e; 0x782de122; 0xe7130193; 0xa4ee9b06;
        0xd7375d46; 0x703e35d8;
      ];
      [
        0x6f9d5c18; 0xfa225096; 0x6fdeefd1; 0x79bd3238; 0x2db55995; 0x9348e1b8;
        0xc1e114bc; 0x15695997; 0x6204cc62; 0xc04e8e80; 0xfa4ae03a; 0x509251f2;
        0x7e5eea16; 0xd4f597b2; 0x055f8909;
      ];
    ]
    archived;
  check_int "segments shipped" 2412 segments;
  check_int "shipped segment texts" 0x18c3c92a segments_crc

(* --- the log as bytes ------------------------------------------------ *)

(* A seeded run through every replica fault: a lossy channel, damaged
   segments, apply lag, a replica crash and restart, and a failover. *)
let faulty_run (p : Fault_harness.protocol) ~seed =
  let group, w = build p ~shards:2 ~seed in
  let faults = { Msim.drop = 0.2; duplicate = 0.2; reorder = 0.3 } in
  let tier = tier_of ~faults ~seed:(seed + 1) p ~replicas:2 group in
  drive ~duration:150 ~seed:(seed + 2) group w;
  Replica_tier.damage_next_segments tier 2;
  Replica_tier.set_lag tier ~replica:1 3;
  Replica_tier.pump tier;
  Replica_tier.crash_replica tier 0;
  drive ~duration:100 ~base:50_000 ~seed:(seed + 3) group w;
  Replica_tier.pump tier;
  Replica_tier.restart_replica tier 0;
  (match Replica_tier.fail_over tier 1 with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  drive ~duration:100 ~base:100_000 ~seed:(seed + 4) group w;
  Replica_tier.sync tier;
  (group, tier)

let log_protocols = [ ("hybrid", 21); ("multiversion", 31) ]

(* Each replica keeps the record lines it received: after [sync] its
   log is byte for byte the shard's record stream from position 0. *)
let test_log_is_the_received_bytes () =
  List.iter
    (fun (name, seed) ->
      let group, tier = faulty_run (proto name) ~seed in
      for i = 0 to 1 do
        for s = 0 to 1 do
          let stream =
            Shard_group.records_from group s ~pos:0
              ~max:(Shard_group.record_count group s)
          in
          let log = Replica_tier.replica_log tier ~replica:i ~shard:s in
          (match Wal.decode_records log with
          | Ok (records, Wal.Intact) ->
            check_int "records" (List.length stream) (List.length records)
          | Ok (_, Wal.Torn _) | Error _ ->
            Alcotest.failf "%s: replica %d shard %d: log does not decode" name
              i s);
          check_bool
            (Fmt.str "%s: replica %d shard %d: log = stream" name i s)
            true
            (String.equal log (Wal.encode_records stream))
        done
      done)
    log_protocols

(* The events each replica holds after the faulty runs, one per line,
   pinned by CRC-32 — the same figures whether the log keeps events or
   bytes. *)
let test_replica_events_pinned () =
  let digests =
    List.concat_map
      (fun (name, seed) ->
        let _, tier = faulty_run (proto name) ~seed in
        List.concat_map
          (fun i ->
            List.map
              (fun s ->
                Replica_tier.replica_events tier ~replica:i ~shard:s
                |> List.map Event.to_string
                |> String.concat "\n" |> Wal.crc32)
              [ 0; 1 ])
          [ 0; 1 ])
      log_protocols
  in
  Alcotest.(check (list int))
    "replica event digests"
    [
      0x8ac96dd4; 0x38d55107; 0x8ac96dd4; 0x38d55107; 0x8088699d; 0x8ee9b281;
      0x8088699d; 0x8ee9b281;
    ]
    digests

(* --- the serving oracle --------------------------------------------- *)

(* The reference read: every registered object rebuilt in a new
   system, the committed updates of [events] with timestamp [<= ts]
   replayed by [Recovery.replay], then the steps run as a read-only
   activity at [ts]. *)
let replay_read (p : Fault_harness.protocol) group ~ts events steps =
  let sys = Fault_harness.system p (List.map fst (Shard_group.objects group)) in
  let keep (txn : Replica_projection.txn) =
    match txn.Replica_projection.ts with
    | Some t -> Timestamp.to_int t <= ts
    | None -> false
  in
  match
    Recovery.replay Recovery.Timestamp_order sys
      (Replica_projection.updates_history ~keep events)
  with
  | Error f -> Error (Fmt.str "oracle replay: %a" Recovery.pp_failure f)
  | Ok _ ->
    let txn =
      System.begin_txn ~ts:(Timestamp.v ts) sys (Activity.read_only "oracle")
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (x, op) :: more -> (
        match System.invoke sys txn x op with
        | Atomic_object.Granted v -> go ((x, op, v) :: acc) more
        | Atomic_object.Wait _ -> Error "oracle read blocked"
        | Atomic_object.Refused why -> Error ("oracle read refused: " ^ why))
    in
    go [] steps

let same_values xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun (x, op, v) (x', op', v') ->
         Object_id.equal x x' && Operation.equal op op' && Value.equal v v')
       xs ys

let oracle_protocols =
  List.map proto [ "hybrid"; "hybrid_account"; "multiversion"; "multiversion_set" ]

(* A read-only script out of the workload, or every object's balance
   when the workload has none (the hot account). *)
let oracle_steps (w : Workload.t) rng =
  let rec draw n =
    if n = 0 then
      List.map (fun x -> (x, Bank_account.balance)) w.Workload.objects
    else
      let s = w.Workload.generate rng in
      if s.Workload.kind = `Read_only then
        List.map (fun st -> (st.Workload.obj, st.Workload.op)) s.Workload.steps
      else draw (n - 1)
  in
  draw 50

type replica_fault = Damage of int | Lag of int * int | Crash of int | Restart

(* Reads run after every few commits, while other transactions are
   still live, and again at quiescence.  Each replica-served read must
   equal the replay snapshot read at its timestamp over the replica's
   applied prefix; every answered read must equal it over the primary's
   final committed state; a read of an unregistered object must be an
   error; and a failed read must be one the primary cannot serve yet. *)
let prop_served_reads_match_replay =
  let fault =
    QCheck2.Gen.(
      oneof
        [
          map (fun n -> Damage (1 + n)) (int_bound 2);
          map2 (fun i n -> Lag (i, 1 + n)) (int_bound 1) (int_bound 4);
          map (fun i -> Crash i) (int_bound 1);
          pure Restart;
        ])
  in
  QCheck2.Test.make ~name:"served reads ≡ replay snapshot as of ts" ~count:24
    QCheck2.Gen.(
      quad (int_bound 1000) (int_bound 3)
        (triple (int_bound 3) (int_bound 3) (int_bound 3))
        (list_size (int_bound 4) (pair (int_bound 40) fault)))
    (fun (seed, pidx, (drop, dup, reorder), schedule) ->
      let p = List.nth oracle_protocols pidx in
      let shards = 2 in
      let group, w = build p ~shards ~seed:(seed + 1) in
      let faults =
        {
          Msim.drop = 0.1 *. float_of_int drop;
          duplicate = 0.1 *. float_of_int dup;
          reorder = 0.1 *. float_of_int reorder;
        }
      in
      let tier = tier_of ~faults ~seed:(seed + 2) p ~replicas:2 group in
      let rng = Rng.create (seed + 3) in
      let answered = ref [] and failure = ref None in
      let fail msg = if !failure = None then failure := Some msg in
      let read () =
        let steps = oracle_steps w rng in
        match Replica_tier.read tier steps with
        | Error msg ->
          if not (String.starts_with ~prefix:"unavailable" msg) then
            fail ("read failed: " ^ msg)
        | Ok o ->
          let ts = o.Replica_tier.read_ts and values = o.Replica_tier.values in
          answered := (ts, steps, values) :: !answered;
          (match o.Replica_tier.serve with
          | Replica_tier.Served_primary -> ()
          | Replica_tier.Served_replica i -> (
            let events =
              List.concat_map
                (fun s -> Replica_tier.replica_events tier ~replica:i ~shard:s)
                (List.sort_uniq compare
                   (List.map (fun (x, _) -> Shard_group.shard_of group x) steps))
            in
            match replay_read p group ~ts events steps with
            | Error msg -> fail msg
            | Ok expected ->
              if not (same_values expected values) then
                fail
                  (Fmt.str "replica %d at ts %d differs from its applied prefix"
                     i ts)))
      in
      let unknown () =
        match Replica_tier.read tier [ (Object_id.v "nope", Bank_account.balance) ] with
        | Error msg when String.starts_with ~prefix:"unknown object" msg -> ()
        | Error msg -> fail ("unknown object: " ^ msg)
        | Ok _ -> fail "a read of an unregistered object answered"
      in
      let commits = ref 0 in
      let on_commit g gt ~nth_multi:_ =
        Shard_group.commit g gt;
        incr commits;
        List.iter
          (fun (at, f) ->
            if at = !commits then
              match f with
              | Damage n -> Replica_tier.damage_next_segments tier n
              | Lag (i, n) -> Replica_tier.set_lag tier ~replica:i n
              | Crash i -> Replica_tier.crash_replica tier i
              | Restart ->
                for i = 0 to 1 do
                  if Replica_tier.replica_down tier i then
                    Replica_tier.restart_replica tier i
                done)
          schedule;
        if !commits mod 3 = 0 then read ();
        if !commits mod 17 = 0 then unknown ()
      in
      let slice ~base ~seed =
        let config =
          {
            Sharded_driver.default_config with
            arrivals = Clients 4;
            duration = 80;
            activity_base = base;
            seed;
          }
        in
        ignore (Sharded_driver.run ~config ~on_commit group w)
      in
      slice ~base:0 ~seed:(seed + 4);
      (match Replica_tier.fail_over tier (seed mod shards) with
      | Error msg -> fail ("failover: " ^ msg)
      | Ok pr -> Option.iter (fun msg -> fail ("failover: " ^ msg)) pr.Replica_tier.verified);
      ignore (Shard_group.resolve_in_doubt group);
      slice ~base:50_000 ~seed:(seed + 5);
      for i = 0 to 1 do
        if Replica_tier.replica_down tier i then Replica_tier.restart_replica tier i;
        Replica_tier.set_lag tier ~replica:i 0
      done;
      Replica_tier.sync tier;
      for _ = 1 to 4 do read () done;
      unknown ();
      let final =
        List.concat_map
          (fun s -> History.to_list (System.history (Shard_group.system group s)))
          (List.init shards Fun.id)
      in
      List.iter
        (fun (ts, steps, values) ->
          match replay_read p group ~ts final steps with
          | Error msg -> fail msg
          | Ok expected ->
            if not (same_values expected values) then
              fail (Fmt.str "read at ts %d differs from the final committed state" ts))
        (List.rev !answered);
      match !failure with
      | None -> true
      | Some msg -> QCheck2.Test.fail_reportf "%s: %s" p.Fault_harness.name msg)

(* --- the segment scan ------------------------------------------------ *)

(* Records the notation parses back — as every record the encoder
   writes for a real run does: every event kind and every control kind,
   identifier names, and activities whose kind breaks the r/s/t naming
   rule about half the time (they carry the [r]/[u] tag). *)
let wal_record_gen =
  QCheck2.Gen.(
    let ident =
      string_size
        ~gen:(oneofl [ 'a'; 'r'; 's'; 't'; 'u'; 'x'; 'Z'; '7'; '_' ])
        (int_range 1 6)
    in
    let activity =
      map2
        (fun name ro -> if ro then Activity.read_only name else Activity.update name)
        ident bool
    in
    let ts = map Timestamp.v (int_bound 1_000_000) in
    let int = map (fun i -> Value.Int i) (int_range (-1000) 1000) in
    let value =
      oneof
        [
          pure Value.Unit;
          map (fun b -> Value.Bool b) bool;
          int;
          map (fun s -> Value.Sym s) (oneofl [ "ok"; "insufficient_funds"; "empty"; "none" ]);
        ]
    in
    let op =
      map2 Operation.make
        (oneofl [ "deposit"; "withdraw"; "balance"; "insert"; "member" ])
        (list_size (int_bound 2) int)
    in
    let event =
      let* a = activity and* x = map Object_id.v ident in
      oneof
        [
          map (fun o -> Event.Invoke (a, x, o)) op;
          map (fun v -> Event.Respond (a, x, v)) value;
          pure (Event.Commit (a, x, None));
          map (fun t -> Event.Commit (a, x, Some t)) ts;
          pure (Event.Abort (a, x));
          map (fun t -> Event.Initiate (a, x, t)) ts;
        ]
    in
    frequency
      [
        (4, map (fun e -> Wal.Event e) event);
        (1, map (fun c -> Wal.Control c) Test_notation.control_gen);
      ])

(* One way to damage a shipped segment, each drawn with the random
   numbers that place it. *)
type damage =
  | Untouched
  | Flip of int * int  (** byte, mask *)
  | Flip_header of int * int  (** byte of the header line or its newline, mask *)
  | Cut of int * bool  (** length; [true]: just before a newline *)
  | Drop of int
  | Duplicate of int
  | Swap of int
  | Rebase of int

let damage_gen =
  QCheck2.Gen.(
    let n = int_bound 100_000 in
    oneof
      [
        pure Untouched;
        map2 (fun i m -> Flip (i, m)) n (oneofl [ 0x10; 0x20 ]);
        map2 (fun i m -> Flip_header (i, m)) n (oneofl [ 0x10; 0x20 ]);
        map2 (fun k nl -> Cut (k, nl)) n bool;
        map (fun k -> Drop k) n;
        map (fun k -> Duplicate k) n;
        map (fun k -> Swap k) n;
        map (fun k -> Rebase k) n;
      ])

let pp_damage ppf = function
  | Untouched -> Fmt.string ppf "untouched"
  | Flip (i, m) -> Fmt.pf ppf "flip(%d, 0x%x)" i m
  | Flip_header (i, m) -> Fmt.pf ppf "flip_header(%d, 0x%x)" i m
  | Cut (k, nl) -> Fmt.pf ppf "cut(%d%s)" k (if nl then ", at a newline" else "")
  | Drop k -> Fmt.pf ppf "drop(%d)" k
  | Duplicate k -> Fmt.pf ppf "duplicate(%d)" k
  | Swap k -> Fmt.pf ppf "swap(%d)" k
  | Rebase k -> Fmt.pf ppf "rebase(+%d)" (k + 1)

(* [damage d ~base text]: the segment [text], whose records start at
   [base], damaged as [d] says.  Line damage needs a record line (two
   for a swap) and leaves a shorter segment untouched. *)
let damage d ~base text =
  let len = String.length text in
  let header, lines =
    match String.split_on_char '\n' text with
    | h :: rest -> (h, List.rev (List.tl (List.rev rest)))
    | [] -> assert false
  in
  let rejoin lines = String.concat "\n" (header :: lines) ^ "\n" in
  let n = List.length lines in
  let flip i mask =
    let b = Bytes.of_string text in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
    Bytes.to_string b
  in
  match d with
  | Untouched -> text
  | Flip (i, mask) -> flip (i mod len) mask
  | Flip_header (i, mask) -> flip (i mod (String.length header + 1)) mask
  | Cut (k, false) -> String.sub text 0 (k mod (len + 1))
  | Cut (k, true) ->
    let newlines =
      List.filter (fun i -> text.[i] = '\n') (List.init len Fun.id)
    in
    String.sub text 0 (List.nth newlines (k mod List.length newlines))
  | Drop k when n > 0 -> rejoin (List.filteri (fun i _ -> i <> k mod n) lines)
  | Duplicate k when n > 0 ->
    let k = k mod n in
    rejoin (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) lines))
  | Swap k when n > 1 ->
    let k = k mod (n - 1) in
    let a = Array.of_list lines in
    let x = a.(k) in
    a.(k) <- a.(k + 1);
    a.(k + 1) <- x;
    rejoin (Array.to_list a)
  | Rebase k ->
    let moved = Wal.segment ~label:"shard-1" ~base:(base + 1 + k) [] in
    String.sub moved 0 (String.length moved - 1)
    ^ String.sub text (String.length header) (len - String.length header)
  | Drop _ | Duplicate _ | Swap _ -> text

(* The line check spelled out the long way, as a reference: split the
   text, and check each line's framing, byte-wise CRC and sequence
   number. *)
let reference_scan text =
  match String.split_on_char '\n' text with
  | [] -> None
  | header :: rest ->
    let lines =
      match List.rev rest with "" :: tl -> List.rev tl | _ -> rest
    in
    let base = Wal.base text in
    let intact i l =
      let n = String.length l in
      n >= 10
      && l.[8] = ' '
      && int_of_string_opt ("0x" ^ String.sub l 0 8)
         = Some (Test_notation.Fmt_printers.crc32 (String.sub l 9 (n - 9)))
      &&
      match String.index_from_opt l 9 ' ' with
      | Some sp -> int_of_string_opt (String.sub l 9 (sp - 9)) = Some (base + i)
      | None -> false
    in
    if
      (String.equal header Wal.magic
      || String.starts_with ~prefix:(Wal.magic ^ " ") header)
      && List.for_all Fun.id (List.mapi intact lines)
    then Some (base, List.length lines)
    else None

(* Apply checks a segment without decoding it; the scan must accept
   exactly the segments the decoder decodes intact, at the same base
   and with as many records — and, against the reference, accept no
   line whose CRC or number is wrong and drop no last line that lacks
   its newline.  A text cut just after a newline, or with a damaged
   header that reads as another intact one, passes all three alike;
   what closes that is the end a segment is shipped with, and a scan
   landing on it must mean the records as sent. *)
let prop_scan_agrees_with_decoder =
  QCheck2.Test.make ~count:1000
    ~name:"scan: check_segment accepts what decode_records decodes intact"
    QCheck2.Gen.(
      triple
        (list_size (int_bound 12) wal_record_gen)
        (int_bound 100_000) damage_gen)
    (fun (records, base, d) ->
      let text = damage d ~base (Wal.segment ~label:"shard-1" ~base records) in
      let scanned = Result.to_option (Wal.check_segment text) in
      let decoded =
        match Wal.decode_records text with
        | Ok (rs, Wal.Intact) -> Some (Wal.base text, List.length rs)
        | Ok (_, Wal.Torn _) | Error _ -> None
      in
      let pp = Fmt.(option ~none:(any "rejected") (pair ~sep:(any ", ") int int)) in
      let agree what other =
        scanned = other
        || QCheck2.Test.fail_reportf "%a: check_segment %a, %s %a on %S"
             pp_damage d pp scanned what pp other text
      in
      let upto = base + List.length records in
      let as_sent =
        match scanned with
        | Some (b, n) when b + n = upto -> (
          match Wal.decode_records text with
          | Ok (rs, Wal.Intact) ->
            b = base
            && String.equal (Wal.segment ~base rs) (Wal.segment ~base records)
          | Ok (_, Wal.Torn _) | Error _ -> false)
        | Some _ | None -> true
      in
      agree "decode_records" decoded
      && agree "the reference" (reference_scan text)
      && (as_sent
         || QCheck2.Test.fail_reportf
              "%a: check_segment %a lands on the shipped end %d, but the \
               records differ from those sent, on %S"
              pp_damage d pp scanned upto text))

(* --- the equivalence property --------------------------------------- *)

(* Satellite: over protocols × seeds × lag schedules, every replica's
   committed projection matches the primary's — in full at quiescence,
   and filtered as-of any timestamp t under a timestamp policy. *)
let prop_replica_equivalence =
  QCheck2.Test.make
    ~name:"replica projection ≡ primary committed as of t" ~count:20
    QCheck2.Gen.(
      triple (int_bound 500) (int_bound 11)
        (list_size (int_bound 4) (int_bound 6)))
    (fun (seed, pidx, lags) ->
      let protos = Shard_harness.protocols in
      let p = List.nth protos (pidx mod List.length protos) in
      let group, w = build p ~shards:2 ~seed:(seed + 1) in
      let tier = tier_of ~seed:(seed + 2) p ~replicas:2 group in
      drive ~duration:100 ~seed:(seed + 3) group w;
      List.iteri
        (fun i n -> Replica_tier.set_lag tier ~replica:(i mod 2) n)
        lags;
      Replica_tier.sync tier;
      let order =
        match p.Fault_harness.policy with
        | `None_ -> Recovery.Commit_order
        | `Static | `Hybrid -> Recovery.Timestamp_order
      in
      let ok = ref true in
      for i = 0 to 1 do
        for s = 0 to 1 do
          let rep =
            Replica_projection.committed order
              (Replica_tier.replica_events tier ~replica:i ~shard:s)
            |> updates_only
          in
          let prim =
            Replica_projection.committed order
              (History.to_list (System.history (Shard_group.system group s)))
            |> updates_only
          in
          if Replica_projection.diff rep prim <> None then ok := false;
          (* As-of-t agreement at a mid-run timestamp. *)
          if order = Recovery.Timestamp_order then begin
            let max_ts =
              List.fold_left
                (fun a (t : Replica_projection.txn) ->
                  match t.Replica_projection.ts with
                  | Some ts -> max a (Timestamp.to_int ts)
                  | None -> a)
                0 prim
            in
            let t = max_ts / 2 in
            if
              Replica_projection.diff
                (Replica_projection.as_of t rep)
                (Replica_projection.as_of t prim)
              <> None
            then ok := false
          end
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "ship: replicas converge on the primary" `Quick
      test_ship_and_apply;
    Alcotest.test_case "ship: drop/duplicate/reorder heal by resend" `Quick
      test_lossy_channel_heals;
    Alcotest.test_case "ship: damaged segments resync, never apply" `Quick
      test_damaged_segment_resyncs;
    Alcotest.test_case "ship: a damaged header is damage, not a duplicate"
      `Quick test_damaged_header_is_damage;
    Alcotest.test_case "ship: a gap resyncs without counting damage" `Quick
      test_gap_resyncs_without_damage;
    Alcotest.test_case "ship: lag schedules catch up" `Quick
      test_lag_schedule_catches_up;
    Alcotest.test_case "read: stale reads bounce, never serve early state"
      `Quick test_stale_read_bounces;
    Alcotest.test_case "read: an unsynced commit holds the mark" `Quick
      test_unsynced_commit_holds_the_mark;
    Alcotest.test_case "read: round-robin replicas serve snapshots" `Quick
      test_reads_round_robin_and_match_primary;
    Alcotest.test_case "read: a live static update holds the mark" `Quick
      test_static_read_waits_for_live_update;
    Alcotest.test_case "read: an unregistered object is an error" `Quick
      test_unknown_object_is_an_error;
    Alcotest.test_case "read: refusal follows the state, not the operation"
      `Quick test_read_refusal_follows_the_state;
    Alcotest.test_case "fold: timestamp order, up to the mark" `Quick
      test_fold_orders_by_timestamp_up_to_the_mark;
    Alcotest.test_case "crash: replica keeps its log, loses its mark" `Quick
      test_replica_crash_keeps_log_loses_mark;
    Alcotest.test_case "failover: promotion loses nothing" `Quick
      test_failover_zero_lost;
    Alcotest.test_case "failover: a checkpointing group keeps its state"
      `Quick test_failover_from_checkpoint;
    Alcotest.test_case "failover: old epoch is fenced" `Quick
      test_fencing_refuses_old_epoch;
    Alcotest.test_case "drill: seeded schedules stay clean" `Quick
      test_drill_smoke;
    Alcotest.test_case "pinned: WAL, checkpoint and segment bytes" `Quick
      test_pinned_bytes;
    Alcotest.test_case "log: a replica keeps the bytes it received" `Quick
      test_log_is_the_received_bytes;
    Alcotest.test_case "pinned: replica events after a faulty run" `Quick
      test_replica_events_pinned;
    to_alcotest prop_replica_equivalence;
    to_alcotest prop_scan_agrees_with_decoder;
    to_alcotest prop_served_reads_match_replay;
  ]
