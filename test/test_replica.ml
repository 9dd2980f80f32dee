(* The read-replica tier: WAL shipping over a lossy channel, snapshot
   reads behind the high-water mark, stale-read detection, failover,
   and the replica/primary equivalence property. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

let proto name = Option.get (Fault_harness.find_protocol name)

let build (p : Fault_harness.protocol) ~shards ~seed =
  let group = Shard_group.create ~policy:p.Fault_harness.policy ~seed ~shards () in
  let w = p.Fault_harness.workload () in
  List.iter
    (fun id -> Shard_group.add_object group id p.Fault_harness.make_object)
    w.Workload.objects;
  (group, w)

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
  (* The refused segments were never applied, even in part. *)
  check_equiv tier group ~replicas:2 ~shards:2

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
  let deposit n =
    let g = Shard_group.begin_txn group (Activity.update (Fmt.str "dep%d" n)) in
    (match Shard_group.invoke group g acct (Bank_account.deposit n) with
    | Shard_group.Granted _ -> ()
    | _ -> Alcotest.fail "deposit refused");
    ignore (Shard_group.commit group g)
  in
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
  let r =
    Replica_drill.run_many ~quick:true ~seeds:[ 1; 2; 3; 4; 5; 6 ] ()
  in
  check_int "all schedules ran" 6 r.Replica_drill.schedules;
  check_int "zero lost commits" 0 r.Replica_drill.r_lost;
  check_int "zero stale reads served" 0 r.Replica_drill.r_stale;
  (match Replica_drill.divergences r with
  | [] -> ()
  | d :: _ ->
    Alcotest.fail
      (Fmt.str "diverged: %a" Replica_drill.pp_schedule d));
  check_bool "promotions happened" true (r.Replica_drill.r_promotions >= 6);
  check_bool "reads flowed" true (r.Replica_drill.r_reads > 0)

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
    Alcotest.test_case "ship: lag schedules catch up" `Quick
      test_lag_schedule_catches_up;
    Alcotest.test_case "read: stale reads bounce, never serve early state"
      `Quick test_stale_read_bounces;
    Alcotest.test_case "read: round-robin replicas serve snapshots" `Quick
      test_reads_round_robin_and_match_primary;
    Alcotest.test_case "crash: replica keeps its log, loses its mark" `Quick
      test_replica_crash_keeps_log_loses_mark;
    Alcotest.test_case "failover: promotion loses nothing" `Quick
      test_failover_zero_lost;
    Alcotest.test_case "failover: old epoch is fenced" `Quick
      test_fencing_refuses_old_epoch;
    Alcotest.test_case "drill: seeded schedules stay clean" `Quick
      test_drill_smoke;
    to_alcotest prop_replica_equivalence;
  ]
