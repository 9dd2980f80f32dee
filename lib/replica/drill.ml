open Weihl_event
module Cc = Weihl_cc
module Rng = Weihl_sim.Rng
module Workload = Weihl_sim.Workload
module Shard_plan = Weihl_fault.Shard_plan
module Fh = Weihl_fault.Harness
module Sweep = Weihl_fault.Sweep
module Group = Weihl_shard.Group
module Sharded_driver = Weihl_shard.Sharded_driver
module Shard_harness = Weihl_shard.Shard_harness

(* Snapshot reads need initiation timestamps, so the drill runs the
   timestamp-policy banking protocols only.  The commit-order protocols
   are covered by the equivalence property instead. *)
let protocols = List.filter_map Fh.find_protocol [ "hybrid"; "multiversion" ]

type schedule_report = {
  d_plan : Shard_plan.t;
  d_protocol : string;
  d_committed : int;
  d_reads : int;
  d_replica_served : int;
  d_bounced : int;
  d_unavailable : int;
  d_lost : int;
  d_stale : int;
  d_promotions : int;
  d_resyncs : int;
  d_damaged : int;
  d_verdict : Sweep.verdict;
}

type totals = {
  r_committed : int;
  r_reads : int;
  r_replica_served : int;
  r_bounced : int;
  r_unavailable : int;
  r_lost : int;
  r_stale : int;
  r_promotions : int;
  r_resyncs : int;
  r_damaged : int;
}

(* A replica-served read retained for the end-of-run audit. *)
type recorded_read = {
  r_ts : int;
  r_steps : (Object_id.t * Operation.t) list;
  r_values : (Object_id.t * Operation.t * Value.t) list;
  r_replica : int;
}

let is_update (txn : Projection.txn) =
  not (Activity.is_read_only txn.Projection.activity)

(* The committed update transactions of a live shard, for pre-crash
   capture and final replica/primary comparison. *)
let shard_committed group s =
  Projection.committed Cc.Recovery.Timestamp_order
    (History.to_list (Cc.System.history (Group.system group s)))
  |> List.filter is_update

(* ------------------------------------------------------------------ *)
(* The independent stale-read auditor.

   A replica-served read at timestamp T claimed the committed state as
   of T.  The as-of-T projection is time-invariant — every later commit
   draws a later timestamp, and in-doubt legs with an agreed earlier
   timestamp are excluded from the serving mark — so re-executing the
   read against the final primary state filtered to [ts <= T] must
   reproduce the recorded values exactly.  This auditor shares no code
   with the tier's serving path beyond {!Projection}. *)

let audit_read group (proto : Fh.protocol) seq (r : recorded_read) =
  let shards =
    List.sort_uniq compare
      (List.map (fun (x, _) -> Group.shard_of group x) r.r_steps)
  in
  let events =
    List.concat_map
      (fun s -> History.to_list (Cc.System.history (Group.system group s)))
      shards
  in
  let sys = Fh.system proto (List.map fst (Group.objects group)) in
  let keep (txn : Projection.txn) =
    match txn.Projection.ts with
    | Some ts -> Timestamp.to_int ts <= r.r_ts
    | None -> false
  in
  let h = Projection.updates_history ~keep events in
  match Cc.Recovery.replay Cc.Recovery.Timestamp_order sys h with
  | Error f -> Some (Fmt.str "audit replay: %a" Cc.Recovery.pp_failure f)
  | Ok _ -> (
    let a = Activity.read_only (Fmt.str "audit%d" seq) in
    let txn = Cc.System.begin_txn ~ts:(Timestamp.v r.r_ts) sys a in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (x, op) :: more -> (
        match Cc.System.invoke sys txn x op with
        | Cc.Atomic_object.Granted v -> go ((x, op, v) :: acc) more
        | Cc.Atomic_object.Wait _ | Cc.Atomic_object.Refused _ ->
          Error "audit read did not run to completion")
    in
    match go [] r.r_steps with
    | Error msg -> Some msg
    | Ok expected ->
      Cc.System.commit sys txn;
      if
        List.length expected = List.length r.r_values
        && List.for_all2
             (fun (x, op, v) (x', op', v') ->
               Object_id.equal x x' && Operation.equal op op'
               && Value.equal v v')
             expected r.r_values
      then None
      else
        Some
          (Fmt.str "replica %d served stale state at ts %d" r.r_replica
             r.r_ts))

(* ------------------------------------------------------------------ *)

let run_schedule ?(quick = false) ?(shards = 3) ?(replicas = 3)
    (plan : Shard_plan.t) (proto : Fh.protocol) =
  let w = proto.Fh.workload () in
  let group =
    Shard_harness.group ~seed:plan.Shard_plan.seed ~shards proto
      w.Workload.objects
  in
  let tier =
    Tier.create ~faults:plan.Shard_plan.ship ~seed:plan.Shard_plan.seed
      ~replicas ~make_object:proto.Fh.make_object group
  in
  let rng = Rng.create ((plan.Shard_plan.seed * 73) + 29) in
  let recorded = ref [] in
  let reads = ref 0 and bounced = ref 0 and unavailable = ref 0 in
  let lost = ref 0 and stale = ref 0 in
  let diverged = ref None in
  let note msg = if !diverged = None then diverged := Some msg in
  let read_batch n =
    for _ = 1 to n do
      match Workload.read_steps w rng with
      | None -> ()
      | Some steps -> (
        incr reads;
        match Tier.read tier steps with
        | Ok o ->
          if o.Tier.bounced then incr bounced;
          (match o.Tier.serve with
          | Tier.Served_replica i ->
            recorded :=
              {
                r_ts = o.Tier.read_ts;
                r_steps = steps;
                r_values = o.Tier.values;
                r_replica = i;
              }
              :: !recorded
          | Tier.Served_primary -> ())
        | Error msg ->
          if
            String.length msg >= 11 && String.sub msg 0 11 = "unavailable"
          then incr unavailable
          else note (Fmt.str "read failed: %s" msg))
    done
  in
  (* Promote over every shard a fault took down; the promotion's own
     verification is the zero-lost-commits check for these crashes. *)
  let fail_over_crashed () =
    List.iter
      (fun s ->
        if Group.shard_crashed group s then
          match Tier.fail_over tier s with
          | Error msg -> note (Fmt.str "failover of shard %d: %s" s msg)
          | Ok p -> (
            match p.Tier.verified with
            | Some msg ->
              incr lost;
              note (Fmt.str "shard %d: %s" s msg)
            | None -> ()))
      (List.init shards Fun.id)
  in
  (* Slice 1: traffic with the plan's 2PC fault at its chosen round. *)
  let on_commit = Shard_harness.commit_with_fault plan ~injected:(ref false) in
  let slice ?on_commit ~duration ~base seed =
    let config =
      {
        Sharded_driver.default_config with
        arrivals = Clients 4;
        duration;
        activity_base = base;
        seed;
      }
    in
    let o = Sharded_driver.run ~config ?on_commit group w in
    o.Sharded_driver.committed - o.Sharded_driver.committed_read_only
  in
  let d1 = if quick then 150 else 300 in
  let d2 = if quick then 100 else 200 in
  let batch = if quick then 4 else 8 in
  let committed = ref 0 in
  committed := !committed + slice ~on_commit ~duration:d1 ~base:0 plan.Shard_plan.seed;
  fail_over_crashed ();
  ignore (Group.resolve_in_doubt group);
  Tier.sync tier;
  read_batch batch;
  (* Stage the plan's replica fault and run slice 2 under it. *)
  (match plan.Shard_plan.replica with
  | Shard_plan.Replica_healthy -> ()
  | Shard_plan.Replica_lag (i, n) -> Tier.set_lag tier ~replica:(i mod replicas) n
  | Shard_plan.Replica_crash i -> Tier.crash_replica tier (i mod replicas)
  | Shard_plan.Replica_partition i -> Tier.partition_replica tier (i mod replicas)
  | Shard_plan.Replica_damage (_, n) -> Tier.damage_next_segments tier n);
  committed :=
    !committed
    + slice ~duration:d2 ~base:100_000 ((plan.Shard_plan.seed * 31) + 7);
  Tier.pump tier;
  read_batch batch;
  (* The staged failover: capture the victim's committed projection,
     crash it, promote, resolve the blocking window. *)
  let victim =
    let v = Rng.int rng shards in
    let rec live k v =
      if k = 0 then None
      else if Group.shard_crashed group v then live (k - 1) ((v + 1) mod shards)
      else Some v
    in
    live shards v
  in
  (match victim with
  | None -> note "no live shard left to fail over"
  | Some v -> (
    let pre = shard_committed group v in
    Tier.crash_primary tier v;
    match Tier.fail_over tier v with
    | Error msg -> note (Fmt.str "failover of shard %d: %s" v msg)
    | Ok p ->
      (match p.Tier.verified with
      | Some msg ->
        incr lost;
        note (Fmt.str "shard %d: %s" v msg)
      | None -> ());
      (* The independent count: everything committed before the crash
         must be in the recovered incarnation, same timestamps. *)
      let after = shard_committed group v in
      List.iter
        (fun (txn : Projection.txn) ->
          if not (List.exists (Projection.equal_txn txn) after) then begin
            incr lost;
            note
              (Fmt.str "shard %d lost %a across failover" v Projection.pp_txn
                 txn)
          end)
        pre));
  ignore (Group.resolve_in_doubt group);
  (* Lift the replica faults and finish with clean traffic. *)
  for i = 0 to replicas - 1 do
    if Tier.replica_down tier i then Tier.restart_replica tier i;
    Tier.heal_replica tier i;
    Tier.set_lag tier ~replica:i 0
  done;
  committed :=
    !committed
    + slice ~duration:d2 ~base:200_000 ((plan.Shard_plan.seed * 131) + 3);
  Tier.sync tier;
  read_batch batch;
  ignore (Group.resolve_in_doubt group);
  Tier.sync tier;
  (* Judgement. *)
  (match Shard_harness.run_checks proto group with
  | Some msg -> note msg
  | None -> ());
  for i = 0 to replicas - 1 do
    for s = 0 to shards - 1 do
      if not (Group.shard_crashed group s) then
        let rep =
          Projection.committed Cc.Recovery.Timestamp_order
            (Tier.replica_events tier ~replica:i ~shard:s)
          |> List.filter is_update
        in
        match Projection.diff rep (shard_committed group s) with
        | None -> ()
        | Some msg ->
          note (Fmt.str "replica %d diverges from shard %d: %s" i s msg)
    done
  done;
  List.iteri
    (fun seq r ->
      match audit_read group proto seq r with
      | None -> ()
      | Some msg ->
        incr stale;
        note msg)
    (List.rev !recorded);
  {
    d_plan = plan;
    d_protocol = proto.Fh.name;
    d_committed = !committed;
    d_reads = !reads;
    d_replica_served = List.length !recorded;
    d_bounced = !bounced;
    d_unavailable = !unavailable;
    d_lost = !lost;
    d_stale = !stale;
    d_promotions = Tier.promotions tier;
    d_resyncs = Tier.resyncs tier;
    d_damaged = Tier.damaged_segments tier;
    d_verdict =
      (match !diverged with
      | None -> Sweep.Converged
      | Some msg -> Sweep.Diverged msg);
  }

let totals (s : schedule_report Sweep.summary) =
  let sum f = List.fold_left (fun a r -> a + f r) 0 s.Sweep.results in
  {
    r_committed = sum (fun r -> r.d_committed);
    r_reads = sum (fun r -> r.d_reads);
    r_replica_served = sum (fun r -> r.d_replica_served);
    r_bounced = sum (fun r -> r.d_bounced);
    r_unavailable = sum (fun r -> r.d_unavailable);
    r_lost = sum (fun r -> r.d_lost);
    r_stale = sum (fun r -> r.d_stale);
    r_promotions = sum (fun r -> r.d_promotions);
    r_resyncs = sum (fun r -> r.d_resyncs);
    r_damaged = sum (fun r -> r.d_damaged);
  }

let pp_schedule ppf d =
  Fmt.pf ppf
    "@[<h>%-12s %a → %s (committed %d, reads %d: %d replica / %d bounced / \
     %d unavailable; promotions %d, resyncs %d, damaged %d)@]"
    d.d_protocol Shard_plan.pp d.d_plan
    (match d.d_verdict with
    | Sweep.Converged -> "ok"
    | v -> Fmt.str "%a" Sweep.pp_verdict v)
    d.d_committed d.d_reads d.d_replica_served d.d_bounced d.d_unavailable
    d.d_promotions d.d_resyncs d.d_damaged

let pp_report ppf (s : schedule_report Sweep.summary) =
  let r = totals s in
  Fmt.pf ppf
    "@[<v>schedules: %d@,committed: %d@,reads: %d (%d replica-served, %d \
     bounced, %d unavailable)@,lost commits: %d@,stale served: %d@,\
     diverged: %d@,promotions: %d@,resyncs: %d@,damaged segments: %d@]"
    s.Sweep.schedules r.r_committed r.r_reads r.r_replica_served r.r_bounced
    r.r_unavailable r.r_lost r.r_stale
    (List.length s.Sweep.divergences)
    r.r_promotions r.r_resyncs r.r_damaged
