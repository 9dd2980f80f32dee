open Weihl_event
module Cc = Weihl_cc
module Workload = Weihl_sim.Workload
module Tpc = Weihl_dist.Tpc
module Plan = Weihl_fault.Plan
module Shard_plan = Weihl_fault.Shard_plan
module Fh = Weihl_fault.Harness
module Sweep = Weihl_fault.Sweep

(* The sharded sweep exercises the banking protocols — their transfers
   touch two random accounts, so the router scatters plenty of
   multi-shard transactions.  Single-object protocols (the hot-account
   stress, the queues) never leave one shard and prove nothing here. *)
let protocol_names =
  [ "rw"; "commutativity"; "escrow"; "rw_undo"; "multiversion"; "hybrid" ]

let protocols =
  List.filter_map Fh.find_protocol protocol_names

type schedule_result = {
  plan : Shard_plan.t;
  protocol : string;
  shards : int;
  verdict : Sweep.verdict;
  committed : int;  (** across both traffic phases *)
  tpc_commits : int;
  fault_injected : bool;
  crashed_shards : int;
  reinstated : int;  (** prepared legs rebuilt from WALs *)
  resolved_in_doubt : int;
  resumed_committed : int;
}

let group ?metrics ?seed ?domains ?group_commit ?sync_cost ?checkpoint
    ~shards (proto : Fh.protocol) ids =
  let g =
    Group.create ~policy:proto.Fh.policy ?metrics ?seed ?domains
      ?group_commit ?sync_cost ?checkpoint ~shards ()
  in
  List.iter (fun id -> Group.add_object g id proto.Fh.make_object) ids;
  g

let build (proto : Fh.protocol) ~shards ~seed =
  let w = proto.Fh.workload () in
  (group ~seed ~shards proto w.Workload.objects, w)

(* Translate the plan's abstract fault into a concrete [Tpc.fault] for
   a transaction of the given fan-out.  Message faults apply to the
   faulty round only; the clean rounds before and after run reliably,
   so the schedule isolates one failure per run. *)
let tpc_fault_of (plan : Shard_plan.t) ~fanout =
  let msg = plan.Shard_plan.msg in
  match plan.Shard_plan.tpc with
  | Shard_plan.Clean -> ({ Tpc.no_fault with f_msg_faults = msg }, [])
  | Shard_plan.Coord_crash cp ->
    ({ Tpc.no_fault with f_coordinator_crash = cp; f_msg_faults = msg }, [])
  | Shard_plan.Part_crash (i, when_) ->
    ( {
        Tpc.no_fault with
        f_participant_crash = Some (i mod fanout, when_);
        f_msg_faults = msg;
      },
      [] )
  | Shard_plan.Part_refuses i ->
    ({ Tpc.no_fault with f_msg_faults = msg }, [ i mod fanout ])
  | Shard_plan.Partition i ->
    ( {
        Tpc.no_fault with
        f_partitions = [ (0, 1 + (i mod fanout)) ];
        f_heal_at = Some 120;
        f_msg_faults = msg;
      },
      [] )

(* The [on_commit] hook of every schedule that injects a plan's fault:
   the sweep, the replica drill and the checkpoint oracle. *)
let commit_with_fault (plan : Shard_plan.t) ~injected group g ~nth_multi =
  if (not !injected) && nth_multi = plan.Shard_plan.fault_at_commit then begin
    injected := true;
    let fault, votes_no = tpc_fault_of plan ~fanout:(Gtxn.fanout g) in
    Group.commit ~fault ~votes_no group g
  end
  else Group.commit group g

(* ------------------------------------------------------------------ *)
(* Global-atomicity checks.  They read the policy and the objects from
   the group, so a group built by hand, not from a catalog workload,
   is judged the same way. *)

(* All-or-nothing across shards: no activity may be committed at one
   shard and aborted at another. *)
let check_atomic_commitment group =
  let shards = Group.shard_count group in
  let hist s = Cc.System.history (Group.system group s) in
  let rec scan s =
    if s >= shards then None
    else
      let committed = History.committed (hist s) in
      let rec against s' =
        if s' >= shards then scan (s + 1)
        else
          let bad =
            Activity.Set.inter committed (History.aborted (hist s'))
          in
          match Activity.Set.choose_opt bad with
          | Some a ->
            Some
              (Fmt.str "%a committed at shard %d but aborted at shard %d"
                 Activity.pp a s s')
          | None -> against (s' + 1)
      in
      against 0
  in
  scan 0

(* Agreed timestamps: every shard that committed an activity must have
   recorded the same timestamp for it (the 2PC-agreed commit timestamp,
   or the shared initiation timestamp). *)
let check_ts_agreement group =
  let shards = Group.shard_count group in
  let tbl : (Activity.t, int * Timestamp.t option) Hashtbl.t =
    Hashtbl.create 64
  in
  let err = ref None in
  for s = 0 to shards - 1 do
    let h = Cc.System.history (Group.system group s) in
    Activity.Set.iter
      (fun a ->
        let ts = History.timestamp_of h a in
        match Hashtbl.find_opt tbl a with
        | None -> Hashtbl.replace tbl a (s, ts)
        | Some (s0, ts0) ->
          let same =
            match (ts0, ts) with
            | None, None -> true
            | Some x, Some y -> Timestamp.compare x y = 0
            | _ -> false
          in
          if (not same) && !err = None then
            err :=
              Some
                (Fmt.str
                   "%a committed with ts %a at shard %d but %a at shard %d"
                   Activity.pp a
                   Fmt.(option ~none:(any "-") Timestamp.pp)
                   ts0 s0
                   Fmt.(option ~none:(any "-") Timestamp.pp)
                   ts s))
      (History.committed h)
  done;
  !err

(* Global serializability: the merged committed projection — every
   committed global transaction's operations, in the group's
   serialization order — must replay cleanly against one combined
   fresh system holding all the objects. *)
let check_merged_replay ~make_object group =
  let sys = Cc.System.create ~policy:(Group.policy group) () in
  List.iter
    (fun (id, _) ->
      Cc.System.add_object sys (make_object (Cc.System.log sys) id))
    (Group.objects group);
  match Cc.Recovery.replay_txns sys (Group.committed_projection group) with
  | Ok _ -> None
  | Error f -> Some (Fmt.str "merged replay: %a" Cc.Recovery.pp_failure f)

(* Committed state, shard by shard: each live shard's objects, folded
   from its own history in its recovery order, must equal the fold of
   the group's committed projection over those objects.  A shard
   recovered from a checkpoint lists one rebuild transaction in place
   of the transactions it folded, which no check by activity name can
   see through; a check by state can. *)
let check_state ~spec group =
  let spec _ = Some spec in
  let shards = Group.shard_count group in
  let projected =
    Array.init shards (fun _ -> Cc.Fold.create ~ts_ordered:false ~spec)
  in
  List.iter
    (fun (a, ops) ->
      if not (Activity.is_read_only a) then
        Array.iteri
          (fun s f ->
            Cc.Fold.apply f
              (List.filter (fun (x, _, _) -> Group.shard_of group x = s) ops))
          projected)
    (Group.committed_projection group);
  let rec scan s =
    if s >= shards then None
    else if Group.shard_crashed group s then scan (s + 1)
    else
      let local =
        Cc.Fold.of_events
          ~ts_ordered:(Group.policy group <> `None_)
          ~spec
          (History.to_list (Cc.System.history (Group.system group s)))
      in
      match Cc.Fold.diff local projected.(s) with
      | Some msg ->
        Some
          (Fmt.str "shard %d's state departs from the committed projection: %s"
             s msg)
      | None -> scan (s + 1)
  in
  scan 0

let judge ?(merged = true) ~spec ~make_object group =
  match check_atomic_commitment group with
  | Some msg -> Some msg
  | None -> (
    match check_ts_agreement group with
    | Some msg -> Some msg
    | None -> (
      let stuck = Group.in_doubt_count group in
      if stuck > 0 then
        Some (Fmt.str "%d transactions stuck in-doubt after resolution" stuck)
      else
        match check_state ~spec group with
        | Some msg -> Some msg
        | None ->
          if merged then check_merged_replay ~make_object group else None))

let run_checks ?merged (proto : Fh.protocol) group =
  judge ?merged ~spec:proto.Fh.spec ~make_object:proto.Fh.make_object group

(* ------------------------------------------------------------------ *)

let run_schedule ?(quick = false) ?(shards = 3) (plan : Shard_plan.t)
    (proto : Fh.protocol) =
  let group, w = build proto ~shards ~seed:plan.Shard_plan.seed in
  let injected = ref false in
  let on_commit = commit_with_fault plan ~injected in
  (* Phase 1: seeded traffic; the plan's fault fires inside the k-th
     multi-shard 2PC round. *)
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients 5;
      duration = (if quick then 250 else 500);
      seed = plan.Shard_plan.seed;
    }
  in
  let o1 = Sharded_driver.run ~config ~on_commit group w in
  (* Phase 2: recover every shard the fault took down, damaging the
     first victim's WAL per the plan. *)
  let crashed =
    List.filter
      (fun s -> Group.shard_crashed group s)
      (List.init shards Fun.id)
  in
  let recover () =
    List.fold_left
      (fun acc s ->
        match acc with
        | Error _ -> acc
        | Ok (first, reinstated) ->
          let text = Group.durable_shard group s in
          let text = if first then Shard_plan.corrupt plan text else text in
          (match Group.recover_shard group s text with
          | Ok report ->
            Ok
              ( false,
                reinstated + report.Cc.Recovery.shard.Cc.Recovery.reinstated )
          | Error e -> Error e))
      (Ok (true, 0))
      crashed
  in
  let result verdict ~reinstated ~resolved ~resumed =
    {
      plan;
      protocol = proto.Fh.name;
      shards;
      verdict;
      committed = o1.Sharded_driver.committed + resumed;
      tpc_commits = o1.Sharded_driver.committed_multi;
      fault_injected = !injected;
      crashed_shards = List.length crashed;
      reinstated;
      resolved_in_doubt = resolved;
      resumed_committed = resumed;
    }
  in
  match recover () with
  | Error f ->
    let pristine = plan.Shard_plan.log_fault = Plan.Pristine in
    result (Sweep.of_recovery ~pristine f) ~reinstated:0 ~resolved:0 ~resumed:0
  | Ok (_, reinstated) -> (
    (* Phase 3: end the blocking window — replay the coordinator's
       decisions (presumed abort where it has none) into every
       surviving prepared leg. *)
    let resolved = Group.resolve_in_doubt group in
    match run_checks proto group with
    | Some msg -> result (Sweep.Diverged msg) ~reinstated ~resolved ~resumed:0
    | None -> (
      (* Phase 4: resume clean traffic and re-validate the whole run. *)
      let config2 =
        {
          Sharded_driver.default_config with
          arrivals = Clients 3;
          duration = (if quick then 120 else 250);
          activity_base = 100_000;
          seed = (plan.Shard_plan.seed * 31) + 7;
        }
      in
      let o2 = Sharded_driver.run ~config:config2 group w in
      let resumed = o2.Sharded_driver.committed in
      let leftover = Group.resolve_in_doubt group in
      match run_checks proto group with
      | Some msg ->
        result (Sweep.Diverged msg) ~reinstated ~resolved:(resolved + leftover)
          ~resumed
      | None ->
        result Sweep.Converged ~reinstated ~resolved:(resolved + leftover)
          ~resumed))

(* ------------------------------------------------------------------ *)
(* Long-soak crash→recover cycles *)

type soak_config = {
  soak_seed : int;
  cycles : int;
  cycle_duration : int;  (** driver ticks of traffic per cycle *)
  soak_shards : int;
  checkpoint_every : int;
  check_merged_every : int;
      (** merged-replay cadence — the full-projection replay is
          quadratic over a long soak, the other checks run every
          cycle *)
}

let default_soak =
  {
    soak_seed = 1;
    cycles = 20;
    cycle_duration = 400;
    soak_shards = 3;
    checkpoint_every = 25;
    check_merged_every = 5;
  }

type cycle_report = {
  cycle : int;
  victim : int;
  ckpt_fault : Shard_plan.ckpt_fault;
  cycle_committed : int;  (** commits this cycle's traffic added *)
  source : Cc.Recovery.source;
  fallbacks : string list;
  wal_records : int;  (** records in the victim's (truncated) WAL *)
  replayed : int;  (** records recovery actually replayed *)
  replay_bound : int;  (** the tail length it was allowed *)
  cycle_verdict : Sweep.verdict;
}

type soak_report = {
  soak_protocol : string;
  cycles_run : int;
  soak_committed : int;
  soak_diverged : int;
  bound_violations : int;
  checkpoint_recoveries : int;  (** cycles restored from a checkpoint *)
  full_replays : int;
  loud_fallbacks : int;  (** cycles whose recovery reported fallbacks *)
  cycle_reports : cycle_report list;
}

(* Compressed hours of one group's life: seeded traffic, a crash of a
   random shard at the end of every cycle — its newest checkpoint
   damaged per the cycle's plan — then checkpoint-aware recovery and
   the global-atomicity checks, on the same group, for [cycles] rounds.
   Recovery must stay bounded by the WAL tail behind the checkpoint it
   used, and damaged checkpoints must fall back *loudly* (a damaged
   file with a silent, note-free recovery counts as a divergence). *)
let run_soak ?(config = default_soak) () =
  let rng = Weihl_sim.Rng.create ((config.soak_seed * 101) + 3) in
  let n = List.length protocols in
  let proto = List.nth protocols (config.soak_seed mod n) in
  let w = proto.Fh.workload () in
  let group =
    group ~seed:config.soak_seed ~shards:config.soak_shards
      ~checkpoint:
        { Group.default_checkpoint with every = config.checkpoint_every }
      proto w.Workload.objects
  in
  let reports = ref [] in
  let committed = ref 0 in
  (* A failed recovery leaves its victim down — the group cannot take
     another cycle of traffic, so the soak stops at the divergence
     instead of cascading unrelated failures after it. *)
  let halted = ref false in
  for c = 1 to config.cycles do
    if not !halted then begin
    let plan = Shard_plan.generate ~seed:((config.soak_seed * 1000) + c) in
    let dconfig =
      {
        Sharded_driver.default_config with
        arrivals = Clients 4;
        duration = config.cycle_duration;
        seed = plan.Shard_plan.seed;
        activity_base = c * 10_000;
      }
    in
    let o = Sharded_driver.run ~config:dconfig group w in
    committed := !committed + o.Sharded_driver.committed;
    let victim = Weihl_sim.Rng.int rng config.soak_shards in
    let damaged =
      match plan.Shard_plan.ckpt with
      | Shard_plan.Ckpt_race ->
        ignore (Group.checkpoint_shard ~lose_marker:true group victim);
        false
      | Shard_plan.Ckpt_pristine -> false
      | Shard_plan.Ckpt_bit_flip _ | Shard_plan.Ckpt_torn _ ->
        Group.corrupt_checkpoint group victim
          ~f:(Shard_plan.corrupt_ckpt plan)
    in
    let text = Group.crash_shard group victim in
    let cycle_result source fallbacks wal_records replayed replay_bound
        cycle_verdict =
      reports :=
        {
          cycle = c;
          victim;
          ckpt_fault = plan.Shard_plan.ckpt;
          cycle_committed = o.Sharded_driver.committed;
          source;
          fallbacks;
          wal_records;
          replayed;
          replay_bound;
          cycle_verdict;
        }
        :: !reports
    in
    match Group.recover_shard group victim text with
    | Error f ->
      halted := true;
      cycle_result Cc.Recovery.Full_replay [] 0 0 0
        (Sweep.of_recovery ~pristine:true f)
    | Ok r ->
      let source = r.Cc.Recovery.source in
      let fallbacks = r.Cc.Recovery.fallbacks in
      let wal_records = r.Cc.Recovery.wal_records in
      let replayed = r.Cc.Recovery.replayed_records in
      let base = Cc.Wal.base text in
      let bound =
        match source with
        | Cc.Recovery.Full_replay -> wal_records
        | Cc.Recovery.From_checkpoint { covered } ->
          wal_records - (covered - base)
      in
      ignore (Group.resolve_in_doubt group);
      let merged = c mod config.check_merged_every = 0 || c = config.cycles in
      let verdict =
        match run_checks ~merged proto group with
        | Some msg -> Sweep.Diverged msg
        | None ->
          if replayed > bound then
            Sweep.Diverged
              (Fmt.str "recovery replayed %d records, tail bound is %d"
                 replayed bound)
          else if damaged && fallbacks = [] then
            Sweep.Diverged "damaged checkpoint consumed without a fallback note"
          else Sweep.Converged
      in
      cycle_result source fallbacks wal_records replayed bound verdict
    end
  done;
  let reports = List.rev !reports in
  let count p = List.length (List.filter p reports) in
  {
    soak_protocol = proto.Fh.name;
    cycles_run = List.length reports;
    soak_committed = !committed;
    soak_diverged =
      count (fun r ->
          match r.cycle_verdict with Sweep.Diverged _ -> true | _ -> false);
    bound_violations = count (fun r -> r.replayed > r.replay_bound);
    checkpoint_recoveries =
      count (fun r ->
          match r.source with
          | Cc.Recovery.From_checkpoint _ -> true
          | Cc.Recovery.Full_replay -> false);
    full_replays =
      count (fun r -> r.source = Cc.Recovery.Full_replay);
    loud_fallbacks = count (fun r -> r.fallbacks <> []);
    cycle_reports = reports;
  }

let soak_divergences s =
  List.filter
    (fun r -> match r.cycle_verdict with Sweep.Diverged _ -> true | _ -> false)
    s.cycle_reports

let pp_result ppf r =
  Fmt.pf ppf
    "@[<h>%-14s %a → %a (committed %d, 2pc %d, crashed %d, reinstated %d, \
     resolved %d, resumed %d)@]"
    r.protocol Shard_plan.pp r.plan Sweep.pp_verdict r.verdict r.committed
    r.tpc_commits r.crashed_shards r.reinstated r.resolved_in_doubt
    r.resumed_committed

let pp_cycle ppf r =
  Fmt.pf ppf
    "@[<h>cycle %d: shard %d down (%a) → %a, wal %d, replayed %d/%d, %a%a@]"
    r.cycle r.victim Shard_plan.pp_ckpt r.ckpt_fault Cc.Recovery.pp_source
    r.source r.wal_records r.replayed r.replay_bound Sweep.pp_verdict
    r.cycle_verdict
    Fmt.(
      if r.fallbacks = [] then nop
      else any " [" ++ list ~sep:(any "; ") string ++ any "]")
    r.fallbacks

let pp_soak ppf s =
  Fmt.pf ppf
    "@[<v>protocol: %s@,cycles: %d@,committed: %d@,diverged: %d@,\
     bound violations: %d@,checkpoint recoveries: %d@,full replays: %d@,\
     loud fallbacks: %d@]"
    s.soak_protocol s.cycles_run s.soak_committed s.soak_diverged
    s.bound_violations s.checkpoint_recoveries s.full_replays s.loud_fallbacks
