open Weihl_event
module Cc = Weihl_cc
module Adt = Weihl_adt
module Sim = Weihl_sim
module Rng = Weihl_sim.Rng
module Workload = Weihl_sim.Workload
module Driver = Weihl_sim.Driver
module Tpc = Weihl_dist.Tpc

type protocol = {
  name : string;
  policy : Cc.System.ts_policy;
  spec : Weihl_spec.Seq_spec.t;
  workload : unit -> Workload.t;
  make_object : Cc.Event_log.t -> Object_id.t -> Cc.Atomic_object.t;
}

(* A blind-counter workload for [Da_counter]; the stock workloads cover
   every other protocol. *)
let blind_counter_workload () =
  let obj = Object_id.v "tally" in
  let generate rng =
    if Rng.int rng 4 = 0 then
      {
        Workload.kind = `Read_only;
        label = "read";
        steps = [ Workload.step obj Adt.Blind_counter.read ];
      }
    else
      {
        Workload.kind = `Update;
        label = "bump";
        steps =
          List.init
            (1 + Rng.int rng 2)
            (fun _ -> Workload.step obj (Adt.Blind_counter.bump (1 + Rng.int rng 5)));
      }
  in
  { Workload.name = "blind_counter"; objects = [ obj ]; generate }

let banking () = Workload.banking ~accounts:4 ~transfer_max:10 ()
let hot () = Workload.hot_withdrawals ()

let derived_account_workload () =
  let obj = Object_id.v "acct" in
  let ops = Adt.Bank_account.[| deposit 5; deposit 2; withdraw 3; withdraw 6 |] in
  let generate rng =
    if Rng.int rng 5 = 0 then
      {
        Workload.kind = `Read_only;
        label = "balance";
        steps = [ Workload.step obj Adt.Bank_account.balance ];
      }
    else
      {
        Workload.kind = `Update;
        label = "mix";
        steps =
          List.init
            (1 + Rng.int rng 2)
            (fun _ -> Workload.step obj ops.(Rng.int rng (Array.length ops)));
      }
  in
  { Workload.name = "derived_account"; objects = [ obj ]; generate }

(* The generic families run any ADT from its module alone — its
   specification, commutativity table and read/write classification. *)
let families =
  [
    ("rw", `None_, fun adt log id -> Cc.Op_locking.rw log id adt);
    ( "commutativity",
      `None_,
      fun adt log id -> Cc.Op_locking.commutativity log id adt );
    ( "multiversion",
      `Static,
      fun (module A : Adt.Adt_sig.S) log id ->
        Cc.Multiversion.make log id A.spec );
    ("hybrid", `Hybrid, fun adt log id -> Cc.Hybrid.of_adt log id adt);
  ]

let generic family ((module A : Adt.Adt_sig.S) as adt) workload =
  List.find_map
    (fun (name, policy, make) ->
      if name = family then
        Some { name; policy; spec = A.spec; workload; make_object = make adt }
      else None)
    families

let generic_exn family adt workload = Option.get (generic family adt workload)

(* A synthesized protocol: the registry ADT's depth-3 table, the one
   lint certifies.  It is fetched when the object is built, so grant
   decisions, which run on shard worker domains, only ever read it. *)
let derived adt log id =
  let e = Option.get (Adt.Adt_registry.entry adt) in
  Weihl_theory.Synthesize.(make_object e (of_adt e) log id)

let account = (module Adt.Bank_account : Adt.Adt_sig.S)
let set_ops () = Workload.set_ops ()

let catalog =
  [
    generic_exn "rw" account banking;
    generic_exn "commutativity" account banking;
    {
      name = "escrow";
      policy = `None_;
      spec = Adt.Bank_account.spec;
      workload = banking;
      make_object = Cc.Escrow_account.make;
    };
    {
      name = "rw_undo";
      policy = `None_;
      spec = Adt.Bank_account.spec;
      workload = banking;
      make_object = (fun log id -> Cc.Rw_undo.make log id account);
    };
    generic_exn "multiversion" account banking;
    generic_exn "hybrid" account banking;
    {
      name = "hybrid_account";
      policy = `Hybrid;
      spec = Adt.Bank_account.spec;
      workload = hot;
      make_object = Cc.Hybrid_account.make;
    };
    {
      name = "da_set";
      policy = `None_;
      spec = Adt.Intset.spec;
      workload = set_ops;
      make_object = Cc.Da_set.make;
    };
    {
      (generic_exn "multiversion" (module Adt.Intset) set_ops) with
      name = "multiversion_set";
    };
    {
      name = "da_generic_set";
      policy = `None_;
      spec = Adt.Intset.spec;
      workload = set_ops;
      make_object = (fun log id -> Cc.Da_generic.make log id Adt.Intset.spec);
    };
    {
      name = "da_kv";
      policy = `None_;
      spec = Adt.Kv_map.spec;
      workload = (fun () -> Workload.kv_ops ());
      make_object = Cc.Da_kv.make;
    };
    {
      name = "da_semiqueue";
      policy = `None_;
      spec = Adt.Semiqueue.spec;
      workload = (fun () -> Workload.semiqueue_producers_consumers ());
      make_object = Cc.Da_semiqueue.make;
    };
    {
      name = "da_queue";
      policy = `None_;
      spec = Adt.Fifo_queue.spec;
      workload = (fun () -> Workload.queue_producers_consumers ());
      make_object = (fun log id -> Cc.Da_queue.make log id);
    };
    {
      name = "da_counter";
      policy = `None_;
      spec = Adt.Blind_counter.spec;
      workload = blind_counter_workload;
      make_object = Cc.Da_counter.make;
    };
    {
      name = "derived_account";
      policy = `None_;
      spec = Adt.Bank_account.spec;
      workload = derived_account_workload;
      make_object = derived "account";
    };
  ]

let find_protocol name = List.find_opt (fun p -> p.name = name) catalog

type verdict = Converged | Corruption_detected | Diverged of string

type schedule_result = {
  plan : Plan.t;
  protocol : string;
  verdict : verdict;
  replayed : int;
  substituted : int;
  dropped_records : int;
  resumed_committed : int;
}

type summary = {
  schedules : int;
  converged : int;
  corruption_detected : int;
  diverged : int;
  results : schedule_result list;
}

let system proto ids =
  let sys = Cc.System.create ~policy:proto.policy () in
  List.iter
    (fun id -> Cc.System.add_object sys (proto.make_object (Cc.System.log sys) id))
    ids;
  sys

let build proto =
  let w = proto.workload () in
  (system proto w.Workload.objects, w)

(* The exponential atomicity checkers only digest small histories; past
   the cap the schedule still validates replay against the
   specification frontiers, which is linear. *)
let atomicity_cap = 8

let check_atomicity proto h =
  let env =
    Weihl_spec.Spec_env.of_list
      (List.map (fun id -> (id, proto.spec)) ((proto.workload ()).Workload.objects))
  in
  Activity.Set.cardinal (History.committed h) > atomicity_cap
  || Weihl_spec.Atomicity.of_policy proto.policy env h

(* A distributed-commit round under the plan's message faults and clock
   skews; crashes and votes are drawn from the plan's seed. *)
let tpc_round (plan : Plan.t) =
  let rng = Rng.create ((plan.Plan.seed * 13) + 5) in
  let participants = 3 in
  let votes =
    List.init participants (fun _ ->
        if Rng.int rng 6 = 0 then Tpc.No else Tpc.Yes)
  in
  let coordinator_crash =
    match Rng.int rng 5 with
    | 0 -> Tpc.After_prepare
    | 1 -> Tpc.Mid_decision (Rng.int rng (participants + 1))
    | _ -> Tpc.No_crash
  in
  let participant_crash =
    if Rng.int rng 4 = 0 then
      Some
        ( Rng.int rng participants,
          if Rng.bool rng then `Before_vote else `After_vote )
    else None
  in
  let site_clocks =
    List.filteri (fun i _ -> i < participants) plan.Plan.clock_skew
  in
  let cfg =
    {
      Tpc.default_config with
      participants;
      site_clocks;
      votes;
      coordinator_crash;
      participant_crash;
      msg_faults = plan.Plan.msg;
      seed = plan.Plan.seed;
    }
  in
  Tpc.run cfg

let run_schedule ?(quick = false) (plan : Plan.t) proto =
  let result verdict ?(replayed = 0) ?(substituted = 0) ?(dropped = 0)
      ?(resumed = 0) () =
    {
      plan;
      protocol = proto.name;
      verdict;
      replayed;
      substituted;
      dropped_records = dropped;
      resumed_committed = resumed;
    }
  in
  (* Phase 1: seeded traffic up to the crash.  [No_crash] still halts
     early so the log stays within what replay validation and the
     atomicity cap can use. *)
  let crash =
    match plan.Plan.crash with
    | Plan.No_crash -> Driver.Crash_after_events 40
    | Plan.Before_commit k -> Driver.Crash_before_commit k
    | Plan.After_commit k -> Driver.Crash_after_commit k
    | Plan.After_events n -> Driver.Crash_after_events n
  in
  let sys, w = build proto in
  let config =
    {
      Driver.default_config with
      clients = 4;
      duration = (if quick then 150 else 300);
      crash = Some crash;
      seed = plan.Plan.seed;
    }
  in
  let (_ : Driver.outcome) = Driver.run ~config sys w in
  (* Phase 2: the durable log survives the crash, possibly damaged. *)
  let wal = Cc.System.durable sys in
  let damaged = Plan.corrupt plan wal in
  (* Phase 3: recover a fresh system from what survived. *)
  let order = Cc.Recovery.order_of_policy proto.policy in
  let sys2, w2 = build proto in
  match Cc.Recovery.restore_checkpointed order sys2 damaged with
  | Error (Cc.Recovery.Corrupt e) ->
    if plan.Plan.log_fault = Plan.Pristine then
      result
        (Diverged (Fmt.str "pristine log rejected: %a" Cc.Wal.pp_error e))
        ()
    else result Corruption_detected ()
  | Error (Cc.Recovery.Divergent msg) -> result (Diverged msg) ()
  | Error (Cc.Recovery.Checkpoint_invalid msg) ->
    result (Diverged (Fmt.str "checkpoint invalid: %s" msg)) ()
  | Ok { Cc.Recovery.shard = { base = report; _ }; _ } -> (
    let replayed = report.Cc.Recovery.replayed
    and substituted = report.Cc.Recovery.substituted
    and dropped = report.Cc.Recovery.dropped_records in
    (* Cross-check: replay must cover exactly the committed projection
       of the surviving log. *)
    match Cc.Wal.decode damaged with
    | Error e ->
      result
        (Diverged (Fmt.str "decode disagreement: %a" Cc.Wal.pp_error e))
        ~replayed ~substituted ~dropped ()
    | Ok (surviving, _) ->
      let expected =
        List.length (Cc.Recovery.committed_in_order order surviving)
      in
      if replayed <> expected then
        result
          (Diverged
             (Fmt.str "replayed %d of %d committed transactions" replayed
                expected))
          ~replayed ~substituted ~dropped ()
      else begin
        (* Phase 4: resume traffic on the recovered system. *)
        let config2 =
          {
            Driver.default_config with
            clients = 2;
            duration = (if quick then 60 else 120);
            activity_base = 100_000;
            seed = (plan.Plan.seed * 31) + 7;
          }
        in
        let o2 = Driver.run ~config:config2 sys2 w2 in
        let resumed = o2.Driver.committed in
        let h = Cc.System.history sys2 in
        if not (check_atomicity proto h) then
          result
            (Diverged "post-recovery history lost the atomicity property")
            ~replayed ~substituted ~dropped ~resumed ()
        else if not (Tpc.atomic_commitment (tpc_round plan)) then
          result
            (Diverged "2PC lost atomic commitment under message faults")
            ~replayed ~substituted ~dropped ~resumed ()
        else
          result Converged ~replayed ~substituted ~dropped ~resumed ()
      end)

let run_many ?quick ?(protocols = catalog) ~seeds () =
  let n_protocols = List.length protocols in
  let results =
    List.mapi
      (fun i seed ->
        let proto = List.nth protocols (i mod n_protocols) in
        run_schedule ?quick (Plan.generate ~seed) proto)
      seeds
  in
  let count p = List.length (List.filter p results) in
  {
    schedules = List.length results;
    converged = count (fun r -> r.verdict = Converged);
    corruption_detected = count (fun r -> r.verdict = Corruption_detected);
    diverged = count (fun r -> match r.verdict with Diverged _ -> true | _ -> false);
    results;
  }

let divergences s =
  List.filter
    (fun r -> match r.verdict with Diverged _ -> true | _ -> false)
    s.results

let pp_verdict ppf = function
  | Converged -> Fmt.string ppf "converged"
  | Corruption_detected -> Fmt.string ppf "corruption detected"
  | Diverged msg -> Fmt.pf ppf "DIVERGED: %s" msg

let pp_result ppf r =
  Fmt.pf ppf
    "@[<h>%-16s %a → %a (replayed %d, substituted %d, dropped %d, resumed \
     %d)@]"
    r.protocol Plan.pp r.plan pp_verdict r.verdict r.replayed r.substituted
    r.dropped_records r.resumed_committed

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>schedules: %d@,converged: %d@,corruption detected: %d@,diverged: %d@]"
    s.schedules s.converged s.corruption_detected s.diverged
