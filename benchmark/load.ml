(* One repetition of one workload: set-up, a closed-loop load phase,
   a closing phase, and the correctness oracles.

   The driver reaches the system only through the public functions of
   [Group] and [Tier] and times each call from outside.  It is its own
   driver, not [Mcore_driver] or [Sharded_driver], so the shape of the
   load cannot change when those are reworked.

   Determinism: scripts are generated from the seed during set-up and
   admitted in order, and each round's batch follows admission order, so
   every grant, wait, abort and commit is a function of the seed alone,
   at any domain count.  Only wall-clock times vary between runs. *)

open Weihl_event
module Bank = Weihl_adt.Bank_account
module System = Weihl_cc.System
module Recovery = Weihl_cc.Recovery
module Group = Weihl_shard.Group
module Gtxn = Weihl_shard.Gtxn
module Shard_harness = Weihl_shard.Shard_harness
module Tier = Weihl_replica.Tier
module Projection = Weihl_replica.Projection
module Fh = Weihl_fault.Harness
module Workload = Weihl_sim.Workload
module Rng = Weihl_sim.Rng
module Sm = Weihl_obs.Shard_metrics
module Vec = Spans.Vec

type workload = Transfer | Hotspot | Replica_read | Replica_write

let workloads =
  [
    ("transfer", Transfer);
    ("hotspot", Hotspot);
    ("replica-read", Replica_read);
    ("replica-write", Replica_write);
  ]

type accounts = Uniform of int | Hot_per_shard

type config = {
  shards : int;
  domains : int;
  checkpoint : Group.checkpoint_config option;
  protocol : string;  (** a {!Fh.catalog} entry: its policy and objects *)
  accounts : accounts;
  opening_balance : int;
  window : int;  (** jobs in flight *)
  jobs : int;
  replicas : int;  (** 0: no tier *)
  reads_per_wave : int;
  recover : bool;  (** crash and recover every shard after the load *)
}

let rec config = function
  | Transfer ->
    {
      shards = 8;
      domains = 2;
      checkpoint = Some Group.default_checkpoint;
      protocol = "escrow";
      accounts = Uniform 4096;
      opening_balance = 1000;
      window = 8;
      jobs = 4000;
      replicas = 0;
      reads_per_wave = 0;
      recover = true;
    }
  | Hotspot ->
    {
      shards = 8;
      domains = 2;
      checkpoint = None;
      protocol = "escrow";
      accounts = Hot_per_shard;
      opening_balance = 100;
      window = 64;
      jobs = 30_000;
      replicas = 0;
      reads_per_wave = 0;
      recover = false;
    }
  | Replica_read ->
    {
      shards = 4;
      domains = 1;
      checkpoint = None;
      protocol = "hybrid";
      accounts = Uniform 256;
      opening_balance = 1000;
      window = 16;
      jobs = 250;
      replicas = 2;
      reads_per_wave = 10;
      recover = false;
    }
  | Replica_write -> { (config Replica_read) with jobs = 3000; reads_per_wave = 0 }

(* Blocked rounds before a job is aborted as starved, and restarts
   before it is given up.  The restart budget is far above what any
   workload needs, so a job that gives up is a failure worth seeing. *)
let max_waits = 64
let max_restarts = 1000
let balances_per_read = 4

(* ------------------------------------------------------------------ *)
(* Set-up *)

type t = {
  cfg : config;
  group : Group.t;
  tier : Tier.t option;
  protocol : Fh.protocol;  (** the catalog entry over this run's objects *)
  metrics : Sm.t option;
  mutable scripts : Workload.script array;
  mutable reads : (Object_id.t * Operation.t) list array;
  trace : Spans.t option;
}

(* One hot account per shard: the first [hotN] names the router places
   on each shard. *)
let hot_accounts group =
  let n = Group.shard_count group in
  let found = Array.make n None in
  let rec scan i left =
    if left > 0 then begin
      let id = Object_id.v (Fmt.str "hot%d" i) in
      let s = Group.shard_of group id in
      if found.(s) = None then begin
        found.(s) <- Some id;
        scan (i + 1) (left - 1)
      end
      else scan (i + 1) left
    end
  in
  scan 0 n;
  Array.map Option.get found

(* The workload's scripts, over an object set the benchmark owns.  Uniform
   keys go through an array index: [Rng.pick] walks the list. *)
let workload_of cfg group =
  match cfg.accounts with
  | Uniform n ->
    Workload.banking ~accounts:n ~audit_fraction:0.
      ~key_dist:(fun rng -> Rng.int rng n)
      ()
  | Hot_per_shard ->
    let hot = hot_accounts group in
    let w = Workload.hot_withdrawals () in
    let generate rng =
      let s = w.Workload.generate rng in
      let acct = hot.(Rng.int rng (Array.length hot)) in
      {
        s with
        Workload.steps =
          List.map (fun st -> { st with Workload.obj = acct }) s.Workload.steps;
      }
    in
    { w with Workload.objects = Array.to_list hot; generate }

(* Seed every account with one deposit transaction.  Activity names
   must not start with r, s or t: the WAL text codec reads those as
   read-only. *)
let fund group accounts amount =
  let txns =
    List.mapi
      (fun i _ -> Group.begin_txn group (Activity.update (Fmt.str "fund%d" i)))
      accounts
  in
  let results =
    Group.invoke_batch group
      (List.map2 (fun g id -> (g, id, Bank.deposit amount)) txns accounts)
  in
  List.iter
    (function
      | Group.Granted _ -> ()
      | Group.Wait _ | Group.Refused _ -> failwith "funding deposit not granted")
    results;
  Group.commit_batch group txns;
  if List.exists (fun g -> Gtxn.status g <> Gtxn.Committed) txns then
    failwith "funding transaction not committed"

let setup (cfg : config) ~seed ~traced =
  let proto =
    match Fh.find_protocol cfg.protocol with
    | Some p -> p
    | None -> invalid_arg ("unknown protocol " ^ cfg.protocol)
  in
  let metrics =
    if traced then Some (Sm.create ~shards:cfg.shards ())
    else None
  in
  let group =
    Group.create ~policy:proto.Fh.policy ?metrics ~domains:cfg.domains
      ~group_commit:true ?checkpoint:cfg.checkpoint ~shards:cfg.shards ()
  in
  let w = workload_of cfg group in
  List.iter (fun id -> Group.add_object group id proto.Fh.make_object) w.Workload.objects;
  fund group w.Workload.objects cfg.opening_balance;
  let tier =
    if cfg.replicas = 0 then None
    else
      Some
        (Tier.create ~replicas:cfg.replicas ~make_object:proto.Fh.make_object group)
  in
  let rng = Rng.create seed in
  let scripts = Array.init cfg.jobs (fun _ -> w.Workload.generate rng) in
  let accounts = Array.of_list w.Workload.objects in
  (* waves <= jobs, so this pool never wraps *)
  let reads =
    Array.init (cfg.jobs * cfg.reads_per_wave) (fun _ ->
        List.init balances_per_read (fun _ ->
            (accounts.(Rng.int rng (Array.length accounts)), Bank.balance)))
  in
  {
    cfg;
    group;
    tier;
    protocol = { proto with Fh.workload = (fun () -> w) };
    metrics;
    scripts;
    reads;
    trace = (if traced then Some (Spans.create ()) else None);
  }

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type state = Running | Ready | Finished

type job = {
  script : Workload.script;
  lane : int;  (** window slot, for the trace *)
  admitted : int;  (** ns, before its first [begin_txn] *)
  mutable txn : Gtxn.t;
  mutable steps : Workload.step list;
  mutable state : state;
  mutable waits_left : int;
  mutable restarts_left : int;
  mutable idle : int;  (** rounds to sit out before invoking again *)
}

type counts = {
  mutable invocations : int;
  mutable granted : int;
  mutable waits : int;
  mutable restarts : int;
  mutable deadlocks : int;
  mutable starved : int;
  mutable refused : int;
  mutable gave_up : int;
  mutable lost : int;
  mutable committed : int;
  mutable multi : int;
  mutable rounds : int;
  mutable waves : int;
  mutable reads : int;
  mutable read_errors : int;
  mutable reads_waited : int;
  mutable reads_bounced : int;
}

let zero_counts () =
  {
    invocations = 0;
    granted = 0;
    waits = 0;
    restarts = 0;
    deadlocks = 0;
    starved = 0;
    refused = 0;
    gave_up = 0;
    lost = 0;
    committed = 0;
    multi = 0;
    rounds = 0;
    waves = 0;
    reads = 0;
    read_errors = 0;
    reads_waited = 0;
    reads_bounced = 0;
  }

type read_record = {
  rr_ts : int;
  rr_steps : (Object_id.t * Operation.t) list;
  rr_values : (Object_id.t * Operation.t * Value.t) list;
}

(* Replica reads kept for the end-of-run audit: one in this many. *)
let audit_every = 100

let span t kind ~t0 ~t1 ~arg ~lane =
  match t.trace with None -> () | Some s -> Spans.add s kind ~t0 ~t1 ~arg ~lane

let run_load t c ~commit_lat ~read_lat ~audited =
  let g = t.group and cfg = t.cfg in
  let timed kind f = Spans.timed t.trace kind ~arg:c.rounds f in
  let names = ref 0 in
  let open_txn () =
    incr names;
    let a = Activity.update ("j" ^ string_of_int !names) in
    timed Spans.Begin_txn (fun () -> Group.begin_txn g a)
  in
  let by_gid : (int, job) Hashtbl.t = Hashtbl.create 256 in
  let lanes = Stack.create () in
  for l = cfg.window - 1 downto 0 do
    Stack.push l lanes
  done;
  let live = ref [] and next = ref 0 and finished = ref 0 and next_read = ref 0 in
  let restarted = ref [] in
  let finish j =
    j.state <- Finished;
    Stack.push j.lane lanes;
    incr finished
  in
  let restart j =
    Hashtbl.remove by_gid (Gtxn.gid j.txn);
    if j.restarts_left > 0 then begin
      j.restarts_left <- j.restarts_left - 1;
      (* Back off one round per restart so far.  A victim that retries at
         once takes the escrow headroom its survivor is waiting for, and
         on a hot account a few jobs can then abort each other forever. *)
      j.idle <- max_restarts - j.restarts_left;
      c.restarts <- c.restarts + 1;
      j.steps <- j.script.Workload.steps;
      j.waits_left <- max_waits;
      j.state <- Running;
      j.txn <- open_txn ();
      Hashtbl.replace by_gid (Gtxn.gid j.txn) j;
      restarted := j :: !restarted
    end
    else begin
      c.gave_up <- c.gave_up + 1;
      finish j
    end
  in
  let abort reason j = timed Spans.Abort (fun () -> Group.abort ~reason g j.txn) in
  let t_start = Spans.now () in
  let round_start = ref t_start in
  let close_round t1 =
    span t Spans.Round ~t0:!round_start ~t1 ~arg:c.rounds ~lane:0;
    round_start := t1
  in
  while !finished < cfg.jobs do
    if c.rounds > 0 then close_round (Spans.now ());
    c.rounds <- c.rounds + 1;
    (* refill the window in script order *)
    let fresh = ref [] in
    while (not (Stack.is_empty lanes)) && !next < cfg.jobs do
      let script = t.scripts.(!next) in
      incr next;
      let admitted = Spans.now () in
      let txn = open_txn () in
      let j =
        {
          script;
          lane = Stack.pop lanes;
          admitted;
          txn;
          steps = script.Workload.steps;
          state = Running;
          waits_left = max_waits;
          restarts_left = max_restarts;
          idle = 0;
        }
      in
      Hashtbl.replace by_gid (Gtxn.gid txn) j;
      fresh := j :: !fresh
    done;
    live := !live @ List.rev !fresh;
    (* one pending operation per running job, batched across shards *)
    let entries =
      List.filter_map
        (fun j ->
          if j.state <> Running then None
          else if j.idle > 0 then begin
            j.idle <- j.idle - 1;
            None
          end
          else
            match j.steps with
            | st :: _ -> Some (j, st)
            | [] ->
              j.state <- Ready;
              None)
        !live
    in
    let results =
      timed Spans.Invoke_batch (fun () ->
          Group.invoke_batch g
            (List.map (fun (j, st) -> (j.txn, st.Workload.obj, st.Workload.op)) entries))
    in
    c.invocations <- c.invocations + List.length entries;
    let blocked = ref false in
    List.iter2
      (fun (j, st) r ->
        match r with
        | Group.Granted v ->
          c.granted <- c.granted + 1;
          j.steps <- List.tl j.steps;
          let stop =
            match st.Workload.continue_if with
            | Some keep -> not (keep v)
            | None -> false
          in
          if stop || j.steps = [] then j.state <- Ready
        | Group.Wait _ ->
          blocked := true;
          c.waits <- c.waits + 1;
          j.waits_left <- j.waits_left - 1;
          if j.waits_left <= 0 then begin
            c.starved <- c.starved + 1;
            abort "starved" j;
            restart j
          end
        | Group.Refused _ ->
          c.refused <- c.refused + 1;
          if Gtxn.is_active j.txn then abort "refused" j;
          restart j)
      entries results;
    (* every waiter surfaced in this round's results, so a cycle can
       only exist if something blocked *)
    if !blocked then begin
      let rec break () =
        match timed Spans.Find_deadlock (fun () -> Group.find_deadlock g) with
        | None -> ()
        | Some cycle ->
          let v = Group.victim cycle in
          c.deadlocks <- c.deadlocks + 1;
          timed Spans.Abort (fun () -> Group.abort ~reason:"deadlock" g v);
          Option.iter restart (Hashtbl.find_opt by_gid (Gtxn.gid v));
          break ()
      in
      break ()
    end;
    let ready = List.filter (fun j -> j.state = Ready) !live in
    if ready <> [] then begin
      let fanouts = List.map (fun j -> Gtxn.fanout j.txn) ready in
      timed Spans.Commit_batch (fun () ->
          Group.commit_batch g (List.map (fun j -> j.txn) ready));
      let acked = Spans.now () in
      c.waves <- c.waves + 1;
      List.iter2
        (fun j fanout ->
          Hashtbl.remove by_gid (Gtxn.gid j.txn);
          (match Gtxn.status j.txn with
          | Gtxn.Committed ->
            c.committed <- c.committed + 1;
            if fanout >= 2 then c.multi <- c.multi + 1;
            Vec.push commit_lat (acked - j.admitted);
            span t Spans.Txn ~t0:j.admitted ~t1:acked ~arg:(Gtxn.gid j.txn)
              ~lane:j.lane
          | Gtxn.Aborted | Gtxn.Active | Gtxn.In_doubt ->
            (* only an injected fault leaves a batch unacknowledged *)
            c.lost <- c.lost + 1);
          finish j)
        ready fanouts;
      match t.tier with
      | None -> ()
      | Some tier ->
        timed Spans.Pump (fun () -> Tier.pump tier);
        for _ = 1 to cfg.reads_per_wave do
          let steps = t.reads.(!next_read) in
          incr next_read;
          let t0 = Spans.now () in
          let r = Tier.read tier steps in
          let t1 = Spans.now () in
          c.reads <- c.reads + 1;
          Vec.push read_lat (t1 - t0);
          span t Spans.Read ~t0 ~t1 ~arg:c.rounds ~lane:0;
          match r with
          | Ok o ->
            if o.Tier.waited > 0 then c.reads_waited <- c.reads_waited + 1;
            if o.Tier.bounced then c.reads_bounced <- c.reads_bounced + 1;
            span t Spans.Read_req ~t0 ~t1 ~arg:o.Tier.read_ts ~lane:0;
            if c.reads mod audit_every = 1 then
              audited :=
                { rr_ts = o.Tier.read_ts; rr_steps = steps; rr_values = o.Tier.values }
                :: !audited
          | Error _ -> c.read_errors <- c.read_errors + 1
        done
    end;
    (* A restarted job is now the youngest transaction, the one deadlock
       detection sacrifices: batch it after every older job, or two jobs
       can block each other in the same order again every round. *)
    let moved = List.rev !restarted in
    restarted := [];
    live :=
      List.filter (fun j -> j.state <> Finished && not (List.memq j moved)) !live
      @ List.filter (fun j -> j.state <> Finished) moved
  done;
  let t_end = Spans.now () in
  close_round t_end;
  t_end - t_start

(* ------------------------------------------------------------------ *)
(* Oracles.  [Weihl_replica.Drill] runs the same replica checks but does
   not export them. *)

let is_update (txn : Projection.txn) = not (Activity.is_read_only txn.Projection.activity)

let shard_committed group s =
  Projection.committed Recovery.Timestamp_order
    (History.to_list (System.history (Group.system group s)))
  |> List.filter is_update

(* After [Tier.sync], every replica's committed projection of every shard
   equals its primary's. *)
let check_replicas t tier =
  let rec go i s =
    if i >= t.cfg.replicas then None
    else if s >= t.cfg.shards then go (i + 1) 0
    else
      let rep =
        Projection.committed Recovery.Timestamp_order
          (Tier.replica_events tier ~replica:i ~shard:s)
        |> List.filter is_update
      in
      match Projection.diff rep (shard_committed t.group s) with
      | Some msg -> Some (Fmt.str "replica %d diverges from shard %d: %s" i s msg)
      | None -> go i (s + 1)
  in
  go 0 0

(* A replica-served read at timestamp T claimed the committed state as
   of T: replaying the primary's committed updates with ts <= T into a
   fresh system and running the read there must give the same values. *)
let audit_read t (r : read_record) =
  let sys = System.create ~policy:(Group.policy t.group) () in
  List.iter
    (fun (x, _) -> System.add_object sys (t.protocol.Fh.make_object (System.log sys) x))
    (Group.objects t.group);
  let events =
    List.concat_map
      (fun s -> History.to_list (System.history (Group.system t.group s)))
      (List.init t.cfg.shards Fun.id)
  in
  let keep (txn : Projection.txn) =
    match txn.Projection.ts with
    | Some ts -> Timestamp.to_int ts <= r.rr_ts
    | None -> false
  in
  match
    Recovery.replay Recovery.Timestamp_order sys (Projection.updates_history ~keep events)
  with
  | Error f -> Some (Fmt.str "audit replay: %a" Recovery.pp_failure f)
  | Ok _ ->
    let txn =
      System.begin_txn ~ts:(Timestamp.v r.rr_ts) sys (Activity.read_only "audit")
    in
    let got =
      List.map
        (fun (x, op) ->
          match System.invoke sys txn x op with
          | Weihl_cc.Atomic_object.Granted v -> Some v
          | Weihl_cc.Atomic_object.Wait _ | Weihl_cc.Atomic_object.Refused _ -> None)
        r.rr_steps
    in
    let served = List.map (fun (_, _, v) -> Some v) r.rr_values in
    if List.equal (Option.equal Value.equal) got served then None
    else Some (Fmt.str "read at ts %d served values the primary disagrees with" r.rr_ts)

(* ------------------------------------------------------------------ *)

type result = {
  setup_ns : int array;
      (** the repetition's own set-up, then its spare set-ups, if any *)
  load_ns : int;
  wall_ns : int;  (** every driver round: the load plus the closing phase *)
  commit_lat : int array;  (** ns per acknowledged job *)
  read_lat : int array;  (** ns per [Tier.read] *)
  retained_words : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
  mailbox_max : int;
  attempted : int;
  failed : int;
  counters : (string * float) list;
      (** deterministic for a seed, traced or not *)
  metric_counters : (string * float) list;
      (** from the traced run's [Shard_metrics]; deterministic too *)
  spans : Spans.t option;
  failure : string option;
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A set-up of a few milliseconds is too short to time once.  After its
   checks, an untraced repetition times up to [max_spare_setups] more
   set-ups of the same inputs, as many as fit in [spare_setup_ns], and
   throws them away.  A full major collection before each clears the
   garbage of the one before. *)
let max_spare_setups = 24
let spare_setup_ns = 50_000_000

let with_spare_setups cfg ~seed r =
  let own = r.setup_ns.(0) in
  let spare =
    Array.init
      (min max_spare_setups (spare_setup_ns / max 1 own))
      (fun _ ->
        Gc.full_major ();
        let t0 = Spans.now () in
        let t = setup cfg ~seed ~traced:false in
        let ns = Spans.now () - t0 in
        Group.shutdown t.group;
        ns)
  in
  { r with setup_ns = Array.append r.setup_ns spare }

let run_once (cfg : config) ~seed ~traced =
  let t0 = Spans.now () in
  let t = setup cfg ~seed ~traced in
  let setup_ns = Spans.now () - t0 in
  let g = t.group in
  let c = zero_counts () in
  let commit_lat = Vec.create () and read_lat = Vec.create () in
  let audited = ref [] in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  let sm_syncs, sm_appends, sm_ckpts =
    match t.metrics with
    | None -> (0, 0, 0)
    | Some m -> Sm.(wal_sync_count m, wal_append_count m, checkpoint_count m)
  in
  let gc0 = Gc.quick_stat () in
  let load_ns = run_load t c ~commit_lat ~read_lat ~audited in
  let metric_counters =
    match t.metrics with
    | None -> []
    | Some m ->
      let ckpts = Sm.checkpoint_count m - sm_ckpts in
      let syncs = Sm.wal_sync_count m - sm_syncs in
      let appends = Sm.wal_append_count m - sm_appends in
      [
        ("wal.syncs_per_commit", ratio syncs c.committed);
        ("wal.appends_per_commit", ratio appends c.committed);
        ("group_commit.batch_mean", ratio appends syncs);
        ("ckpt.count", float_of_int ckpts);
        ("ckpt.per_1k_commits", 1000. *. ratio ckpts c.committed);
      ]
  in
  t.scripts <- [||];
  t.reads <- [||];
  Gc.full_major ();
  let retained_words = (Gc.stat ()).Gc.live_words in
  (* Closing phase: each step is one more driver round. *)
  let closing = ref 0 in
  let round f =
    c.rounds <- c.rounds + 1;
    let r0 = Spans.now () in
    let x = f () in
    let r1 = Spans.now () in
    span t Spans.Round ~t0:r0 ~t1:r1 ~arg:c.rounds ~lane:0;
    closing := !closing + (r1 - r0);
    x
  in
  let timed kind f = Spans.timed t.trace kind ~arg:c.rounds f in
  (match t.tier with
  | None -> ()
  | Some tier ->
    round (fun () -> timed Spans.Sync (fun () -> Tier.sync tier));
    Option.iter fail (check_replicas t tier);
    List.iter (fun r -> Option.iter fail (audit_read t r)) !audited);
  Option.iter fail (Shard_harness.run_checks t.protocol g);
  let replayed = ref 0 and from_ckpt = ref 0 in
  if cfg.recover then begin
    let before = Group.committed_count g in
    for s = 0 to cfg.shards - 1 do
      round (fun () ->
          let wal = timed Spans.Crash_shard (fun () -> Group.crash_shard g s) in
          match timed Spans.Recover_shard (fun () -> Group.recover_shard g s wal) with
          | Error f -> fail (Fmt.str "recover shard %d: %a" s Recovery.pp_failure f)
          | Ok rep -> (
            replayed := !replayed + rep.Recovery.replayed_records;
            match rep.Recovery.source with
            | Recovery.From_checkpoint _ -> incr from_ckpt
            | Recovery.Full_replay -> ()));
      if Group.committed_count g <> before then
        fail (Fmt.str "committed count changed recovering shard %d" s)
    done;
    Option.iter (fun m -> fail ("after recovery: " ^ m)) (Shard_harness.run_checks t.protocol g)
  end;
  let mailbox_max =
    List.fold_left max 0 (List.init cfg.shards (Group.mailbox_max_depth g))
  in
  Group.shutdown g;
  let gc1 = Gc.quick_stat () in
  if c.committed + c.gave_up + c.lost <> cfg.jobs then fail "jobs unaccounted for";
  let segments = match t.tier with Some tier -> Tier.segments_shipped tier | None -> 0 in
  let resyncs = match t.tier with Some tier -> Tier.resyncs tier | None -> 0 in
  let n = float_of_int in
  {
    setup_ns = [| setup_ns |];
    load_ns;
    wall_ns = load_ns + !closing;
    commit_lat = Vec.to_array commit_lat;
    read_lat = Vec.to_array read_lat;
    retained_words;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
    mailbox_max;
    attempted = cfg.jobs + c.reads;
    failed = c.gave_up + c.lost + c.read_errors;
    counters =
      [
        ("grant.invocations_per_commit", ratio c.invocations c.committed);
        ("grant.granted_frac", ratio c.granted c.invocations);
        ("grant.waits_per_commit", ratio c.waits c.committed);
        ("txn.restarts_per_commit", ratio c.restarts c.committed);
        ("txn.aborts_deadlock", n c.deadlocks);
        ("txn.aborts_starved", n c.starved);
        ("txn.aborts_refused", n c.refused);
        ("txn.gave_up", n c.gave_up);
        ("txn.multi_shard_frac", ratio c.multi c.committed);
        ("txn.committed", n c.committed);
        ("recovery.records_replayed", n !replayed);
        ("recovery.from_checkpoint", n !from_ckpt);
        ("tier.read_waited_frac", ratio c.reads_waited c.reads);
        ("tier.read_bounced_frac", ratio c.reads_bounced c.reads);
        ("tier.segments_per_commit", ratio segments c.committed);
        ("tier.resyncs", n resyncs);
        ("driver.rounds", n c.rounds);
        ("driver.waves", n c.waves);
      ];
    metric_counters;
    spans = t.trace;
    failure = !failure;
  }

let run cfg ~seed ~traced =
  let r = run_once cfg ~seed ~traced in
  if traced then r else with_spare_setups cfg ~seed r
