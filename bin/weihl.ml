(* The command-line front end.

     weihl check HISTORY.txt --spec x=intset
     weihl sim --protocol escrow --workload hot --clients 16
     weihl census
     weihl tpc --participants 4 --crash mid:1
     weihl faults --schedules 50 --quick

   See `weihl --help` and each subcommand's `--help`. *)

open Core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Specification registry (catalogue + inference live in the library)  *)
(* ------------------------------------------------------------------ *)

(* Input the program rejects — an unknown name, a bad option
   combination, a file it cannot read or parse — raises [Bad_input]:
   [main] prints it as one line and exits 1.  A [Failure] raised by the
   library stays an internal error. *)
exception Bad_input of string

let bad_input fmt = Fmt.kstr (fun msg -> raise (Bad_input msg)) fmt

(* Counts and rates are checked here, before the library sees them: a
   value it would reject with [Invalid_argument] is rejected input. *)
let at_least lo option n =
  if n < lo then bad_input "--%s must be at least %d, not %d" option lo n

let positive option x =
  if not (x > 0.) then bad_input "--%s must be positive, not %g" option x

(* A [Sys_error] reason without the path it usually starts with:
   "PATH: No such file ..." *)
let sys_reason path reason =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix reason then
    String.sub reason (String.length prefix)
      (String.length reason - String.length prefix)
  else reason

(* The contents of a file the command line names. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error reason ->
    bad_input "cannot read %s: %s" path (sys_reason path reason)

let infer_spec = Adt_registry.infer_spec

let build_env history spec_bindings =
  let explicit =
    List.fold_left
      (fun env (obj, name) ->
        match Adt_registry.find name with
        | Some spec -> Spec_env.add (Object_id.v obj) spec env
        | None -> bad_input "unknown ADT %s (try --list-adts)" name)
      Spec_env.empty spec_bindings
  in
  List.fold_left
    (fun env obj ->
      match Spec_env.find env obj with
      | Some _ -> env
      | None -> (
        let ops =
          List.filter_map
            (function
              | Event.Invoke (_, x, op) when Object_id.equal x obj -> Some op
              | _ -> None)
            (History.to_list history)
        in
        match infer_spec ops with
        | Some spec -> Spec_env.add obj spec env
        | None ->
          bad_input
            "cannot infer a specification for object %a; pass --spec %a=ADT"
            Object_id.pp obj Object_id.pp obj))
    explicit (History.objects history)

(* ------------------------------------------------------------------ *)
(* weihl check                                                         *)
(* ------------------------------------------------------------------ *)

let check_cmd file spec_bindings mode_name =
  let contents = read_file file in
  match Notation.history_of_string contents with
  | Error e -> Fmt.epr "parse error: %a@." Notation.pp_error e; 1
  | Ok h ->
    let mode =
      match mode_name with
      | "base" -> Wellformed.Base
      | "static" -> Wellformed.Static
      | "hybrid" -> Wellformed.Hybrid
      | m -> bad_input "unknown mode %s (base|static|hybrid)" m
    in
    let env = build_env h spec_bindings in
    Fmt.pr "history: %d events, %d activities, %d objects@." (History.length h)
      (List.length (History.activities h))
      (List.length (History.objects h));
    (match Wellformed.check mode h with
    | Ok () -> Fmt.pr "well-formed (%s): yes@." mode_name
    | Error vs ->
      Fmt.pr "well-formed (%s): NO@." mode_name;
      List.iter (fun v -> Fmt.pr "  - %a@." Wellformed.pp_violation v) vs);
    Fmt.pr "atomic:          %b@." (Atomicity.atomic env h);
    (match Atomicity.serialization_witness env h with
    | Some order ->
      Fmt.pr "  witness order: %a@."
        Fmt.(list ~sep:(any "-") Activity.pp)
        order
    | None -> ());
    Fmt.pr "dynamic atomic:  %b@." (Atomicity.dynamic_atomic env h);
    (match History.timestamp_order h with
    | Some _ ->
      Fmt.pr "static atomic:   %b@." (Atomicity.static_atomic env h);
      Fmt.pr "hybrid atomic:   %b@." (Atomicity.hybrid_atomic env h)
    | None ->
      Fmt.pr "static/hybrid:   n/a (no timestamps on committed activities)@.");
    0

(* ------------------------------------------------------------------ *)
(* weihl sim                                                           *)
(* ------------------------------------------------------------------ *)

(* Write [contents] and a final newline to [path].  A path that cannot
   be written ends the run with a one-line error and exit code 1. *)
let write_file path contents =
  try
    Out_channel.with_open_text path (fun oc ->
        output_string oc contents;
        output_string oc "\n")
  with Sys_error reason ->
    Fmt.epr "weihl: cannot write %s: %s@." path (sys_reason path reason);
    exit 1

(* Each workload with its ADT and the catalog protocol [--protocol
   escrow] selects for it: the data-dependent object for that ADT. *)
let sim_workloads =
  let account = (module Bank_account : Adt_sig.S) in
  [
    ("banking", account, "escrow", fun () -> Workload.banking ());
    ("hot", account, "escrow", fun () -> Workload.hot_withdrawals ());
    ("set", (module Intset), "da_set", fun () -> Workload.set_ops ());
    ("kv", (module Kv_map), "da_kv", fun () -> Workload.kv_ops ());
    ( "semiqueue",
      (module Semiqueue),
      "da_semiqueue",
      fun () -> Workload.semiqueue_producers_consumers () );
  ]

let sim_cmd protocol workload clients duration seed dump trace metrics =
  at_least 0 "clients" clients;
  at_least 0 "duration" duration;
  let adt, data_dependent, workload =
    match List.find_opt (fun (w, _, _, _) -> w = workload) sim_workloads with
    | Some (_, adt, dd, w) -> (adt, dd, w)
    | None ->
      bad_input "unknown workload %s (banking|hot|set|kv|semiqueue)" workload
  in
  let proto =
    match (Fault_harness.generic protocol adt workload, protocol) with
    | Some p, _ -> p
    | None, "escrow" ->
      let p = Option.get (Fault_harness.find_protocol data_dependent) in
      { p with workload }
    | None, p -> bad_input "unknown protocol %s" p
  in
  let w = proto.Fault_harness.workload () in
  let sys = Fault_harness.system proto w.Workload.objects in
  let config = { Driver.default_config with clients; duration; seed } in
  let recorder =
    if trace <> None || metrics then Some (Obs.Recorder.create ()) else None
  in
  let probe = Option.map Obs.Recorder.sink recorder in
  let o = Driver.run ~config ?probe sys w in
  Fmt.pr "%a@." Driver.pp_outcome o;
  Fmt.pr "@.by label: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
    o.Driver.committed_by_label;
  (match (recorder, metrics) with
  | Some r, true -> Fmt.pr "@.%s@." (Obs.Recorder.report r)
  | _ -> ());
  (match (recorder, trace) with
  | Some r, Some path ->
    write_file path (Obs.Recorder.export_trace r);
    Fmt.pr "trace written to %s (open in ui.perfetto.dev or chrome://tracing)@."
      path
  | _ -> ());
  (match dump with
  | Some path ->
    write_file path (Notation.history_to_string (System.history sys));
    Fmt.pr "history written to %s@." path
  | None -> ());
  0

(* ------------------------------------------------------------------ *)
(* weihl census                                                        *)
(* ------------------------------------------------------------------ *)

let census_cmd () =
  let c = Optimality.census () in
  Fmt.pr "well-formed: %d  atomic: %d  dynamic: %d  static: %d@."
    c.Optimality.well_formed c.Optimality.atomic c.Optimality.dynamic
    c.Optimality.static;
  0

(* ------------------------------------------------------------------ *)
(* weihl recover                                                       *)
(* ------------------------------------------------------------------ *)

let recover_cmd file protocol order_name =
  let contents = read_file file in
  let order =
    match order_name with
    | "commit" -> Recovery.Commit_order
    | "timestamp" -> Recovery.Timestamp_order
    | o -> bad_input "unknown order %s (commit|timestamp)" o
  in
  let policy, make =
    match protocol with
    | "generic" -> (`None_, fun log x spec -> Da_generic.make log x spec)
    | "multiversion" ->
      (`Static, fun log x spec -> Multiversion.make log x spec)
    | p -> bad_input "unknown recovery protocol %s (generic|multiversion)" p
  in
  match Notation.history_of_string contents with
  | Error e ->
    Fmt.epr "parse error: %a@." Notation.pp_error e;
    1
  | Ok h ->
    let sys = System.create ~policy () in
    let log = System.log sys in
    (* Build one object per object in the log; infer ADTs as in
       check. *)
    List.iter
      (fun obj ->
        let ops =
          List.filter_map
            (function
              | Event.Invoke (_, o, op) when Object_id.equal o obj -> Some op
              | _ -> None)
            (History.to_list h)
        in
        match infer_spec ops with
        | None ->
          bad_input "cannot infer a specification for %a" Object_id.pp obj
        | Some spec -> System.add_object sys (make log obj spec))
      (History.objects h);
    (match Recovery.replay order sys h with
    | Ok r ->
      Fmt.pr "recovered %d committed transactions@." r.Recovery.replayed;
      Fmt.pr "replayed history:@.%a@." History.pp (System.history sys);
      0
    | Error f ->
      Fmt.epr "recovery failed: %a@." Recovery.pp_failure f;
      1)

(* ------------------------------------------------------------------ *)
(* weihl explore                                                       *)
(* ------------------------------------------------------------------ *)

let explore_cmd () =
  (* A built-in demonstration scope: the Section 5.1 bank scripts under
     the escrow protocol, every schedule model-checked. *)
  let y = Object_id.v "acct" in
  let env = Spec_env.of_list [ (y, Bank_account.spec) ] in
  let histories =
    Explore.all_histories
      ~make_system:(fun () ->
        let sys = System.create () in
        System.add_object sys (Escrow_account.make (System.log sys) y);
        let t = System.begin_txn sys (Activity.update "seed") in
        ignore (System.invoke sys t y (Bank_account.deposit 10));
        System.commit sys t;
        sys)
      [
        (`Update, [ (y, Bank_account.withdraw 4) ]);
        (`Update, [ (y, Bank_account.withdraw 3); (y, Bank_account.deposit 1) ]);
        (`Update, [ (y, Bank_account.balance) ]);
      ]
  in
  let ok =
    List.for_all (fun h -> Atomicity.dynamic_atomic env h) histories
  in
  Fmt.pr
    "explored every schedule of 3 bank transactions under escrow:@.\
     %d distinct histories, all dynamic atomic: %b@."
    (List.length histories) ok;
  if ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* weihl tpc                                                           *)
(* ------------------------------------------------------------------ *)

let tpc_cmd participants crash no_voter seed metrics =
  at_least 0 "participants" participants;
  let coordinator_crash =
    match crash with
    | "none" -> Tpc.No_crash
    | "before" -> Tpc.Before_prepare
    | "after" -> Tpc.After_prepare
    | s -> (
      let k =
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "mid" ->
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        | _ -> None
      in
      match k with
      | Some k -> Tpc.Mid_decision k
      | None -> bad_input "unknown crash point %s (none|before|after|mid:K)" s)
  in
  let votes =
    List.init participants (fun i ->
        if Some i = no_voter then Tpc.No else Tpc.Yes)
  in
  let cfg =
    {
      Tpc.default_config with
      participants;
      site_clocks = List.init participants (fun i -> i * 3);
      votes;
      coordinator_crash;
      seed;
    }
  in
  let reg = if metrics then Some (Obs.Metrics.Registry.create ()) else None in
  let o = Tpc.run ?metrics:reg cfg in
  Fmt.pr "%a@." Tpc.pp_outcome o;
  Fmt.pr "atomic commitment: %b@." (Tpc.atomic_commitment o);
  (match reg with
  | Some r -> Fmt.pr "@.%s@." (Obs.Metrics.Registry.render_text r)
  | None -> ());
  0

(* ------------------------------------------------------------------ *)
(* weihl faults                                                        *)
(* ------------------------------------------------------------------ *)

let write_json path json =
  write_file path (Obs.Json.to_string json);
  Fmt.pr "report written to %s@." path

(* The long-soak mode: one checkpointing shard group lives through
   [cycles] crash→recover cycles with seeded checkpoint damage.  The
   per-cycle recovery report goes to [--report] for CI artifacts. *)
let soak_to_json (r : Shard_harness.soak_report) =
  let num n = Obs.Json.Num (float_of_int n) in
  let cycle (c : Shard_harness.cycle_report) =
    Obs.Json.Obj
      [
        ("cycle", num c.Shard_harness.cycle);
        ("victim", num c.Shard_harness.victim);
        ( "ckpt_fault",
          Obs.Json.Str
            (Fmt.str "%a" Shard_plan.pp_ckpt c.Shard_harness.ckpt_fault) );
        ("committed", num c.Shard_harness.cycle_committed);
        ( "source",
          Obs.Json.Str (Fmt.str "%a" Recovery.pp_source c.Shard_harness.source)
        );
        ( "fallbacks",
          Obs.Json.List
            (List.map
               (fun f -> Obs.Json.Str f)
               c.Shard_harness.fallbacks) );
        ("wal_records", num c.Shard_harness.wal_records);
        ("replayed", num c.Shard_harness.replayed);
        ("replay_bound", num c.Shard_harness.replay_bound);
        ( "verdict",
          Obs.Json.Str
            (Fmt.str "%a" Fault_sweep.pp_verdict c.Shard_harness.cycle_verdict)
        );
      ]
  in
  Obs.Json.Obj
    [
      ("protocol", Obs.Json.Str r.Shard_harness.soak_protocol);
      ("cycles", num r.Shard_harness.cycles_run);
      ("committed", num r.Shard_harness.soak_committed);
      ("diverged", num r.Shard_harness.soak_diverged);
      ("bound_violations", num r.Shard_harness.bound_violations);
      ("checkpoint_recoveries", num r.Shard_harness.checkpoint_recoveries);
      ("full_replays", num r.Shard_harness.full_replays);
      ("loud_fallbacks", num r.Shard_harness.loud_fallbacks);
      ( "cycle_reports",
        Obs.Json.List (List.map cycle r.Shard_harness.cycle_reports) );
    ]

let soak_cmd cycles seed report verbose =
  let config =
    { Shard_harness.default_soak with soak_seed = seed; cycles }
  in
  let r = Shard_harness.run_soak ~config () in
  if verbose then
    List.iter
      (fun c -> Fmt.pr "%a@." Shard_harness.pp_cycle c)
      r.Shard_harness.cycle_reports;
  Fmt.pr "%a@." Shard_harness.pp_soak r;
  (match report with
  | Some path -> write_json path (soak_to_json r)
  | None -> ());
  match Shard_harness.soak_divergences r with
  | [] -> 0
  | ds ->
    Fmt.epr "@.divergent cycles:@.";
    List.iter (fun c -> Fmt.epr "  %a@." Shard_harness.pp_cycle c) ds;
    1

(* The protocol [name] of [protocols]; an unknown name lists them. *)
let find_in ~what protocols name =
  let name_of (p : Fault_harness.protocol) = p.Fault_harness.name in
  match List.find_opt (fun p -> name_of p = name) protocols with
  | Some p -> p
  | None ->
    bad_input "unknown %s %s (one of: %s)" what name
      (String.concat ", " (List.map name_of protocols))

(* The end of every schedule sweep: each schedule under --verbose, the
   summary and [epilogue], the JSON report if one is asked for, then
   the divergent schedules on stderr and exit code 1 if there are
   any. *)
let report_sweep ~verbose ~pp_result ?(pp_summary = Fault_sweep.pp_summary)
    ?(epilogue = "") ?json (s : _ Fault_sweep.summary) =
  if verbose then
    List.iter (fun r -> Fmt.pr "%a@." pp_result r) s.Fault_sweep.results;
  Fmt.pr "%a@.%s" pp_summary s epilogue;
  Option.iter (fun (path, json) -> write_json path json) json;
  match s.Fault_sweep.divergences with
  | [] -> 0
  | ds ->
    Fmt.epr "@.divergent schedules:@.";
    List.iter (fun r -> Fmt.epr "  %a@." pp_result r) ds;
    1

let faults_cmd schedules quick base_seed protocol verbose soak report =
  at_least 0 "schedules" schedules;
  Option.iter (at_least 0 "soak") soak;
  match soak with
  | Some cycles -> soak_cmd cycles base_seed report verbose
  | None ->
  let protocols =
    match protocol with
    | Some name -> [ find_in ~what:"protocol" Fault_harness.catalog name ]
    | None -> Fault_harness.catalog
  in
  Fault_sweep.run
    ~verdict:(fun r -> r.Fault_harness.verdict)
    ~plan:Fault_plan.generate
    (Fault_harness.run_schedule ~quick)
    protocols
    (List.init schedules (fun i -> base_seed + i))
  |> report_sweep ~verbose ~pp_result:Fault_harness.pp_result

(* ------------------------------------------------------------------ *)
(* weihl shard                                                         *)
(* ------------------------------------------------------------------ *)

let find_sharded_protocol =
  find_in ~what:"sharded protocol" Shard_harness.protocols

let shard_sweep_to_json (s : Shard_harness.schedule_result Fault_sweep.summary)
    =
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("schedules", num s.Fault_sweep.schedules);
      ("converged", num s.Fault_sweep.converged);
      ("corruption_detected", num s.Fault_sweep.corruption_detected);
      ("diverged", num (List.length s.Fault_sweep.divergences));
      ( "divergent",
        Obs.Json.List
          (List.map
             (fun r -> Obs.Json.Str (Fmt.str "%a" Shard_harness.pp_result r))
             s.Fault_sweep.divergences) );
    ]

(* The replication face of the shard payload: per-replica apply lag
   (records and virtual time) and the group-wide promotion / resync /
   stale-bounce counters, read back out of Obs.Shard_metrics, plus the
   tier's own channel counters. *)
let replication_fields sm tier =
  match (sm, tier) with
  | Some m, Some t when Obs.Shard_metrics.replica_count m > 0 ->
    let num n = Obs.Json.Num (float_of_int n) in
    [
      ( "replication",
        Obs.Json.Obj
          [
            ("replicas", num (Obs.Shard_metrics.replica_count m));
            ( "per_replica",
              Obs.Json.List
                (List.init
                   (Obs.Shard_metrics.replica_count m)
                   (fun i ->
                     Obs.Json.Obj
                       [
                         ( "lag_records",
                           num (Obs.Shard_metrics.replica_lag m i) );
                         ( "lag_vtime",
                           num (Obs.Shard_metrics.replica_lag_vtime m i) );
                         ( "applied",
                           num (Obs.Shard_metrics.replica_applied_count m i) );
                         ("reads", num (Obs.Shard_metrics.replica_reads m i));
                       ])) );
            ("promotions", num (Obs.Shard_metrics.promotion_count m));
            ("resyncs", num (Obs.Shard_metrics.resync_count m));
            ("stale_bounces", num (Obs.Shard_metrics.stale_bounce_count m));
            ("segments_shipped", num (Replica_tier.segments_shipped t));
            ("damaged_segments", num (Replica_tier.damaged_segments t));
            ("fenced_segments", num (Replica_tier.fenced_segments t));
            ("reads_primary", num (Replica_tier.reads_primary t));
            ( "channel",
              Obs.Json.Obj
                [
                  ("dropped", num (Replica_tier.channel_dropped t));
                  ("duplicated", num (Replica_tier.channel_duplicated t));
                  ("reordered", num (Replica_tier.channel_reordered t));
                ] );
          ] );
    ]
  | _ -> []

let drill_report_to_json (s : Replica_drill.schedule_report Fault_sweep.summary)
    =
  let num n = Obs.Json.Num (float_of_int n) in
  let r = Replica_drill.totals s in
  Obs.Json.Obj
    [
      ("schedules", num s.Fault_sweep.schedules);
      ("committed", num r.Replica_drill.r_committed);
      ("reads", num r.Replica_drill.r_reads);
      ("replica_served", num r.Replica_drill.r_replica_served);
      ("bounced", num r.Replica_drill.r_bounced);
      ("unavailable", num r.Replica_drill.r_unavailable);
      ("lost_commits", num r.Replica_drill.r_lost);
      ("stale_served", num r.Replica_drill.r_stale);
      ("promotions", num r.Replica_drill.r_promotions);
      ("resyncs", num r.Replica_drill.r_resyncs);
      ("damaged_segments", num r.Replica_drill.r_damaged);
      ("diverged", num (List.length s.Fault_sweep.divergences));
      ( "divergent",
        Obs.Json.List
          (List.map
             (fun d -> Obs.Json.Str (Fmt.str "%a" Replica_drill.pp_schedule d))
             s.Fault_sweep.divergences) );
    ]

(* Histogram summaries for the machine-readable shard payloads. *)
let shard_metrics_fields sm =
  match sm with
  | None -> []
  | Some m ->
    [
      ( "shard_fanout",
        Obs.Metrics.Histogram.to_json (Obs.Shard_metrics.fanout m) );
      ( "group_commit",
        Obs.Json.Obj
          [
            ( "batch_size",
              Obs.Metrics.Histogram.to_json
                (Obs.Shard_metrics.group_commit_batch m) );
            ( "wal_appends",
              Obs.Json.Num
                (float_of_int (Obs.Shard_metrics.wal_append_count m)) );
            ( "wal_syncs",
              Obs.Json.Num (float_of_int (Obs.Shard_metrics.wal_sync_count m))
            );
            ( "syncs_per_commit",
              Obs.Json.Num (Obs.Shard_metrics.syncs_per_commit m) );
          ] );
      ( "mailbox_depth_max",
        Obs.Json.List
          (List.init
             (Obs.Shard_metrics.shard_count m)
             (fun s -> Obs.Json.Num (Obs.Shard_metrics.mailbox_depth m s))) );
      ( "checkpoint",
        Obs.Json.Obj
          [
            ( "writes",
              Obs.Json.Num
                (float_of_int (Obs.Shard_metrics.checkpoint_count m)) );
            ( "write_duration",
              Obs.Metrics.Histogram.to_json (Obs.Shard_metrics.checkpoint_write m)
            );
            ("age_records", Obs.Json.Num (Obs.Shard_metrics.checkpoint_age m));
          ] );
      ( "recovery",
        Obs.Json.Obj
          [
            ( "count",
              Obs.Json.Num (float_of_int (Obs.Shard_metrics.recovery_count m))
            );
            ( "duration",
              Obs.Metrics.Histogram.to_json
                (Obs.Shard_metrics.recovery_duration m) );
            ( "records_replayed",
              Obs.Metrics.Histogram.to_json
                (Obs.Shard_metrics.recovery_records m) );
          ] );
    ]

let window_to_json (w : Sharded_driver.window) =
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("start", num w.Sharded_driver.w_start);
      ("arrivals", num w.Sharded_driver.w_arrivals);
      ("committed", num w.Sharded_driver.w_committed);
      ("aborted", num w.Sharded_driver.w_aborted);
      ("p50", Obs.Json.Num w.Sharded_driver.w_p50);
      ("p99", Obs.Json.Num w.Sharded_driver.w_p99);
    ]

(* Every driver run, closed, open or round loop, renders the same way.
   Throughput comes twice: per 1000 virtual ticks (or rounds) —
   deterministic — and per wall-clock second. *)
let outcome_to_json ?(extra = []) shards (o : Sharded_driver.outcome) =
  let num n = Obs.Json.Num (float_of_int n) in
  let per_second =
    if o.Sharded_driver.elapsed > 0. then
      float_of_int o.Sharded_driver.committed /. o.Sharded_driver.elapsed
    else 0.
  in
  Obs.Json.Obj
    ([
       ("shards", num shards);
       ("started", num o.Sharded_driver.started);
       ("committed", num o.Sharded_driver.committed);
       ("committed_read_only", num o.Sharded_driver.committed_read_only);
       ("committed_multi", num o.Sharded_driver.committed_multi);
       ("aborted_deadlock", num o.Sharded_driver.aborted_deadlock);
       ("aborted_refused", num o.Sharded_driver.aborted_refused);
       ("aborted_starved", num o.Sharded_driver.aborted_starved);
       ("aborted_tpc", num o.Sharded_driver.aborted_tpc);
       ("gave_up", num o.Sharded_driver.gave_up);
       ("in_doubt", num o.Sharded_driver.in_doubt);
       ("in_flight", num (Sharded_driver.in_flight o));
       ("waits", num o.Sharded_driver.waits);
       ("restarts", num o.Sharded_driver.restarts);
       ("ticks", num o.Sharded_driver.ticks);
       ( "throughput_per_1000",
         Obs.Json.Num
           (1000.
           *. float_of_int o.Sharded_driver.committed
           /. float_of_int (max 1 o.Sharded_driver.ticks)) );
       ("elapsed_s", Obs.Json.Num o.Sharded_driver.elapsed);
       ("throughput_txn_s", Obs.Json.Num per_second);
       ( "latency",
         Obs.Metrics.Histogram.to_json (Sharded_driver.latency o) );
       ( "shard_latency",
         Obs.Json.List
           (Array.to_list
              (Array.map Obs.Metrics.Histogram.to_json
                 o.Sharded_driver.shard_latency)) );
       ( "windows",
         Obs.Json.List (List.map window_to_json o.Sharded_driver.windows) );
     ]
    @ extra)

let shard_cmd shards domains replicas clients duration seed protocol faults
    schedules quick verbose metrics json trace open_loop rate sweep zipf hot
    hot_keys window mcore jobs inflight sync_us checkpoint_every archive =
  at_least 1 "shards" shards;
  at_least 1 "domains" domains;
  at_least 0 "replicas" replicas;
  at_least 0 "clients" clients;
  at_least 0 "duration" duration;
  at_least 0 "schedules" schedules;
  at_least 1 "hot-keys" hot_keys;
  at_least 1 "window" window;
  at_least 0 "jobs" jobs;
  at_least 1 "inflight" inflight;
  at_least 0 "sync-us" sync_us;
  Option.iter (at_least 1 "checkpoint-every") checkpoint_every;
  positive "rate" rate;
  List.iter (positive "sweep") sweep;
  Option.iter
    (fun theta ->
      if not (theta >= 0.) then
        bad_input "--zipf must be at least 0, not %g" theta)
    zipf;
  Option.iter
    (fun h ->
      if not (h >= 0. && h <= 1.) then
        bad_input "--hot must be a fraction in [0, 1], not %g" h)
    hot;
  if faults then begin
    let protocols =
      match protocol with
      | Some name -> [ find_sharded_protocol name ]
      | None -> Shard_harness.protocols
    in
    let summary =
      Fault_sweep.run
        ~verdict:(fun r -> r.Shard_harness.verdict)
        ~plan:Shard_plan.generate
        (Shard_harness.run_schedule ~quick ~shards)
        protocols
        (List.init schedules (fun i -> seed + i))
    in
    report_sweep ~verbose ~pp_result:Shard_harness.pp_result
      ?json:(Option.map (fun p -> (p, shard_sweep_to_json summary)) json)
      summary
  end
  else begin
    let proto =
      find_sharded_protocol (Option.value protocol ~default:"escrow")
    in
    let w0 = proto.Fault_harness.workload () in
    let key_dist =
      match (zipf, hot) with
      | Some _, Some _ -> bad_input "--zipf and --hot are mutually exclusive"
      | Some theta, None -> Some (fun n -> Workload.zipf ~theta ~n)
      | None, Some h -> Some (fun n -> Workload.hotspot ~hot:h ~hot_keys ~n)
      | None, None -> None
    in
    let w =
      match key_dist with
      | None -> w0
      | Some mk ->
        if w0.Workload.name <> "banking" then
          bad_input "--zipf/--hot apply to the banking workload only";
        let n = List.length w0.Workload.objects in
        Workload.banking ~accounts:n ~key_dist:(mk n) ()
    in
    let checkpoint =
      Option.map
        (fun every -> { Shard_group.every; archive })
        checkpoint_every
    in
    if archive && checkpoint = None then
      bad_input "--archive needs --checkpoint-every";
    let mk_group ?group_commit ?sync_cost ~with_metrics () =
      let sm =
        if with_metrics then
          Some (Obs.Shard_metrics.create ~replicas ~shards ())
        else None
      in
      let group =
        Shard_harness.group ?metrics:sm ~seed ~domains ?group_commit
          ?sync_cost ?checkpoint ~shards proto w.Workload.objects
      in
      (group, sm)
    in
    let domains_field group =
      ("domains", Obs.Json.Num (float_of_int (Shard_group.domain_count group)))
    in
    let write_trace st =
      match trace with
      | None -> ()
      | Some path ->
        write_file path (Obs.Shard_trace.export st);
        Fmt.pr
          "trace written to %s (weihl trace analyze %s; or load in \
           ui.perfetto.dev)@."
          path path
    in
    let report_metrics sm =
      match sm with
      | Some m when metrics -> Fmt.pr "@.%s@." (Obs.Shard_metrics.render m)
      | _ -> ()
    in
    if mcore then begin
      (* The wall-clock batched runtime: group commit on, a simulated
         device sync per shard, shards spread over --domains domains.
         Results are domain-count independent; only the elapsed time
         changes. *)
      let group, sm =
        mk_group ~group_commit:true
          ~sync_cost:(fun () -> Unix.sleepf (float_of_int sync_us *. 1e-6))
          ~with_metrics:(metrics || Option.is_some json)
          ()
      in
      let config =
        { Sharded_driver.default_config with jobs; inflight; window; seed }
      in
      let o = Sharded_driver.run_rounds ~config group w in
      Fmt.pr "%a@." Sharded_driver.pp o;
      Fmt.pr "domains: %d over %d shards, sync cost %dus@."
        (Shard_group.domain_count group)
        shards sync_us;
      report_metrics sm;
      (match json with
      | Some path ->
        write_json path
          (outcome_to_json
             ~extra:(domains_field group :: shard_metrics_fields sm)
             shards o)
      | None -> ());
      let rc = if Shard_group.in_doubt_count group = 0 then 0 else 1 in
      Shard_group.shutdown group;
      rc
    end
    else if open_loop then begin
      let cfg rate =
        {
          Sharded_driver.default_config with
          arrivals = Poisson rate;
          duration;
          window;
          seed;
        }
      in
      let offered rate = ("offered_per_1000", Obs.Json.Num (rate *. 1000.)) in
      if sweep <> [] then begin
        (* Rate sweep: a fresh group per offered load, same seed and
           workload, so the knee curve is deterministic per seed. *)
        let curve =
          List.map
            (fun r ->
              let group, _ = mk_group ~with_metrics:false () in
              let o = Sharded_driver.run ~config:(cfg r) group w in
              Shard_group.shutdown group;
              (r, o))
            sweep
        in
        Fmt.pr "open-loop rate sweep (%d ticks, window %d):@." duration window;
        Fmt.pr "%10s %9s %9s %10s %8s %8s %8s@." "rate/1kt" "arrivals"
          "commit" "thru/1kt" "p50" "p99" "abort%";
        List.iter
          (fun (r, (o : Sharded_driver.outcome)) ->
            let thru =
              1000.
              *. float_of_int o.Sharded_driver.committed
              /. float_of_int o.Sharded_driver.ticks
            in
            let ab =
              if o.Sharded_driver.started = 0 then 0.
              else
                100.
                *. float_of_int (o.Sharded_driver.gave_up + o.Sharded_driver.in_doubt)
                /. float_of_int o.Sharded_driver.started
            in
            let latency = Sharded_driver.latency o in
            Fmt.pr "%10.1f %9d %9d %10.1f %8.1f %8.1f %7.1f%%@." (r *. 1000.)
              o.Sharded_driver.started o.Sharded_driver.committed thru
              (Obs.Metrics.Histogram.percentile latency 50.)
              (Obs.Metrics.Histogram.percentile latency 99.)
              ab)
          curve;
        (match json with
        | Some path ->
          write_json path
            (Obs.Json.Obj
               [
                 ( "sweep",
                   Obs.Json.List
                     (List.map
                        (fun (r, o) ->
                          outcome_to_json ~extra:[ offered r ] shards o)
                        curve) );
               ])
        | None -> ());
        0
      end
      else begin
        let group, sm =
          mk_group ~with_metrics:(metrics || Option.is_some json) ()
        in
        let tracer =
          Option.map (fun _ -> Obs.Shard_trace.create ~shards) trace
        in
        let o = Sharded_driver.run ~config:(cfg rate) ?tracer group w in
        Fmt.pr "%a@." Sharded_driver.pp o;
        report_metrics sm;
        Option.iter write_trace tracer;
        (match json with
        | Some path ->
          write_json path
            (outcome_to_json
               ~extra:
                 (offered rate :: domains_field group :: shard_metrics_fields sm)
               shards o)
        | None -> ());
        let rc = if o.Sharded_driver.in_doubt = 0 then 0 else 1 in
        Shard_group.shutdown group;
        rc
      end
    end
    else begin
      let sm' = metrics || Option.is_some json || replicas > 0 in
      let group, sm = mk_group ~with_metrics:sm' () in
      let tier =
        if replicas = 0 then None
        else begin
          if domains > 1 then
            bad_input
              "--replicas needs --domains 1 (the tier's watermark cut relies \
               on the sequential mode)";
          Some
            (Replica_tier.create ?metrics:sm ~seed ~replicas
               ~make_object:proto.Fault_harness.make_object group)
        end
      in
      (* Ship on every commit: the tier cuts and delivers a segment per
         live shard and replica, so replicas trail the primary by at
         most one commit's worth of records during the run. *)
      let on_commit =
        Option.map
          (fun t g gt ~nth_multi:_ ->
            Shard_group.commit g gt;
            Replica_tier.pump t)
          tier
      in
      let tracer =
        Option.map (fun _ -> Obs.Shard_trace.create ~shards) trace
      in
      let config =
        {
          Sharded_driver.default_config with
          arrivals = Clients clients;
          duration;
          window;
          seed;
        }
      in
      let o = Sharded_driver.run ~config ?tracer ?on_commit group w in
      Fmt.pr "%a@." Sharded_driver.pp o;
      Fmt.pr "objects: %d over %d shards, 2pc rounds: %d@."
        (List.length (Shard_group.objects group))
        shards
        (Shard_group.tpc_rounds group);
      (match checkpoint with
      | Some _ ->
        List.init shards (fun s ->
            ( List.length (Shard_group.checkpoint_files group s),
              Shard_group.wal_base group s ))
        |> List.iteri (fun s (files, base) ->
               Fmt.pr "shard %d: %d checkpoint(s) retained, wal truncated at \
                       record %d@."
                 s files base)
      | None -> ());
      (match tier with
      | None -> ()
      | Some t ->
        Replica_tier.sync t;
        (* A read batch through the tier, so the run demonstrates the
           snapshot path — timestamp-policy protocols only; under
           `None_ there are no initiation timestamps to read at. *)
        (if proto.Fault_harness.policy <> `None_ then begin
           let rng = Rng.create ((seed * 131) + 7) in
           let served = ref 0 and bounced = ref 0 in
           for _ = 1 to 8 * replicas do
             match Workload.read_steps w rng with
             | None -> ()
             | Some steps -> (
               match Replica_tier.read t steps with
               | Ok ro ->
                 (match ro.Replica_tier.serve with
                 | Replica_tier.Served_replica _ -> incr served
                 | Replica_tier.Served_primary -> ());
                 if ro.Replica_tier.bounced then incr bounced
               | Error e -> Fmt.epr "replica read failed: %s@." e)
           done;
           Fmt.pr "snapshot reads: %d replica-served, %d bounced to primary@."
             !served !bounced
         end
         else
           Fmt.pr
             "snapshot reads skipped: protocol %s has no initiation \
              timestamps (try --protocol hybrid)@."
             proto.Fault_harness.name);
        Fmt.pr "@.%s@." (Replica_tier.render t));
      report_metrics sm;
      Option.iter write_trace tracer;
      (match json with
      | Some path ->
        write_json path
          (outcome_to_json
             ~extra:
               ((domains_field group :: shard_metrics_fields sm)
               @ replication_fields sm tier)
             shards o)
      | None -> ());
      let rc = if o.Sharded_driver.in_doubt = 0 then 0 else 1 in
      Shard_group.shutdown group;
      rc
    end
  end

(* ------------------------------------------------------------------ *)
(* weihl replica                                                       *)
(* ------------------------------------------------------------------ *)

(* A deterministic shipping demo for the lag report: a hybrid group
   under traffic with staggered per-replica apply lag, sampled before
   the final sync so the report shows replicas actually trailing, then
   a read batch through the tier. *)
let replica_lag_demo ~shards ~replicas ~seed =
  let proto = find_sharded_protocol "hybrid" in
  let w = proto.Fault_harness.workload () in
  let sm = Obs.Shard_metrics.create ~replicas ~shards () in
  let group =
    Shard_harness.group ~metrics:sm ~seed ~shards proto w.Workload.objects
  in
  let tier =
    Replica_tier.create ~metrics:sm ~seed ~replicas
      ~make_object:proto.Fault_harness.make_object group
  in
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients 4;
      duration = 400;
      seed;
    }
  in
  ignore (Sharded_driver.run ~config group w);
  (* Ship the accumulated feed under staggered apply lag, sampling
     after a bounded pump budget so the report shows each replica at a
     different depth behind the primary. *)
  for i = 0 to replicas - 1 do
    Replica_tier.set_lag tier ~replica:i (4 * i)
  done;
  for _ = 1 to 12 do
    Replica_tier.pump tier
  done;
  let sampled =
    List.init replicas (fun i ->
        ( Replica_tier.lag_records tier ~replica:i,
          Obs.Shard_metrics.replica_lag_vtime sm i ))
  in
  Replica_tier.sync tier;
  let rng = Rng.create ((seed * 131) + 7) in
  for _ = 1 to 4 * replicas do
    match Workload.read_steps w rng with
    | None -> ()
    | Some steps -> ignore (Replica_tier.read tier steps)
  done;
  let num n = Obs.Json.Num (float_of_int n) in
  let payload =
    Obs.Json.Obj
      [
        ("shards", num shards);
        ("replicas", num replicas);
        ( "per_replica",
          Obs.Json.List
            (List.mapi
               (fun i (lag, vtime) ->
                 Obs.Json.Obj
                   [
                     ("sampled_lag_records", num lag);
                     ("sampled_lag_vtime", num vtime);
                     ( "final_lag_records",
                       num (Replica_tier.lag_records tier ~replica:i) );
                     ("applied", num (Obs.Shard_metrics.replica_applied_count sm i));
                     ("reads", num (Obs.Shard_metrics.replica_reads sm i));
                   ])
               sampled) );
        ("segments_shipped", num (Replica_tier.segments_shipped tier));
        ("resyncs", num (Replica_tier.resyncs tier));
        ("stale_bounces", num (Obs.Shard_metrics.stale_bounce_count sm));
        ("reads_primary", num (Replica_tier.reads_primary tier));
      ]
  in
  let rendered = Replica_tier.render tier in
  Shard_group.shutdown group;
  (payload, rendered)

let replica_cmd shards replicas schedules seed quick verbose json =
  at_least 1 "shards" shards;
  at_least 1 "replicas" replicas;
  at_least 0 "schedules" schedules;
  let summary =
    Fault_sweep.run
      ~verdict:(fun d -> d.Replica_drill.d_verdict)
      ~plan:Shard_plan.generate
      (Replica_drill.run_schedule ~quick ~shards ~replicas)
      Replica_drill.protocols
      (List.init schedules (fun i -> seed + i))
  in
  let demo, rendered = replica_lag_demo ~shards ~replicas ~seed in
  report_sweep ~verbose ~pp_result:Replica_drill.pp_schedule
    ~pp_summary:Replica_drill.pp_report
    ~epilogue:
      (Fmt.str "@.lag report (hybrid demo tier, staggered apply lag):@.%s@."
         rendered)
    ?json:
      (Option.map
         (fun p ->
           ( p,
             Obs.Json.Obj
               [ ("drill", drill_report_to_json summary); ("lag_demo", demo) ]
           ))
         json)
    summary

(* ------------------------------------------------------------------ *)
(* weihl trace                                                         *)
(* ------------------------------------------------------------------ *)

let trace_analyze_cmd file top json =
  let contents = read_file file in
  match Obs.Trace.parse contents with
  | Error e ->
    Fmt.epr "trace parse error: %s@." e;
    1
  | Ok evs ->
    let r = Obs.Trace_analysis.analyze evs in
    Fmt.pr "%s@?" (Obs.Trace_analysis.render ~top r);
    (match json with
    | Some path -> write_json path (Obs.Trace_analysis.to_json ~top r)
    | None -> ());
    0

(* ------------------------------------------------------------------ *)
(* weihl lint                                                          *)
(* ------------------------------------------------------------------ *)

(* Baseline gating: a committed LINT_0.json is the floor.  A protocol
   regresses when it reports more unsound findings than the snapshot
   (normally: any) or a strictly higher looseness — new protocols
   absent from the snapshot only have to be sound.  A baseline
   protocol the run did not certify regresses too, unless the run was
   restricted to another one with [--protocol]. *)
let baseline_regressions ?protocol baseline (report : Lint.report) =
  let protos =
    Option.value ~default:[]
      (Option.bind (Obs.Json.member "protocols" baseline) Obs.Json.to_list)
  in
  let name_of p = Option.bind (Obs.Json.member "protocol" p) Obs.Json.to_str in
  let certified name =
    List.exists (fun (p : Lint.protocol_cert) -> p.Lint.protocol = name)
      report.Lint.protocols
  in
  let dropped =
    List.filter_map
      (fun bj ->
        match name_of bj with
        | Some name
          when (protocol = None || protocol = Some name)
               && not (certified name) ->
          Some
            (Fmt.str "%s: in the baseline but not certified by this run" name)
        | _ -> None)
      protos
  in
  let find name = List.find_opt (fun p -> name_of p = Some name) protos in
  List.concat_map
    (fun (p : Lint.protocol_cert) ->
      match find p.Lint.protocol with
      | None -> []
      | Some bj ->
        let b_unsound =
          match
            Option.bind (Obs.Json.member "unsound" bj) Obs.Json.to_list
          with
          | Some l -> List.length l
          | None -> 0
        in
        let b_loose =
          Option.value ~default:0.
            (Option.bind (Obs.Json.member "looseness" bj) Obs.Json.to_float)
        in
        let unsound_reg =
          if List.length p.Lint.unsound > b_unsound then
            [
              Fmt.str "%s: %d unsound findings (baseline %d)" p.Lint.protocol
                (List.length p.Lint.unsound)
                b_unsound;
            ]
          else []
        in
        let loose_reg =
          if p.Lint.looseness > b_loose +. 1e-9 then
            [
              Fmt.str "%s: looseness %.4f regressed past baseline %.4f"
                p.Lint.protocol p.Lint.looseness b_loose;
            ]
          else []
        in
        unsound_reg @ loose_reg)
    report.Lint.protocols
  @ dropped

let lint_cmd protocol depth budget json baseline self_test verbose =
  at_least 0 "depth" depth;
  Option.iter (at_least 0 "budget") budget;
  if self_test then begin
    let outcomes = Lint_mutation.self_test ~depth in
    List.iter (fun o -> Fmt.pr "%a@." Lint_mutation.pp_outcome o) outcomes;
    let missed =
      List.filter (fun o -> not o.Lint_mutation.detected) outcomes
    in
    Fmt.pr "mutations: %d, detected: %d, missed: %d@." (List.length outcomes)
      (List.length outcomes - List.length missed)
      (List.length missed);
    if missed = [] then 0 else 1
  end
  else begin
    let report = Lint.run ?protocol ?budget ~depth () in
    Fmt.pr "%a@." (Lint.pp ~verbose) report;
    (* Warnings also go to stderr: a truncated or non-stabilized
       exploration must not scroll away inside the report body. *)
    List.iter (fun w -> Fmt.epr "lint: WARNING %s@." w) report.Lint.warnings;
    (match json with
    | Some path -> write_json path (Lint.to_json report)
    | None -> ());
    let regressions =
      match baseline with
      | None -> []
      | Some path -> (
        match Obs.Json.of_string (read_file path) with
        | Error e -> bad_input "cannot parse baseline %s: %s" path e
        | Ok b ->
          let rs = baseline_regressions ?protocol b report in
          List.iter (fun r -> Fmt.epr "lint: REGRESSION vs %s: %s@." path r) rs;
          if rs = [] then
            Fmt.pr "baseline %s: no unsoundness or looseness regression@." path;
          rs)
    in
    if Lint.unsound_total report = 0 && regressions = [] then 0 else 1
  end

(* ------------------------------------------------------------------ *)
(* weihl synth                                                         *)
(* ------------------------------------------------------------------ *)

let synth_cmd adt depth json verbose =
  at_least 0 "depth" depth;
  let syntheses =
    match adt with
    | None -> Synthesize.all ~depth ()
    | Some name -> (
      match Lint_domain.find name with
      | Some d -> [ Synthesize.of_domain ~depth d ]
      | None -> bad_input "unknown ADT %s (one of: %s)" name
          (String.concat ", "
             (List.map
                (fun (d : Lint_domain.t) -> d.Lint_domain.name)
                Lint_domain.all)))
  in
  List.iter
    (fun s ->
      Fmt.pr "%a@." Synthesize.pp s;
      if verbose then Fmt.pr "%a@." Synthesize.pp_matrix s)
    syntheses;
  (match json with
  | Some path ->
    write_json path
      (Obs.Json.List (List.map Synthesize.to_json syntheses))
  | None -> ());
  0

(* ------------------------------------------------------------------ *)
(* Command definitions                                                 *)
(* ------------------------------------------------------------------ *)

let spec_binding =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok
        ( String.sub s 0 i,
          String.sub s (i + 1) (String.length s - i - 1) )
    | None -> Error (`Msg "expected OBJECT=ADT")
  in
  let print ppf (o, a) = Fmt.pf ppf "%s=%s" o a in
  Arg.conv (parse, print)

let check_term =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HISTORY_FILE")
  in
  let specs =
    Arg.(
      value & opt_all spec_binding []
      & info [ "spec" ] ~docv:"OBJECT=ADT"
          ~doc:"Bind an object to an ADT (default: inferred from operations).")
  in
  let mode =
    Arg.(
      value & opt string "base"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Well-formedness regime: base, static or hybrid.")
  in
  Term.(const check_cmd $ file $ specs $ mode)

let sim_term =
  let protocol =
    Arg.(
      value & opt string "escrow"
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:
            "rw | commutativity | escrow | multiversion | hybrid.  All but \
             escrow are generic protocols over the workload's ADT; escrow \
             is the catalog's data-dependent protocol for it (escrow, \
             da_set, da_kv or da_semiqueue).")
  in
  let workload =
    Arg.(
      value & opt string "banking"
      & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc:"banking | hot | set | kv | semiqueue")
  in
  let clients = Arg.(value & opt int 8 & info [ "clients" ]) in
  let duration = Arg.(value & opt int 2000 & info [ "duration" ]) in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump-history" ] ~docv:"FILE"
          ~doc:"Write the generated history in the paper's notation.")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome-trace (Perfetto) JSON timeline of the run.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry and per-object contention report.")
  in
  Term.(
    const sim_cmd $ protocol $ workload $ clients $ duration $ seed $ dump
    $ trace $ metrics)

let census_term = Term.(const census_cmd $ const ())

let recover_term =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HISTORY_FILE")
  in
  let protocol =
    Arg.(
      value & opt string "generic"
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL" ~doc:"generic | multiversion")
  in
  let order =
    Arg.(
      value & opt string "commit"
      & info [ "order" ] ~docv:"ORDER" ~doc:"commit | timestamp")
  in
  Term.(const recover_cmd $ file $ protocol $ order)

let explore_term = Term.(const explore_cmd $ const ())

let tpc_term =
  let participants = Arg.(value & opt int 3 & info [ "participants"; "n" ]) in
  let crash =
    Arg.(
      value & opt string "none"
      & info [ "crash" ] ~docv:"POINT" ~doc:"none | before | after | mid:K")
  in
  let no_voter =
    Arg.(
      value & opt (some int) None
      & info [ "no-vote" ] ~docv:"SITE" ~doc:"Site that votes no (0-based).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print per-participant phase counters after the run.")
  in
  Term.(const tpc_cmd $ participants $ crash $ no_voter $ seed $ metrics)

let faults_term =
  let schedules =
    Arg.(
      value & opt int 200
      & info [ "schedules"; "n" ] ~docv:"N"
          ~doc:"Number of seeded fault schedules to run.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shorten the traffic phases (smoke runs).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"BASE"
          ~doc:"First seed; schedule i uses BASE+i.")
  in
  let protocol =
    Arg.(
      value & opt (some string) None
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:
            "Run every schedule against one protocol instead of \
             round-robinning the catalog.")
  in
  let verbose =
    Arg.(
      value & flag & info [ "verbose"; "v" ] ~doc:"Print every schedule result.")
  in
  let soak =
    Arg.(
      value & opt (some int) None
      & info [ "soak" ] ~docv:"CYCLES"
          ~doc:
            "Run the long-soak crash→recover harness instead of the fault \
             sweep: one checkpointing shard group lives through CYCLES \
             rounds of traffic, each ended by a shard crash with seeded \
             checkpoint damage (bit flips, torn files, marker races) and a \
             checkpoint-aware recovery.  Exit non-zero if any cycle \
             diverges, replays past its tail bound, or consumes a damaged \
             checkpoint silently.  $(b,--seed) picks the protocol and the \
             damage sequence.")
  in
  let report =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the per-cycle soak recovery report to FILE as JSON.")
  in
  Term.(
    const faults_cmd $ schedules $ quick $ seed $ protocol $ verbose $ soak
    $ report)

let shard_term =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shards in the group.")
  in
  let clients = Arg.(value & opt int 6 & info [ "clients" ]) in
  let duration = Arg.(value & opt int 1500 & info [ "duration" ]) in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let protocol =
    Arg.(
      value & opt (some string) None
      & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
          ~doc:
            "A banking protocol (rw | commutativity | escrow | rw_undo | \
             multiversion | hybrid).  Traffic runs default to escrow; fault \
             sweeps round-robin all of them unless one is named.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Run the sharded crash-recovery sweep instead of a traffic run: \
             seeded schedules injecting coordinator/participant crashes at \
             every 2PC phase plus message drop/duplication/reordering, each \
             followed by WAL recovery, in-doubt resolution and global \
             atomicity checks.  Exit non-zero on any divergence.")
  in
  let schedules =
    Arg.(
      value & opt int 200
      & info [ "schedules"; "n" ] ~docv:"N"
          ~doc:"Number of seeded fault schedules (with --faults).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shorten the traffic phases (smoke runs).")
  in
  let verbose =
    Arg.(
      value & flag & info [ "verbose"; "v" ] ~doc:"Print every schedule result.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the per-shard and 2PC metrics table after a traffic run.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable outcome or sweep summary to FILE.")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a merged cross-shard Chrome trace of the traffic run: one \
             timeline per shard plus a coordinator timeline with 2PC phase \
             spans, WAL-sync markers and coordinator/participant message \
             flow arrows.  Analyze with $(b,weihl trace analyze).")
  in
  let open_loop =
    Arg.(
      value & flag
      & info [ "open-loop" ]
          ~doc:
            "Drive seeded Poisson arrivals at a fixed offered rate instead \
             of the closed client loop, reporting a windowed time series of \
             throughput, abort causes and latency percentiles.")
  in
  let rate =
    Arg.(
      value & opt float 0.2
      & info [ "rate" ] ~docv:"R"
          ~doc:"Open-loop mean arrivals per tick (Poisson).")
  in
  let sweep =
    Arg.(
      value & opt (list float) []
      & info [ "sweep" ] ~docv:"R1,R2,.."
          ~doc:
            "Run the open-loop driver once per offered rate and print the \
             latency-vs-offered-load knee curve.")
  in
  let zipf =
    Arg.(
      value & opt (some float) None
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:
            "Skew the banking key distribution zipfian with exponent THETA \
             (0 = uniform).")
  in
  let hot =
    Arg.(
      value & opt (some float) None
      & info [ "hot" ] ~docv:"FRAC"
          ~doc:
            "Hotspot key distribution: probability FRAC of hitting one of \
             the first $(b,--hot-keys) accounts.")
  in
  let hot_keys =
    Arg.(
      value & opt int 2
      & info [ "hot-keys" ] ~docv:"K" ~doc:"Size of the hotspot (with --hot).")
  in
  let window =
    Arg.(
      value & opt int 250
      & info [ "window" ] ~docv:"TICKS"
          ~doc:"Time-series window width, in ticks (rounds with --mcore).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains executing shard work, the caller's included (capped \
             at the shard count): N spawns N-1 worker domains and the \
             caller runs its own share of the shards.  1 is the \
             deterministic inline mode; results are identical at any \
             value — only wall-clock time changes.")
  in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Run a read-replica tier of N replicas over the group: WAL \
             segments ship to each replica on every commit, and after the \
             traffic run a batch of read-only transactions is served from \
             replica snapshots at their initiation timestamps \
             (timestamp-policy protocols; needs $(b,--domains) 1).  The \
             per-replica lag and read counters land in $(b,--json) under \
             $(i,replication).")
  in
  let mcore =
    Arg.(
      value & flag
      & info [ "mcore" ]
          ~doc:
            "Run the wall-clock batched multicore driver instead of the \
             virtual-time simulation: group commit on, a simulated device \
             sync per WAL batch ($(b,--sync-us)), $(b,--jobs) transactions \
             through a $(b,--inflight)-deep window.  Combine with \
             $(b,--domains) to overlap the syncs across shard domains.")
  in
  let jobs =
    Arg.(
      value & opt int 400
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Transactions to run to completion (with --mcore).")
  in
  let inflight =
    Arg.(
      value & opt int 64
      & info [ "inflight" ] ~docv:"N"
          ~doc:"Open-transaction window depth (with --mcore).")
  in
  let sync_us =
    Arg.(
      value & opt int 1000
      & info [ "sync-us" ] ~docv:"US"
          ~doc:"Simulated WAL device sync latency in microseconds (with \
                --mcore).")
  in
  let checkpoint_every =
    Arg.(
      value & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"COMMITS"
          ~doc:
            "Write a fuzzy checkpoint on each shard every COMMITS commits \
             (jittered per shard so the group never pauses in lockstep), \
             retain the last two, and truncate the WAL behind the older \
             retained one.  Off by default.")
  in
  let archive =
    Arg.(
      value & flag
      & info [ "archive" ]
          ~doc:
            "Keep the truncated WAL prefixes as archived segments instead of \
             discarding them (with --checkpoint-every).")
  in
  Term.(
    const shard_cmd $ shards $ domains $ replicas $ clients $ duration $ seed
    $ protocol $ faults $ schedules $ quick $ verbose $ metrics $ json $ trace
    $ open_loop $ rate $ sweep $ zipf $ hot $ hot_keys $ window $ mcore $ jobs
    $ inflight $ sync_us $ checkpoint_every $ archive)

let replica_term =
  let shards =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shards in the group.")
  in
  let replicas =
    Arg.(
      value & opt int 3
      & info [ "replicas" ] ~docv:"N" ~doc:"Replicas per tier.")
  in
  let schedules =
    Arg.(
      value & opt int 100
      & info [ "schedules"; "n" ] ~docv:"N"
          ~doc:"Number of seeded failover schedules.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Shorten the traffic slices and read batches (smoke runs).")
  in
  let verbose =
    Arg.(
      value & flag & info [ "verbose"; "v" ] ~doc:"Print every schedule result.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable drill summary and per-replica lag \
             report to FILE.")
  in
  Term.(
    const replica_cmd $ shards $ replicas $ schedules $ seed $ quick $ verbose
    $ json)

let lint_term =
  let protocol =
    Arg.(
      value & opt (some string) None
      & info [ "protocol"; "p" ] ~docv:"NAME"
          ~doc:
            "Certify one catalog protocol (or one ADT table) instead of \
             everything.")
  in
  let depth =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Exploration bound: table derivation explores N generator steps; \
             protocol probes use committed setups of up to N operations.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable certificate report to FILE.")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Run the mutation self-test instead: certify deliberately \
             corrupted tables and protocols and fail unless every corruption \
             is flagged.")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Grow each table-derivation exploration past $(b,--depth), up to \
             N generator levels, until the frontier count stabilizes (a \
             level adds no new distinct frontier).  The JSON report's \
             exploration records carry $(b,enumerated), $(b,distinct), \
             $(b,truncated), $(b,depth_used) and $(b,stabilized); a loud \
             warning is printed for every exploration that still had not \
             stabilized.")
  in
  let baseline =
    Arg.(
      value & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a committed lint JSON report: exit non-zero if \
             any protocol reports more unsound findings than the snapshot \
             or a strictly higher looseness.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also list loose and unknown entries, not just unsound ones.")
  in
  Term.(
    const lint_cmd $ protocol $ depth $ budget $ json $ baseline $ self_test
    $ verbose)

let synth_term =
  let adt =
    Arg.(
      value & opt (some string) None
      & info [ "adt" ] ~docv:"NAME"
          ~doc:"Synthesize one registry ADT instead of all of them.")
  in
  let depth =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Exploration depth the table is compiled at (budgeted past N \
             until the frontier count stabilizes).  The catalog's \
             $(b,derived_*) protocols ship the depth-3 compilation.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the synthesized tables — exploration stats, result \
             classes, cells, refinements and the full matrix — to FILE.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print every (op, result)-pair cell of each matrix.")
  in
  Term.(const synth_cmd $ adt $ depth $ json $ verbose)

let cmds =
  [
    Cmd.v
      (Cmd.info "check"
         ~doc:"Classify a history file (well-formedness and atomicity).")
      check_term;
    Cmd.v (Cmd.info "sim" ~doc:"Run a workload simulation.") sim_term;
    Cmd.v
      (Cmd.info "census" ~doc:"Permissiveness census over bounded histories.")
      census_term;
    Cmd.v (Cmd.info "tpc" ~doc:"Run a two-phase commit scenario.") tpc_term;
    Cmd.v
      (Cmd.info "faults"
         ~doc:"Run seeded crash-recovery fault schedules across the protocol \
               catalog; exit non-zero on any divergence.")
      faults_term;
    Cmd.v
      (Cmd.info "shard"
         ~doc:"Drive a sharded transactional runtime: N System shards behind \
               one facade, cross-shard commits via 2PC; optionally sweep \
               seeded crash-recovery fault schedules and exit non-zero on \
               any global-atomicity divergence.")
      shard_term;
    Cmd.v
      (Cmd.info "replica"
         ~doc:
           "Run the read-replica failover drill: seeded schedules of traffic \
            with 2PC faults, lossy WAL shipping, staged replica faults \
            (lag, crash, partition, segment damage) and forced promotions, \
            judged for lost commits, stale replica reads and projection \
            divergence; exit non-zero unless every schedule is clean.  Also \
            emits a per-replica apply-lag report from a deterministic \
            shipping demo.")
      replica_term;
    Cmd.group
      (Cmd.info "trace"
         ~doc:"Inspect exported Chrome traces.")
      [
        Cmd.v
          (Cmd.info "analyze"
             ~doc:
               "Per-committed-transaction critical-path breakdown of an \
                exported trace: lock wait vs execution, with per-phase \
                percentiles and the slowest transactions.")
          (let file =
             Arg.(
               required & pos 0 (some file) None & info [] ~docv:"TRACE_FILE")
           in
           let top =
             Arg.(
               value & opt int 5
               & info [ "top" ] ~docv:"K"
                   ~doc:"Number of slowest transactions to list.")
           in
           let json =
             Arg.(
               value & opt (some string) None
               & info [ "json" ] ~docv:"FILE"
                   ~doc:"Write the machine-readable analysis to FILE.")
           in
           Term.(const trace_analyze_cmd $ file $ top $ json));
      ];
    Cmd.v
      (Cmd.info "lint"
         ~doc:"Statically certify every conflict table and protocol grant \
               rule against the sequential specifications; exit non-zero on \
               any unsound entry.")
      lint_term;
    Cmd.v
      (Cmd.info "synth"
         ~doc:"Compile data-dependent lock tables from the sequential \
               specifications: one (operation, result-class) conflict matrix \
               per registry ADT, the tables behind the catalog's derived_* \
               protocols.")
      synth_term;
    Cmd.v
      (Cmd.info "recover"
         ~doc:"Rebuild object state by replaying a history file's committed \
               transactions.")
      recover_term;
    Cmd.v
      (Cmd.info "explore"
         ~doc:"Model-check every schedule of a demonstration scope.")
      explore_term;
  ]

let () =
  let info =
    Cmd.info "weihl" ~version:"1.0.0"
      ~doc:
        "Data-dependent concurrency control and recovery (Weihl, PODC 1983)."
  in
  match Cmd.eval' ~catch:false (Cmd.group info cmds) with
  | code -> exit code
  | exception Bad_input msg ->
    Fmt.epr "weihl: %s@." msg;
    exit 1
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Fmt.epr "weihl: internal error, uncaught exception:@.%s@."
      (Printexc.to_string e);
    Printexc.print_raw_backtrace stderr bt;
    exit Cmd.Exit.internal_error
