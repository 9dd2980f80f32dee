(* The sharded transactional runtime: routing, fast-path and 2PC
   commits, agreed commit timestamps, crash/recovery of prepared legs,
   cross-shard deadlocks, and the merged-projection property. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* --- fixtures ------------------------------------------------------- *)

let accounts = Workload.account_ids 8

(* Two accounts homed on different shards of a 2-shard group — found by
   the router itself, so the fixture survives hash changes. *)
let cross_pair =
  let on s =
    List.find (fun x -> Shard_router.shard_of ~shards:2 x = s) accounts
  in
  (on 0, on 1)

let rw_group ?metrics ?(seed = 1) ?(shards = 2) () =
  let g = Shard_group.create ?metrics ~seed ~shards () in
  List.iter
    (fun x ->
      Shard_group.add_object g x (fun log id ->
          Op_locking.rw log id (module Bank_account)))
    accounts;
  g

let hybrid_group ?(seed = 1) ?(shards = 2) () =
  let g = Shard_group.create ~policy:`Hybrid ~seed ~shards () in
  List.iter
    (fun x ->
      Shard_group.add_object g x (fun log id ->
          Hybrid.of_adt log id (module Bank_account)))
    accounts;
  g

let granted = function
  | Shard_group.Granted v -> v
  | Shard_group.Wait _ -> Alcotest.fail "unexpected wait"
  | Shard_group.Refused why -> Alcotest.fail ("refused: " ^ why)

let deposit g gt x n =
  ignore (granted (Shard_group.invoke g gt x (Bank_account.deposit n)))

(* --- routing -------------------------------------------------------- *)

let test_router_deterministic () =
  List.iter
    (fun x ->
      let s = Shard_router.shard_of ~shards:4 x in
      check_int "stable" s (Shard_router.shard_of ~shards:4 x);
      check_bool "in range" true (s >= 0 && s < 4))
    accounts;
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Router.shard_of: shards must be positive") (fun () ->
      ignore (Shard_router.shard_of ~shards:0 x))

let test_router_spreads () =
  let shards =
    List.sort_uniq Int.compare
      (List.map (Shard_router.shard_of ~shards:2) accounts)
  in
  check_int "both shards used" 2 (List.length shards)

(* --- fast path ------------------------------------------------------ *)

let test_single_shard_fast_path () =
  let g = rw_group () in
  let a, _ = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 10;
  (match Shard_group.commit g t with
  | Shard_group.Fast -> ()
  | Shard_group.Distributed _ -> Alcotest.fail "expected the fast path");
  check_int "no 2pc round ran" 0 (Shard_group.tpc_rounds g);
  check_int "one committed" 1 (Shard_group.committed_count g);
  check_bool "committed" true (Gtxn.status t = Gtxn.Committed)

let test_hybrid_fast_path_draws_group_ts () =
  let g = hybrid_group () in
  let a, b = cross_pair in
  let t1 = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t1 a 10;
  ignore (Shard_group.commit g t1);
  let t2 = Shard_group.begin_txn g (Activity.update "t2") in
  deposit g t2 b 10;
  ignore (Shard_group.commit g t2);
  match (Gtxn.commit_ts t1, Gtxn.commit_ts t2) with
  | Some ts1, Some ts2 ->
    (* Different shards, one clock: the later commit gets the later,
       distinct timestamp. *)
    check_bool "group clock orders fast-path commits" true
      (Timestamp.compare ts1 ts2 < 0)
  | _ -> Alcotest.fail "hybrid updates must carry commit timestamps"

(* --- 2PC commits ---------------------------------------------------- *)

let test_cross_shard_commit () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  (match Shard_group.commit g t with
  | Shard_group.Distributed (d, parts) ->
    check_bool "decided commit" true d.Tpc.committed;
    check_int "two participants" 2 (List.length parts);
    check_bool "atomic" true (Tpc.atomic_decision d)
  | Shard_group.Fast -> Alcotest.fail "expected a 2PC round");
  check_bool "committed" true (Gtxn.status t = Gtxn.Committed);
  (* Both shard histories record the commit. *)
  List.iter
    (fun s ->
      check_bool
        (Fmt.str "committed at shard %d" s)
        true
        (Activity.Set.mem (Gtxn.activity t)
           (History.committed (System.history (Shard_group.system g s)))))
    [ 0; 1 ]

let test_agreed_commit_ts_across_shards () =
  let g = hybrid_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  ignore (Shard_group.commit g t);
  let ts_at s =
    History.timestamp_of
      (System.history (Shard_group.system g s))
      (Gtxn.activity t)
  in
  match (ts_at 0, ts_at 1, Shard_group.agreed_commit_ts g (Gtxn.gid t)) with
  | Some ts0, Some ts1, Some agreed ->
    check_bool "shards agree" true (Timestamp.compare ts0 ts1 = 0);
    check_int "and match the 2PC decision" agreed (Timestamp.to_int ts0)
  | _ -> Alcotest.fail "expected a commit timestamp on both shards"

let test_vote_no_aborts_everywhere () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  (match Shard_group.commit ~votes_no:[ 1 ] g t with
  | Shard_group.Distributed (d, _) ->
    check_bool "decided abort" false d.Tpc.committed
  | Shard_group.Fast -> Alcotest.fail "expected a 2PC round");
  check_bool "aborted" true (Gtxn.status t = Gtxn.Aborted);
  List.iter
    (fun s ->
      let h = System.history (Shard_group.system g s) in
      check_bool
        (Fmt.str "aborted at shard %d" s)
        true
        (Activity.Set.mem (Gtxn.activity t) (History.aborted h));
      check_bool
        (Fmt.str "not committed at shard %d" s)
        false
        (Activity.Set.mem (Gtxn.activity t) (History.committed h)))
    [ 0; 1 ];
  check_int "nothing committed" 0 (Shard_group.committed_count g)

(* --- the blocking window and its resolution ------------------------- *)

let test_coordinator_crash_leaves_in_doubt () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  let fault = { Tpc.no_fault with f_coordinator_crash = Tpc.After_prepare } in
  ignore (Shard_group.commit ~fault g t);
  check_bool "in doubt" true (Gtxn.status t = Gtxn.In_doubt);
  check_int "both legs prepared" 2 (Shard_group.in_doubt_count g);
  check_bool "no decision recorded" true
    (Shard_group.decision_of g (Gtxn.gid t) = None);
  (* A conflicting operation blocks behind the prepared legs. *)
  let t2 = Shard_group.begin_txn g (Activity.update "t2") in
  (match Shard_group.invoke g t2 a (Bank_account.deposit 1) with
  | Shard_group.Wait blockers ->
    check_bool "blocked on the in-doubt txn" true
      (List.exists (fun b -> Gtxn.equal b t) blockers)
  | _ -> Alcotest.fail "expected to block behind the prepared leg");
  Shard_group.abort g t2;
  (* Resolution: no durable decision means presumed abort. *)
  check_int "both legs resolved" 2 (Shard_group.resolve_in_doubt g);
  check_int "no leg in doubt" 0 (Shard_group.in_doubt_count g);
  check_bool "presumed abort" true (Gtxn.status t = Gtxn.Aborted)

(* Participant crashes between its yes-vote and the decision; the WAL's
   Prepared record survives, recovery reinstates the leg, and the
   replayed decision resolves it — the commit branch via the durable
   decision log, the abort branch via presumed abort. *)
let crash_and_recover ~resolve g s =
  let wal = Shard_group.crash_shard g s in
  match Shard_group.recover_shard ?resolve g s wal with
  | Ok report -> report.Recovery.shard
  | Error e -> Alcotest.fail (Fmt.str "recovery failed: %a" Recovery.pp_failure e)

let test_participant_crash_recovers_to_commit () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  let crash_idx =
    (* the participant index of shard 1 in the 2PC round *)
    match Gtxn.shards t with 1 :: _ -> 0 | _ -> 1
  in
  let fault =
    { Tpc.no_fault with f_participant_crash = Some (crash_idx, `After_vote) }
  in
  (match Shard_group.commit ~fault g t with
  | Shard_group.Distributed (d, _) ->
    check_bool "coordinator decided commit" true d.Tpc.committed
  | Shard_group.Fast -> Alcotest.fail "expected a 2PC round");
  check_bool "shard 1 crashed" true (Shard_group.shard_crashed g 1);
  (* The surviving shard committed; the crashed one is held by its WAL. *)
  let wal = Shard_group.durable_shard g 1 in
  check_bool "WAL holds the prepared record" true
    (has_substring ~sub:"!prepared" wal);
  let report = crash_and_recover ~resolve:None g 1 in
  check_int "one leg reinstated" 1 report.Recovery.reinstated;
  check_int "resolved from the decision log" 1 report.Recovery.resolved;
  check_int "nothing left in doubt" 0 (Shard_group.in_doubt_count g);
  check_bool "committed on both shards" true
    (List.for_all
       (fun s ->
         Activity.Set.mem (Gtxn.activity t)
           (History.committed (System.history (Shard_group.system g s))))
       [ 0; 1 ])

let test_participant_crash_held_in_doubt_then_aborts () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  (* Coordinator dies undecided AND shard 1 then crashes: recovery must
     hold the reinstated leg in doubt until a decision resolves it. *)
  let fault = { Tpc.no_fault with f_coordinator_crash = Tpc.After_prepare } in
  ignore (Shard_group.commit ~fault g t);
  check_bool "in doubt" true (Gtxn.status t = Gtxn.In_doubt);
  let report =
    crash_and_recover ~resolve:(Some (fun _ -> `Unknown)) g 1
  in
  check_int "reinstated" 1 report.Recovery.reinstated;
  check_int "unresolved" 0 report.Recovery.resolved;
  check_int "held in doubt" 1 (List.length report.Recovery.in_doubt);
  check_bool "still in doubt" true (Gtxn.status t = Gtxn.In_doubt);
  check_int "two prepared legs" 2 (Shard_group.in_doubt_count g);
  (* The decision log has no record: presumed abort ends the window. *)
  check_int "resolved" 2 (Shard_group.resolve_in_doubt g);
  check_int "clear" 0 (Shard_group.in_doubt_count g);
  check_bool "aborted" true (Gtxn.status t = Gtxn.Aborted);
  List.iter
    (fun s ->
      check_bool
        (Fmt.str "not committed at shard %d" s)
        false
        (Activity.Set.mem (Gtxn.activity t)
           (History.committed (System.history (Shard_group.system g s)))))
    [ 0; 1 ]

(* --- cross-shard deadlock ------------------------------------------- *)

let test_cross_shard_deadlock () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t1 = Shard_group.begin_txn g (Activity.update "t1") in
  let t2 = Shard_group.begin_txn g (Activity.update "t2") in
  deposit g t1 a 1;
  deposit g t2 b 1;
  (* Each now needs the other's home object: a cycle no single shard
     can see. *)
  (match Shard_group.invoke g t1 b (Bank_account.deposit 1) with
  | Shard_group.Wait _ -> ()
  | _ -> Alcotest.fail "t1 should block on t2");
  check_bool "no cycle visible yet" true (Shard_group.find_deadlock g = None);
  (match Shard_group.invoke g t2 a (Bank_account.deposit 1) with
  | Shard_group.Wait _ -> ()
  | _ -> Alcotest.fail "t2 should block on t1");
  match Shard_group.find_deadlock g with
  | None -> Alcotest.fail "expected a cross-shard deadlock"
  | Some cycle ->
    check_int "both in the cycle" 2 (List.length cycle);
    let v = Shard_group.victim cycle in
    check_bool "youngest is the victim" true (Gtxn.equal v t2);
    Shard_group.abort ~reason:"deadlock" g v;
    check_bool "cycle broken" true (Shard_group.find_deadlock g = None)

(* --- driver and harness --------------------------------------------- *)

let test_driver_clean_run () =
  let g = rw_group ~seed:3 ~shards:3 () in
  let w = Workload.banking () in
  let o = Sharded_driver.run g w in
  check_bool "made progress" true (o.Sharded_driver.committed > 10);
  check_bool "multi-shard commits happened" true
    (o.Sharded_driver.committed_multi > 0);
  check_bool "fast-path commits happened" true
    (o.Sharded_driver.committed > o.Sharded_driver.committed_multi);
  check_int "none in doubt" 0 o.Sharded_driver.in_doubt;
  check_int "none stuck" 0 (Shard_group.in_doubt_count g);
  check_int "tally matches" o.Sharded_driver.committed
    (Shard_group.committed_count g)

let test_driver_metrics () =
  let metrics = Obs.Shard_metrics.create ~shards:2 () in
  let g = rw_group ~metrics ~seed:5 () in
  let w = Workload.banking () in
  let o = Sharded_driver.run g w in
  let rendered = Obs.Shard_metrics.render metrics in
  check_bool "renders the 2PC summary" true (has_substring ~sub:"2pc:" rendered);
  check_bool "registers per-shard instruments" true
    (has_substring ~sub:"shard0.committed.local"
       (Obs.Metrics.Registry.render_text (Obs.Shard_metrics.registry metrics)));
  check_bool "counts 2PC rounds" true
    (Shard_group.tpc_rounds g >= o.Sharded_driver.committed_multi)

let test_harness_quick_sweep () =
  let summary =
    Shard_harness.run_many ~quick:true ~seeds:(List.init 18 (fun i -> i + 1)) ()
  in
  (match Shard_harness.divergences summary with
  | [] -> ()
  | r :: _ ->
    Alcotest.fail (Fmt.str "divergence: %a" Shard_harness.pp_result r));
  check_int "all schedules ran" 18 summary.Shard_harness.schedules;
  check_bool "most schedules converge" true
    (summary.Shard_harness.converged > 12)

(* --- the blocking facade (real domains) ------------------------------ *)

let test_facade_atomically () =
  let rt = Sharded.create ~shards:2 () in
  List.iter
    (fun x ->
      Sharded.add_object rt x (fun log id ->
          Op_locking.rw log id (module Bank_account)))
    accounts;
  let a, b = cross_pair in
  (* A cross-shard transfer through the facade runs 2PC behind commit. *)
  (match
     Sharded.atomically rt (Activity.update "seed") (fun _ invoke ->
         ignore (invoke a (Bank_account.deposit 10));
         invoke b (Bank_account.deposit 5))
   with
  | Ok v -> check_bool "deposit ok" true (Value.equal v Value.ok)
  | Error e -> Alcotest.fail e);
  (* An unknown operation is refused; atomically aborts cleanly. *)
  (match
     Sharded.atomically rt (Activity.update "bad") (fun _ invoke ->
         invoke a (Operation.make "mystery" []))
   with
  | Ok _ -> Alcotest.fail "expected refusal"
  | Error _ -> ());
  check_int "one global commit" 1 (Sharded.committed_count rt)

let test_facade_across_domains () =
  let rt = Sharded.create ~shards:2 () in
  List.iter
    (fun x ->
      Sharded.add_object rt x (fun log id ->
          Op_locking.rw log id (module Bank_account)))
    accounts;
  let a, b = cross_pair in
  (* Four domains race cross-shard transfers; 2PL plus the group's
     deadlock breaker must let every one commit or die as a victim. *)
  let worker i =
    Domain.spawn (fun () ->
        let src, dst = if i mod 2 = 0 then (a, b) else (b, a) in
        let rec go tries =
          if tries > 25 then Error "starved"
          else
            match
              Sharded.atomically rt
                (Activity.update (Fmt.str "w%d.%d" i tries))
                (fun _ invoke ->
                  ignore (invoke src (Bank_account.deposit 1));
                  invoke dst (Bank_account.deposit 1))
            with
            | Ok _ -> Ok ()
            | Error "deadlock victim" -> go (tries + 1)
            | Error e -> Error e
        in
        go 0)
  in
  let domains = List.init 4 worker in
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    domains;
  check_int "every worker committed once" 4 (Sharded.committed_count rt);
  (* All-or-nothing across the shards under real parallelism. *)
  let h0 = Sharded.history rt 0 and h1 = Sharded.history rt 1 in
  check_bool "no activity committed on one shard and aborted on the other"
    true
    (Activity.Set.is_empty
       (Activity.Set.inter (History.committed h0) (History.aborted h1))
    && Activity.Set.is_empty
         (Activity.Set.inter (History.committed h1) (History.aborted h0)))

(* --- cross-shard tracing --------------------------------------------- *)

(* A traced multi-shard run: flow arrows pair up s-to-f by id, the
   merged trace survives the importer, and the analyzer attributes
   every committed transaction's full interval to named phases. *)
let test_traced_run_round_trips_and_attributes () =
  let g = rw_group ~seed:7 ~shards:2 () in
  let tracer = Obs.Shard_trace.create ~shards:2 in
  let config = { Sharded_driver.default_config with duration = 300; seed = 7 } in
  let o = Sharded_driver.run ~config ~tracer g (Workload.banking ()) in
  check_bool "made progress" true (o.Sharded_driver.committed > 0);
  check_bool "multi-shard commits happened" true
    (o.Sharded_driver.committed_multi > 0);
  let evs = Obs.Shard_trace.events tracer in
  let with_ph p = List.filter (fun e -> e.Obs.Trace.ph = p) evs in
  let starts = with_ph Obs.Trace.S and finishes = with_ph Obs.Trace.F in
  check_bool "messages flew" true (starts <> []);
  let ids l = List.sort compare (List.filter_map (fun e -> e.Obs.Trace.id) l) in
  check_bool "every flow start has a matching finish" true
    (ids starts = ids finishes);
  (* Requests arrive at shard timelines; votes flow back to pid 0. *)
  check_bool "some flows land on shard timelines" true
    (List.exists (fun e -> e.Obs.Trace.pid > 0) finishes);
  check_bool "some flows land back on the coordinator" true
    (List.exists (fun e -> e.Obs.Trace.pid = 0) finishes);
  (* The merged export round-trips through the importer... *)
  match Obs.Trace.parse (Obs.Shard_trace.export tracer) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    check_int "round-trip preserves every event" (List.length evs)
      (List.length parsed);
    (* ...and the analyzer accounts for each committed transaction. *)
    let r = Obs.Trace_analysis.analyze parsed in
    check_bool "recognized as cross-shard" true
      r.Obs.Trace_analysis.cross_shard;
    check_int "analyzer sees every commit" o.Sharded_driver.committed
      r.Obs.Trace_analysis.committed;
    List.iter
      (fun t ->
        let covered =
          Obs.Trace_analysis.breakdown_total t.Obs.Trace_analysis.phases
        in
        check_bool "phases partition the txn interval" true
          (Float.abs (covered -. t.Obs.Trace_analysis.total) <= 1e-6))
      r.Obs.Trace_analysis.txns

(* --- the open-loop driver -------------------------------------------- *)

let open_cfg =
  {
    Sharded_driver.default_config with
    arrivals = Poisson 0.3;
    duration = 800;
    window = 200;
    seed = 9;
  }

let test_open_loop_deterministic () =
  let run () =
    let g = rw_group ~seed:2 ~shards:3 () in
    Sharded_driver.run ~config:open_cfg g (Workload.banking ())
  in
  let a = run () and b = run () in
  check_int "same arrivals" a.Sharded_driver.started b.Sharded_driver.started;
  check_int "same commits" a.Sharded_driver.committed
    b.Sharded_driver.committed;
  check_int "same give-ups" a.Sharded_driver.gave_up b.Sharded_driver.gave_up;
  check_int "same number of windows"
    (List.length a.Sharded_driver.windows)
    (List.length b.Sharded_driver.windows);
  let check_float = Alcotest.(check (float 1e-9)) in
  List.iter2
    (fun (wa : Sharded_driver.window) (wb : Sharded_driver.window) ->
      check_int "window start" wa.Sharded_driver.w_start wb.Sharded_driver.w_start;
      check_int "window arrivals" wa.Sharded_driver.w_arrivals
        wb.Sharded_driver.w_arrivals;
      check_int "window commits" wa.Sharded_driver.w_committed
        wb.Sharded_driver.w_committed;
      check_int "window aborts" wa.Sharded_driver.w_aborted
        wb.Sharded_driver.w_aborted;
      check_float "window p50" wa.Sharded_driver.w_p50 wb.Sharded_driver.w_p50;
      check_float "window p99" wa.Sharded_driver.w_p99 wb.Sharded_driver.w_p99)
    a.Sharded_driver.windows b.Sharded_driver.windows

let test_open_loop_group_latency_is_shard_merge () =
  let g = rw_group ~seed:4 ~shards:3 () in
  let o = Sharded_driver.run ~config:open_cfg g (Workload.banking ()) in
  check_bool "made progress" true (o.Sharded_driver.committed > 0);
  let module H = Obs.Metrics.Histogram in
  let shards = Array.to_list o.Sharded_driver.shard_latency in
  let latency = Sharded_driver.latency o in
  check_int "group count = shard counts summed"
    (List.fold_left (fun n h -> n + H.count h) 0 shards)
    (H.count latency);
  Alcotest.(check (float 1e-9))
    "group sum"
    (List.fold_left (fun n h -> n +. H.sum h) 0. shards)
    (H.sum latency);
  (* Every commit's latency landed in exactly one home shard. *)
  check_int "commits all measured" o.Sharded_driver.committed (H.count latency);
  check_int "windows count every commit" o.Sharded_driver.committed
    (List.fold_left
       (fun n w -> n + w.Sharded_driver.w_committed)
       0 o.Sharded_driver.windows)

(* --- pinned seeded outcomes ------------------------------------------- *)

(* Exact outcomes of three seeded runs, one per way of driving the
   group: a closed loop with 2PC faults injected through [on_commit] —
   a participant crash at the 4th multi-shard attempt, a coordinator
   crash at the 9th — a Poisson open loop, and the round loop at 1 and
   2 domains.  Gids pick deadlock victims and the generator's draw
   order picks scripts, so any change to either shows up here. *)
let closed_fingerprint () =
  let g = rw_group ~seed:3 ~shards:3 () in
  let on_commit g gt ~nth_multi =
    match nth_multi with
    | 4 ->
      Shard_group.commit
        ~fault:{ Tpc.no_fault with f_participant_crash = Some (1, `After_vote) }
        g gt
    | 9 ->
      Shard_group.commit
        ~fault:{ Tpc.no_fault with f_coordinator_crash = Tpc.After_prepare }
        g gt
    | _ -> Shard_group.commit g gt
  in
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients 6;
      duration = 600;
      seed = 5;
    }
  in
  let o = Sharded_driver.run ~config ~on_commit g (Workload.banking ()) in
  Fmt.str "%d %d %d dl%d rf%d tpc%d st%d id%d gu%d w%d r%d t%d"
    o.Sharded_driver.committed o.Sharded_driver.committed_read_only
    o.Sharded_driver.committed_multi o.Sharded_driver.aborted_deadlock
    o.Sharded_driver.aborted_refused o.Sharded_driver.aborted_tpc
    o.Sharded_driver.aborted_starved o.Sharded_driver.in_doubt
    o.Sharded_driver.gave_up o.Sharded_driver.waits o.Sharded_driver.restarts
    o.Sharded_driver.ticks

let poisson_fingerprint () =
  let g = rw_group ~seed:2 ~shards:3 () in
  let o = Sharded_driver.run ~config:open_cfg g (Workload.banking ()) in
  let h = Sharded_driver.latency o in
  Fmt.str "%d %d %d ab%d id%d t%d p50=%g p99=%g mean=%g [%s]"
    o.Sharded_driver.started o.Sharded_driver.committed
    o.Sharded_driver.committed_multi
    (o.Sharded_driver.gave_up + o.Sharded_driver.in_doubt)
    o.Sharded_driver.in_doubt o.Sharded_driver.ticks
    (Obs.Metrics.Histogram.percentile h 50.)
    (Obs.Metrics.Histogram.percentile h 99.)
    (Obs.Metrics.Histogram.mean h)
    (String.concat "; "
       (List.map
          (fun (w : Sharded_driver.window) ->
            Fmt.str "%d %d %d %d %g %g" w.Sharded_driver.w_start
              w.Sharded_driver.w_arrivals w.Sharded_driver.w_committed
              w.Sharded_driver.w_aborted w.Sharded_driver.w_p50
              w.Sharded_driver.w_p99)
          o.Sharded_driver.windows))

let rounds_fingerprint ~domains =
  let g =
    Shard_group.create ~seed:11 ~shards:4 ~domains ~group_commit:true ()
  in
  let accounts = Workload.account_ids 32 in
  List.iter
    (fun x ->
      Shard_group.add_object g x (fun log id ->
          Op_locking.rw log id (module Bank_account)))
    accounts;
  let config =
    { Sharded_driver.default_config with jobs = 200; inflight = 24; seed = 5 }
  in
  let o =
    Sharded_driver.run_rounds ~config g (Workload.banking ~accounts:32 ())
  in
  Shard_group.shutdown g;
  Fmt.str "%d %d dl%d st%d rf%d lost%d gu%d w%d r%d rounds%d"
    o.Sharded_driver.committed o.Sharded_driver.committed_multi
    o.Sharded_driver.aborted_deadlock o.Sharded_driver.aborted_starved
    o.Sharded_driver.aborted_refused
    (o.Sharded_driver.aborted_tpc + o.Sharded_driver.in_doubt)
    o.Sharded_driver.gave_up o.Sharded_driver.waits o.Sharded_driver.restarts
    o.Sharded_driver.ticks

let test_driver_pinned () =
  let check = Alcotest.(check string) in
  check "closed loop with 2PC faults"
    "36 1 9 dl2 rf10 tpc0 st10 id1 gu1 w856 r21 t600" (closed_fingerprint ());
  check "Poisson open loop"
    "251 239 145 ab5 id0 t800 p50=2.25 p99=51 mean=6.35146 [0 60 59 0 2 17; \
     200 60 60 0 2 22; 400 62 60 1 6 37; 600 69 60 4 2 51; 800 0 0 0 0 0]"
    (poisson_fingerprint ());
  List.iter
    (fun domains ->
      check
        (Fmt.str "round loop, %d domain(s)" domains)
        "199 90 dl15 st12 rf0 lost0 gu1 w2329 r26 rounds169"
        (rounds_fingerprint ~domains))
    [ 1; 2 ]

(* --- the merged-projection property --------------------------------- *)

(* A sharded run's merged committed projection, replayed serially
   against one combined system, is exactly an equivalent single-shard
   run: every committed transaction re-executes with its logged
   results.  This is global atomicity made operational. *)
let prop_merged_projection_replays =
  QCheck2.Test.make ~name:"sharded committed projection = single-shard replay"
    ~count:25
    QCheck2.Gen.(
      triple (int_range 1 1000) (int_range 1 4) (oneofl [ `Rw; `Hybrid ]))
    (fun (seed, shards, kind) ->
      let make, policy =
        match kind with
        | `Rw ->
          ( (fun log id -> Op_locking.rw log id (module Bank_account)),
            `None_ )
        | `Hybrid ->
          ((fun log id -> Hybrid.of_adt log id (module Bank_account)), `Hybrid)
      in
      let g = Shard_group.create ~policy ~seed ~shards () in
      List.iter (fun x -> Shard_group.add_object g x make) accounts;
      let w = Workload.banking () in
      let config =
        { Sharded_driver.default_config with duration = 400; seed }
      in
      let o = Sharded_driver.run ~config g w in
      let sys = System.create ~policy () in
      List.iter
        (fun x -> System.add_object sys (make (System.log sys) x))
        accounts;
      match Recovery.replay_txns sys (Shard_group.committed_projection g) with
      | Error f ->
        QCheck2.Test.fail_reportf "merged replay diverged: %a"
          Recovery.pp_failure f
      | Ok report ->
        if report.Recovery.replayed <> o.Sharded_driver.committed then
          QCheck2.Test.fail_reportf "replayed %d of %d committed"
            report.Recovery.replayed o.Sharded_driver.committed
        else true)

let suite =
  [
    Alcotest.test_case "router: deterministic and in range" `Quick
      test_router_deterministic;
    Alcotest.test_case "router: spreads accounts over shards" `Quick
      test_router_spreads;
    Alcotest.test_case "single-shard commit takes the fast path" `Quick
      test_single_shard_fast_path;
    Alcotest.test_case "hybrid fast path draws from the group clock" `Quick
      test_hybrid_fast_path_draws_group_ts;
    Alcotest.test_case "cross-shard commit runs 2PC" `Quick
      test_cross_shard_commit;
    Alcotest.test_case "shards agree on the 2PC commit timestamp" `Quick
      test_agreed_commit_ts_across_shards;
    Alcotest.test_case "a no-vote aborts every leg" `Quick
      test_vote_no_aborts_everywhere;
    Alcotest.test_case "coordinator crash leaves legs in doubt" `Quick
      test_coordinator_crash_leaves_in_doubt;
    Alcotest.test_case "crashed participant recovers to commit" `Quick
      test_participant_crash_recovers_to_commit;
    Alcotest.test_case "recovered leg held in doubt, then aborts" `Quick
      test_participant_crash_held_in_doubt_then_aborts;
    Alcotest.test_case "cross-shard deadlock victimizes the youngest" `Quick
      test_cross_shard_deadlock;
    Alcotest.test_case "driver: clean sharded run" `Quick test_driver_clean_run;
    Alcotest.test_case "driver: per-shard metrics" `Quick test_driver_metrics;
    Alcotest.test_case "facade: atomically commits and refuses" `Quick
      test_facade_atomically;
    Alcotest.test_case "facade: cross-shard transfers across domains" `Quick
      test_facade_across_domains;
    Alcotest.test_case "harness: quick fault sweep has no divergence" `Slow
      test_harness_quick_sweep;
    Alcotest.test_case "traced run: flows pair, importer round-trips, \
                        analyzer attributes" `Quick
      test_traced_run_round_trips_and_attributes;
    Alcotest.test_case "open loop: same seed, same windowed series" `Quick
      test_open_loop_deterministic;
    Alcotest.test_case "open loop: group latency merges the shards" `Quick
      test_open_loop_group_latency_is_shard_merge;
    Alcotest.test_case "driver: seeded outcomes pinned (closed, Poisson, \
                        rounds)" `Quick
      test_driver_pinned;
    to_alcotest prop_merged_projection_replays;
  ]
