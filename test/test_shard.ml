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

let rw_group ?metrics ?group_commit ?(seed = 1) ?(shards = 2) () =
  let g = Shard_group.create ?metrics ?group_commit ~seed ~shards () in
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
  Shard_group.commit g t;
  check_int "one leg" 1 (Gtxn.fanout t);
  check_int "no 2pc round ran" 0 (Shard_group.tpc_rounds g);
  check_int "one committed" 1 (Shard_group.committed_count g);
  check_bool "committed" true (Gtxn.status t = Gtxn.Committed)

let test_hybrid_fast_path_draws_group_ts () =
  let g = hybrid_group () in
  let a, b = cross_pair in
  let t1 = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t1 a 10;
  Shard_group.commit g t1;
  let t2 = Shard_group.begin_txn g (Activity.update "t2") in
  deposit g t2 b 10;
  Shard_group.commit g t2;
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
  Shard_group.commit g t;
  check_int "one 2pc round" 1 (Shard_group.tpc_rounds g);
  check_int "two participants" 2 (Gtxn.fanout t);
  check_bool "decided commit" true
    (match Shard_group.decision_of g (Gtxn.gid t) with
    | Some (`Commit _) -> true
    | Some `Abort | None -> false);
  check_bool "committed" true (Gtxn.status t = Gtxn.Committed);
  (* Atomic: both shard histories record the commit. *)
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
  Shard_group.commit g t;
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
  Shard_group.commit ~votes_no:[ 1 ] g t;
  check_int "one 2pc round" 1 (Shard_group.tpc_rounds g);
  check_bool "decided abort" true
    (Shard_group.decision_of g (Gtxn.gid t) = Some `Abort);
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
  Shard_group.commit ~fault g t;
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

(* A cross-shard commit whose shard-1 participant crashes right after
   its yes-vote: the coordinator decides commit, and shard 1's WAL ends
   with the leg's [Prepared] record. *)
let commit_with_crash_after_vote () =
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
  Shard_group.commit ~fault g t;
  (g, t)

let test_participant_crash_recovers_to_commit () =
  let g, t = commit_with_crash_after_vote () in
  check_bool "coordinator decided commit" true
    (match Shard_group.decision_of g (Gtxn.gid t) with
    | Some (`Commit _) -> true
    | Some `Abort | None -> false);
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

(* Recovery settles every leg of the crashed incarnation.  None may
   stay linked: leg ids restart with each incarnation, so resolving a
   stale leg would commit or abort whichever replayed transaction now
   holds its id. *)
let test_recovery_leaves_no_stale_leg () =
  let g, _ = commit_with_crash_after_vote () in
  ignore (crash_and_recover ~resolve:None g 1);
  let events () = History.length (System.history (Shard_group.system g 1)) in
  let before = events () in
  check_int "no leg left to resolve" 0 (Shard_group.resolve_in_doubt g);
  check_int "no second commit or abort" before (events ())

(* The coordinator dies undecided with both legs prepared, then both
   shards crash and recover, each presuming abort from the empty
   decision log.  No leg is left to resolve, so the transaction takes
   that verdict too: held in doubt with no legs, it would pin static
   atomicity's oldest live update, and with it every serving mark. *)
let test_recovery_settles_an_orphaned_in_doubt () =
  let p = Option.get (Fault_harness.find_protocol "multiversion") in
  let w = p.Fault_harness.workload () in
  let g = Shard_harness.group ~seed:1 ~shards:2 p w.Workload.objects in
  let on s =
    List.find (fun x -> Shard_group.shard_of g x = s) w.Workload.objects
  in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  List.iter (fun s -> deposit g t (on s) 5) [ 0; 1 ];
  let fault = { Tpc.no_fault with f_coordinator_crash = Tpc.After_prepare } in
  Shard_group.commit ~fault g t;
  check_bool "in doubt" true (Gtxn.status t = Gtxn.In_doubt);
  List.iter (fun s -> ignore (crash_and_recover ~resolve:None g s)) [ 0; 1 ];
  check_bool "presumed abort" true (Gtxn.status t = Gtxn.Aborted);
  check_bool "no live update left" true
    (Shard_group.oldest_live_update g = None)

(* Flip one byte of the WAL's last line, the [Prepared] record the
   crashed site voted on: the damage reads as a torn tail, but the
   coordinator decided commit, so losing the record loses a commit. *)
let test_lost_prepared_record_is_corrupt () =
  let g, _ = commit_with_crash_after_vote () in
  let wal = Shard_group.durable_shard g 1 in
  let n = String.length wal in
  let last = String.rindex_from wal (n - 2) '\n' + 1 in
  check_bool "the last line is the prepared record" true
    (has_substring ~sub:"!prepared" (String.sub wal last (n - last)));
  let i = last + ((n - last) / 2) in
  let damaged =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) wal
  in
  match Shard_group.recover_shard g 1 damaged with
  | Error (Recovery.Corrupt _) ->
    check_bool "the shard stays down" true (Shard_group.shard_crashed g 1)
  | Error e -> Alcotest.failf "expected Corrupt, got %a" Recovery.pp_failure e
  | Ok _ -> Alcotest.fail "a lost commit recovered silently"

let test_participant_crash_held_in_doubt_then_aborts () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "t1") in
  deposit g t a 5;
  deposit g t b 7;
  (* Coordinator dies undecided AND shard 1 then crashes: recovery must
     hold the reinstated leg in doubt until a decision resolves it. *)
  let fault = { Tpc.no_fault with f_coordinator_crash = Tpc.After_prepare } in
  Shard_group.commit ~fault g t;
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

(* --- sequential activities ------------------------------------------ *)

(* Activities are sequential: while [two]'s deposit on [x] waits behind
   [one], [two] may retry it and nothing else.  Were a second operation
   granted and the commit accepted, the shard's history would hold an
   invocation that is never answered. *)
let test_waiting_txn_may_only_retry () =
  let g = rw_group ~shards:1 () in
  let x = List.nth accounts 0 and y = List.nth accounts 1 in
  let one = Shard_group.begin_txn g (Activity.update "one") in
  let two = Shard_group.begin_txn g (Activity.update "two") in
  deposit g one x 1;
  let waits () =
    match Shard_group.invoke g two x (Bank_account.deposit 1) with
    | Shard_group.Wait _ -> ()
    | _ -> Alcotest.fail "two should wait behind one"
  in
  waits ();
  let rejected what f =
    match f () with
    | () -> Alcotest.failf "%s accepted while an operation waits" what
    | exception Invalid_argument _ -> ()
  in
  rejected "another operation" (fun () ->
      ignore (Shard_group.invoke g two y (Bank_account.deposit 1)));
  rejected "a commit" (fun () -> Shard_group.commit g two);
  rejected "a batch commit" (fun () -> Shard_group.commit_batch g [ two ]);
  (* The retry stays legal, and once it is granted so is the rest. *)
  waits ();
  Shard_group.commit g one;
  deposit g two x 1;
  deposit g two y 1;
  Shard_group.commit g two;
  check_bool "committed" true (Gtxn.status two = Gtxn.Committed);
  check_bool "the shard history is well-formed" true
    (Wellformed.is_well_formed Wellformed.Base
       (System.history (Shard_group.system g 0)))

(* [commit_batch] ends the coordinator-side span of every transaction
   it settles, whatever its fate: each begun transaction has exactly
   one B and one E on pid 0. *)
let test_commit_batch_ends_every_span () =
  let on s k =
    List.nth
      (List.filter (fun x -> Shard_router.shard_of ~shards:2 x = s) accounts)
      k
  in
  let settle ?crash_before_sync txns =
    let g = rw_group ~group_commit:true () in
    let tracer = Obs.Shard_trace.create ~shards:2 in
    Shard_group.set_tracer g tracer;
    let gts =
      List.map
        (fun (name, xs) ->
          let gt = Shard_group.begin_txn g (Activity.update name) in
          List.iter (fun x -> deposit g gt x 1) xs;
          gt)
        txns
    in
    Shard_group.commit_batch ?crash_before_sync g gts;
    let evs = Obs.Shard_trace.events tracer in
    List.iter
      (fun (name, _) ->
        let count ph =
          List.length
            (List.filter
               (fun e ->
                 e.Obs.Trace.pid = 0 && e.Obs.Trace.ph = ph
                 && e.Obs.Trace.name = "txn " ^ name)
               evs)
        in
        check_int (name ^ ": one begin") 1 (count Obs.Trace.B);
        check_int (name ^ ": one end") 1 (count Obs.Trace.E))
      txns;
    gts
  in
  ignore
    (settle
       [ ("multi", [ on 0 0; on 1 0 ]); ("single", [ on 0 1 ]) ]);
  (* Shard 1 dies before its wave-1 sync: the multi-shard transaction
     aborts and the single-shard commit there is lost. *)
  match
    settle ~crash_before_sync:[ 1 ]
      [
        ("multi", [ on 0 0; on 1 0 ]);
        ("lost", [ on 1 1 ]);
        ("kept", [ on 0 1 ]);
      ]
  with
  | [ multi; lost; kept ] ->
    check_bool "multi aborted" true (Gtxn.status multi = Gtxn.Aborted);
    check_bool "lost aborted" true (Gtxn.status lost = Gtxn.Aborted);
    check_bool "kept committed" true (Gtxn.status kept = Gtxn.Committed)
  | _ -> assert false

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
    Fault_sweep.run
      ~verdict:(fun r -> r.Shard_harness.verdict)
      ~plan:Shard_plan.generate
      (Shard_harness.run_schedule ~quick:true)
      Shard_harness.protocols
      (List.init 18 (fun i -> i + 1))
  in
  (match summary.Fault_sweep.divergences with
  | [] -> ()
  | r :: _ ->
    Alcotest.fail (Fmt.str "divergence: %a" Shard_harness.pp_result r));
  check_int "all schedules ran" 18 summary.Fault_sweep.schedules;
  check_bool "most schedules converge" true
    (summary.Fault_sweep.converged > 12)

(* Schedules of the seeded sweep that once diverged, every one a
   participant crash right after its yes-vote: the recovered shard
   resolved a stale leg against its new incarnation (736), or a damaged
   last WAL line dropped the Prepared record of a decided commit (the
   rest).  Each must now converge or be detected as corrupt. *)
let divergence_corpus =
  [
    (662, "escrow");
    (733, "commutativity");
    (736, "multiversion");
    (2291, "rw_undo");
    (2649, "commutativity");
    (3019, "hybrid");
    (3029, "rw_undo");
    (3527, "rw_undo");
  ]

let test_divergence_corpus () =
  List.iter
    (fun (seed, name) ->
      let proto = Option.get (Fault_harness.find_protocol name) in
      let r =
        Shard_harness.run_schedule ~quick:true ~shards:4
          (Shard_plan.generate ~seed) proto
      in
      match r.Shard_harness.verdict with
      | Fault_sweep.Diverged _ ->
        Alcotest.failf "seed %d: %a" seed Shard_harness.pp_result r
      | Fault_sweep.Converged | Fault_sweep.Corruption_detected -> ())
    divergence_corpus

(* --- the global-atomicity judge -------------------------------------- *)

(* Each case breaks one condition of the judge by hand, through a
   shard's own system behind the group's back, and the judge must name
   that condition: a later one would catch most of these too, with a
   different finding. *)
let judged ?(protocol = "rw") break =
  let proto = Option.get (Fault_harness.find_protocol protocol) in
  let g = Shard_harness.group ~seed:1 ~shards:2 proto accounts in
  (* Activity u9 deposits into [x] on shard [s], then [finish]es. *)
  let by_hand ?ts s x finish =
    let sys = Shard_group.system g s in
    let t = System.begin_txn ?ts sys (Activity.update "u9") in
    (match System.invoke sys t x (Bank_account.deposit 5) with
    | Atomic_object.Granted _ -> ()
    | _ -> Alcotest.fail "the deposit was not granted");
    finish sys t
  in
  break by_hand;
  Shard_harness.run_checks proto g

let check_finding what expected found =
  match found with
  | None -> Alcotest.failf "%s: the judge found nothing" what
  | Some msg ->
    if not (String.starts_with ~prefix:expected msg) then
      Alcotest.failf "%s: expected %S, found %S" what expected msg

let test_judge_atomic_commitment () =
  let a, b = cross_pair in
  check_finding "commitment" "u9 committed at shard 0 but aborted at shard 1"
    (judged (fun by_hand ->
         by_hand 0 a System.commit;
         by_hand 1 b (fun sys t -> System.abort sys t)))

let test_judge_timestamps () =
  let a, b = cross_pair in
  check_finding "timestamps"
    "u9 committed with ts 5 at shard 0 but 7 at shard 1"
    (judged ~protocol:"multiversion" (fun by_hand ->
         by_hand ~ts:(Timestamp.v 5) 0 a System.commit;
         by_hand ~ts:(Timestamp.v 7) 1 b System.commit))

let test_judge_in_doubt () =
  let a, _ = cross_pair in
  check_finding "in doubt" "1 transactions stuck in-doubt after resolution"
    (judged (fun by_hand -> by_hand 0 a System.prepare))

let test_judge_state () =
  let a, _ = cross_pair in
  check_finding "state" "shard 0's state departs from the committed projection"
    (judged (fun by_hand -> by_hand 0 a System.commit))

let test_judge_clean () =
  let g = rw_group () in
  let a, b = cross_pair in
  let t = Shard_group.begin_txn g (Activity.update "u1") in
  deposit g t a 5;
  deposit g t b 5;
  Shard_group.commit g t;
  Alcotest.(check (option string))
    "a committed transfer passes" None
    (Shard_harness.run_checks
       (Option.get (Fault_harness.find_protocol "rw"))
       g)

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

(* --- a faulted commit takes its fate from the Tpc model ------------- *)

(* One account on each of 4 shards, found by the router. *)
let fate_accounts =
  let ids = Workload.account_ids 32 in
  List.init 4 (fun s ->
      List.find (fun x -> Shard_router.shard_of ~shards:4 x = s) ids)

type fate_case = {
  legs : int list;  (** shards, in leg order *)
  warmup : int list;  (** single-shard deposits first, to move clocks *)
  fault : Tpc.fault;
  votes_no : int list;
  fate_seed : int;
}

let pp_fate_case ppf c =
  let pp_crash ppf = function
    | Tpc.No_crash -> Fmt.string ppf "none"
    | Tpc.Before_prepare -> Fmt.string ppf "before-prepare"
    | Tpc.After_prepare -> Fmt.string ppf "after-prepare"
    | Tpc.Mid_decision k -> Fmt.pf ppf "mid-decision %d" k
  in
  let f = c.fault in
  Fmt.pf ppf
    "legs %a, warmup %a, coordinator %a, participant %a, votes_no %a, \
     partitions %a heal %a, msg d=%g u=%g r=%g, seed %d"
    Fmt.(Dump.list int) c.legs
    Fmt.(Dump.list int) c.warmup
    pp_crash f.Tpc.f_coordinator_crash
    Fmt.(
      option ~none:(any "none")
        (pair ~sep:(any " ") int (fun ppf -> function
           | `Before_vote -> string ppf "before-vote"
           | `After_vote -> string ppf "after-vote")))
    f.Tpc.f_participant_crash
    Fmt.(Dump.list int) c.votes_no
    Fmt.(Dump.list (Dump.pair int int)) f.Tpc.f_partitions
    Fmt.(option ~none:(any "never") int) f.Tpc.f_heal_at
    f.Tpc.f_msg_faults.Msim.drop f.Tpc.f_msg_faults.Msim.duplicate
    f.Tpc.f_msg_faults.Msim.reorder c.fate_seed

let gen_fate_case =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* order = shuffle_l [ 0; 1; 2; 3 ] in
    let legs = List.filteri (fun i _ -> i < n) order in
    let* warmup = list_size (int_bound 5) (int_bound 3) in
    (* Each fault alone often enough that rounds also commit and
       block, not only abort. *)
    let* coordinator =
      frequency
        [
          (3, pure Tpc.No_crash); (1, pure Tpc.Before_prepare);
          (1, pure Tpc.After_prepare);
          (3, map (fun k -> Tpc.Mid_decision k) (int_bound n));
        ]
    in
    let* participant =
      opt ~ratio:0.3
        (pair (int_bound (n - 1)) (oneofl [ `Before_vote; `After_vote ]))
    in
    let* votes_no =
      frequency [ (3, pure []); (1, map (fun i -> [ i ]) (int_bound (n - 1))) ]
    in
    let* partitioned = opt ~ratio:0.3 (int_bound (n - 1)) in
    let prob = oneofl [ 0.; 0.; 0.1; 0.3 ] in
    let* drop = prob and* duplicate = prob and* reorder = prob in
    let* fate_seed = int_range 1 10_000 in
    return
      {
        legs;
        warmup;
        fault =
          {
            Tpc.f_coordinator_crash = coordinator;
            f_participant_crash = participant;
            f_msg_faults = { Msim.drop; duplicate; reorder };
            f_partitions =
              (match partitioned with Some i -> [ (0, i + 1) ] | None -> []);
            f_heal_at = Option.map (fun _ -> 120) partitioned;
          };
        votes_no;
        fate_seed;
      })

(* [Group.commit ~fault ~votes_no] leaves each leg where
   [Tpc.Driver.commit] leaves its site, run over scripted participants
   with the same clocks, votes, fault and seed: committed at the agreed
   timestamp, prepared and undecided while blocked, its shard down when
   the site crashed, and aborted (or never prepared) otherwise. *)
let prop_faulted_commit_follows_the_model =
  QCheck2.Test.make ~name:"a faulted commit's legs follow the Tpc model"
    ~count:300 ~print:(Fmt.to_to_string pp_fate_case) gen_fate_case
    (fun c ->
      let g =
        Shard_group.create ~policy:`Hybrid ~seed:c.fate_seed ~shards:4 ()
      in
      List.iter
        (fun x ->
          Shard_group.add_object g x (fun log id ->
              Hybrid.of_adt log id (module Bank_account)))
        fate_accounts;
      let on s = List.nth fate_accounts s in
      List.iteri
        (fun i s ->
          let t = Shard_group.begin_txn g (Activity.update (Fmt.str "w%d" i)) in
          deposit g t (on s) 1;
          Shard_group.commit g t)
        c.warmup;
      let t = Shard_group.begin_txn g (Activity.update "faulted") in
      List.iter (fun s -> deposit g t (on s) 5) c.legs;
      let clock s =
        Timestamp.to_int
          (Lamport_clock.now (System.clock (Shard_group.system g s)))
      in
      let group_clock = Timestamp.to_int (Lamport_clock.now (Shard_group.clock g)) in
      let scripted =
        List.mapi
          (fun i s ->
            let reading = clock s in
            {
              Tpc.clock = (fun () -> reading);
              prepare =
                (fun () -> if List.mem i c.votes_no then Tpc.No else Tpc.Yes);
              learn = ignore;
            })
          c.legs
      in
      let model =
        Tpc.Driver.commit ~fault:c.fault
          ~choose_ts:(fun proposal -> max proposal (group_clock + 1))
          ~seed:((c.fate_seed * 1_000_003) + 1)
          scripted
      in
      Shard_group.commit ~fault:c.fault ~votes_no:c.votes_no g t;
      let a = Gtxn.activity t in
      let leg_fate s txn =
        let h = System.history (Shard_group.system g s) in
        if Shard_group.shard_crashed g s then Tpc.Crashed
        else if Activity.Set.mem a (History.committed h) then
          match History.timestamp_of h a with
          | Some ts -> Tpc.Committed (Timestamp.to_int ts)
          | None -> QCheck2.Test.fail_reportf "shard %d committed without a ts" s
        else if Txn.is_prepared txn then Tpc.Blocked
        else if Activity.Set.mem a (History.aborted h) then Tpc.Aborted
        else QCheck2.Test.fail_reportf "shard %d left the leg active" s
      in
      let got =
        List.map (fun (s, txn) -> leg_fate s txn) (Gtxn.legs t)
      in
      let pp =
        Fmt.(
          list ~sep:comma (fun ppf -> function
            | Tpc.Committed ts -> pf ppf "committed %d" ts
            | Tpc.Aborted -> string ppf "aborted"
            | Tpc.Blocked -> string ppf "blocked"
            | Tpc.Crashed -> string ppf "crashed"))
      in
      if got <> model.Tpc.outcomes then
        QCheck2.Test.fail_reportf "legs %a, model %a" pp got pp
          model.Tpc.outcomes
      else
        match (Shard_group.decision_of g (Gtxn.gid t), model.Tpc.decision_ts) with
        | Some (`Commit ts), Some ts' when ts = ts' -> true
        | (Some `Abort | None), None -> true
        | _ -> QCheck2.Test.fail_reportf "the decision log departs from the model")

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
    Alcotest.test_case "recovery leaves no stale leg to resolve" `Quick
      test_recovery_leaves_no_stale_leg;
    Alcotest.test_case "a lost prepared record of a commit is corrupt" `Quick
      test_lost_prepared_record_is_corrupt;
    Alcotest.test_case "recovery settles an in-doubt txn it left legless"
      `Quick test_recovery_settles_an_orphaned_in_doubt;
    Alcotest.test_case "cross-shard deadlock victimizes the youngest" `Quick
      test_cross_shard_deadlock;
    Alcotest.test_case "a waiting transaction may only retry" `Quick
      test_waiting_txn_may_only_retry;
    Alcotest.test_case "trace: commit_batch ends every span it settles" `Quick
      test_commit_batch_ends_every_span;
    Alcotest.test_case "driver: clean sharded run" `Quick test_driver_clean_run;
    Alcotest.test_case "driver: per-shard metrics" `Quick test_driver_metrics;
    Alcotest.test_case "harness: quick fault sweep has no divergence" `Slow
      test_harness_quick_sweep;
    Alcotest.test_case "harness: once-divergent schedules stay fixed" `Quick
      test_divergence_corpus;
    Alcotest.test_case "judge: committed on one shard, aborted on another"
      `Quick test_judge_atomic_commitment;
    Alcotest.test_case "judge: shards disagree on a timestamp" `Quick
      test_judge_timestamps;
    Alcotest.test_case "judge: a prepared leg left in doubt" `Quick
      test_judge_in_doubt;
    Alcotest.test_case "judge: a shard's state departs from the projection"
      `Quick test_judge_state;
    Alcotest.test_case "judge: a group built by hand passes" `Quick
      test_judge_clean;
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
    to_alcotest prop_faulted_commit_follows_the_model;
  ]
