(* The multicore runtime: mailbox/executor plumbing, the group-commit
   writer's synced-before-acknowledged contract, crash-before-sync
   fault injection, domain-count independence of results (the
   determinism boundary), and the 4-domain banking stress test. *)

open Core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let accounts = Workload.account_ids 8

let rw_group ?metrics ?(seed = 1) ?(shards = 2) ?domains ?group_commit
    ?sync_cost () =
  let g =
    Shard_group.create ?metrics ~seed ?domains ?group_commit ?sync_cost
      ~shards ()
  in
  List.iter
    (fun x ->
      Shard_group.add_object g x (fun log id ->
          Op_locking.rw log id (module Bank_account)))
    accounts;
  g

let granted = function
  | Shard_group.Granted v -> v
  | Shard_group.Wait _ -> Alcotest.fail "unexpected wait"
  | Shard_group.Refused why -> Alcotest.fail ("refused: " ^ why)

(* --- mailbox and executor ------------------------------------------- *)

let test_mailbox_fifo_and_close () =
  let mb = Shard_mailbox.create ~capacity:8 () in
  List.iter (Shard_mailbox.push mb) [ 1; 2; 3; 4; 5 ];
  check_int "depth" 5 (Shard_mailbox.depth mb);
  check_int "high-water mark" 5 (Shard_mailbox.max_depth mb);
  check_bool "fifo" true (Shard_mailbox.pop mb = Some 1);
  check_bool "fifo" true (Shard_mailbox.pop mb = Some 2);
  Shard_mailbox.close mb;
  Shard_mailbox.close mb;
  (* closing drains what remains before returning None *)
  check_bool "drains" true (Shard_mailbox.pop mb = Some 3);
  check_bool "drains" true (Shard_mailbox.pop mb = Some 4);
  check_bool "drains" true (Shard_mailbox.pop mb = Some 5);
  check_bool "end of stream" true (Shard_mailbox.pop mb = None);
  check_bool "push after close raises" true
    (match Shard_mailbox.push mb 6 with
    | () -> false
    | exception Shard_mailbox.Closed -> true)

let test_exec_per_shard_order () =
  let shards = 4 in
  let exec = Shard_exec.create ~domains:4 ~shards () in
  check_int "one domain per shard" 4 (Shard_exec.domain_count exec);
  (* Each list is only ever touched by its shard's owner domain; the
     await joins give the main domain a consistent view. *)
  let seen = Array.init shards (fun _ -> ref []) in
  let promises =
    List.concat_map
      (fun i ->
        List.init shards (fun s ->
            Shard_exec.submit exec ~shard:s (fun () ->
                seen.(s) := i :: !(seen.(s)))))
      (List.init 50 (fun i -> i))
  in
  List.iter Shard_exec.await promises;
  Array.iter
    (fun l ->
      Alcotest.(check (list int))
        "submission order preserved"
        (List.init 50 (fun i -> i))
        (List.rev !l))
    seen;
  check_bool "exceptions propagate" true
    (match Shard_exec.call exec ~shard:2 (fun () -> failwith "boom") with
    | () -> false
    | exception Failure m -> m = "boom");
  Shard_exec.shutdown exec;
  Shard_exec.shutdown exec (* idempotent *)

let test_exec_inline_is_direct () =
  let exec = Shard_exec.create ~shards:3 () in
  check_int "inline mode" 1 (Shard_exec.domain_count exec);
  check_int "runs on the caller" 7
    (Shard_exec.call exec ~shard:1 (fun () -> 7));
  check_int "no mailbox" 0 (Shard_exec.mailbox_depth exec ~shard:1);
  Shard_exec.shutdown exec

(* --- the group-commit writer ---------------------------------------- *)

let a1 = Activity.update "a1"
let x1 = Object_id.v "x"

let records_of text =
  match Wal.decode_records text with
  | Ok (records, Wal.Intact) -> records
  | Ok (_, _) -> Alcotest.fail "durable image not intact"
  | Error e -> Alcotest.fail (Fmt.str "%a" Wal.pp_error e)

let test_writer_append_is_volatile () =
  let synced = ref 0 in
  let w = Wal.Writer.create ~label:"t" ~sync_cost:(fun () -> incr synced) () in
  Wal.Writer.append w (Wal.Event (Event.invoke a1 x1 (Bank_account.deposit 3)));
  Wal.Writer.append w (Wal.Event (Event.respond a1 x1 Value.ok));
  check_int "buffered, not durable" 2 (Wal.Writer.pending w);
  check_int "durable image is empty" 0
    (List.length (records_of (Wal.Writer.synced_text w)));
  check_int "full image has the tail" 2
    (List.length (records_of (Wal.Writer.text w)));
  check_int "sync covers the batch" 2 (Wal.Writer.sync w);
  check_int "device paid once" 1 !synced;
  check_int "nothing pending" 0 (Wal.Writer.pending w);
  check_int "now durable" 2
    (List.length (records_of (Wal.Writer.synced_text w)));
  check_int "empty sync" 0 (Wal.Writer.sync w);
  check_int "counters" 2 (Wal.Writer.appends w);
  check_int "counters" 2 (Wal.Writer.syncs w)

let test_writer_crash_window () =
  let w = Wal.Writer.create () in
  Wal.Writer.append_list w
    [
      Wal.Event (Event.invoke a1 x1 (Bank_account.deposit 3));
      Wal.Event (Event.respond a1 x1 Value.ok);
      Wal.Event (Event.commit a1 x1);
    ];
  ignore (Wal.Writer.sync w);
  (* the second transaction crashes in the window between append and
     sync: its commit must not be in the durable image *)
  let a2 = Activity.update "a2" in
  Wal.Writer.append_list w
    [
      Wal.Event (Event.invoke a2 x1 (Bank_account.deposit 9));
      Wal.Event (Event.respond a2 x1 Value.ok);
      Wal.Event (Event.commit a2 x1);
    ];
  let durable = records_of (Wal.Writer.synced_text w) in
  check_int "only the synced transaction" 3 (List.length durable);
  check_bool "a2 is lost" true
    (List.for_all
       (function
         | Wal.Event e -> Activity.equal (Event.activity e) a1
         | Wal.Control _ -> true)
       durable)

(* --- group commit at the group level -------------------------------- *)

let test_crash_before_sync_never_acknowledged () =
  let g = rw_group ~group_commit:true () in
  let x = List.hd accounts in
  let s = Shard_group.shard_of g x in
  let t1 = Shard_group.begin_txn g (Activity.update "lost") in
  ignore (granted (Shard_group.invoke g t1 x (Bank_account.deposit 100)));
  Shard_group.commit_batch ~crash_before_sync:[ s ] g [ t1 ];
  (* appended but never synced: the commit is not acknowledged *)
  check_bool "not acknowledged" true (Gtxn.status t1 = Gtxn.Aborted);
  check_int "not in the committed projection" 0 (Shard_group.committed_count g);
  check_bool "shard went down" true (Shard_group.shard_crashed g s);
  check_int "durable image lost the whole transaction" 0
    (List.length (records_of (Shard_group.durable_shard g s)));
  (match Shard_group.recover_shard g s (Shard_group.durable_shard g s) with
  | Ok report ->
    check_int "nothing to replay" 0
      report.Recovery.shard.Recovery.base.Recovery.replayed
  | Error e -> Alcotest.fail (Fmt.str "%a" Recovery.pp_failure e));
  (* the recovered shard serves synced commits again *)
  let t2 = Shard_group.begin_txn g (Activity.update "after") in
  ignore (granted (Shard_group.invoke g t2 x (Bank_account.deposit 5)));
  Shard_group.commit_batch g [ t2 ];
  check_bool "acknowledged after sync" true (Gtxn.status t2 = Gtxn.Committed);
  let t3 = Shard_group.begin_txn g (Activity.read_only "audit") in
  check_bool "the lost deposit never applied" true
    (granted (Shard_group.invoke g t3 x Bank_account.balance) = Value.Int 5);
  Shard_group.abort g t3

let test_synced_commits_survive_crash () =
  let g = rw_group ~group_commit:true ~shards:3 () in
  let ts =
    List.mapi
      (fun i x ->
        let t = Shard_group.begin_txn g (Activity.update (Fmt.str "t%d" i)) in
        ignore (granted (Shard_group.invoke g t x (Bank_account.deposit (i + 1))));
        t)
      accounts
  in
  Shard_group.commit_batch g ts;
  List.iter
    (fun t -> check_bool "committed" true (Gtxn.status t = Gtxn.Committed))
    ts;
  (* an acknowledged commit is durable: crash + recover keeps it *)
  let before = Shard_group.committed_count g in
  let wal = Shard_group.crash_shard g 0 in
  (match Shard_group.recover_shard g 0 wal with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Fmt.str "%a" Recovery.pp_failure e));
  check_int "every acknowledged commit survived" before
    (Shard_group.committed_count g);
  check_int "no stuck legs" 0 (Shard_group.in_doubt_count g)

let balance g x =
  let t = Shard_group.begin_txn g (Activity.read_only "audit") in
  let v = granted (Shard_group.invoke g t x Bank_account.balance) in
  Shard_group.abort g t;
  v

let crash_and_recover g s =
  let wal = Shard_group.crash_shard g s in
  match Shard_group.recover_shard g s wal with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Fmt.str "%a" Recovery.pp_failure e)

(* [Shard_group.commit], not just the batch path, must sync before it
   acknowledges under group commit. *)
let test_fast_path_commit_synced () =
  let g = rw_group ~group_commit:true () in
  let x = List.hd accounts in
  let t1 = Shard_group.begin_txn g (Activity.update "fast") in
  ignore (granted (Shard_group.invoke g t1 x (Bank_account.deposit 7)));
  ignore (Shard_group.commit g t1);
  check_bool "acknowledged" true (Gtxn.status t1 = Gtxn.Committed);
  crash_and_recover g (Shard_group.shard_of g x);
  check_bool "the acknowledged deposit survived" true
    (balance g x = Value.Int 7)

let test_two_phase_commit_synced () =
  let g = rw_group ~group_commit:true ~shards:2 () in
  let on s = List.find (fun x -> Shard_group.shard_of g x = s) accounts in
  let x = on 0 and y = on 1 in
  let t1 = Shard_group.begin_txn g (Activity.update "both") in
  ignore (granted (Shard_group.invoke g t1 x (Bank_account.deposit 3)));
  ignore (granted (Shard_group.invoke g t1 y (Bank_account.deposit 4)));
  ignore (Shard_group.commit g t1);
  check_bool "acknowledged" true (Gtxn.status t1 = Gtxn.Committed);
  crash_and_recover g 0;
  crash_and_recover g 1;
  (* all or nothing: each shard kept its leg *)
  check_bool "shard 0 kept its leg" true (balance g x = Value.Int 3);
  check_bool "shard 1 kept its leg" true (balance g y = Value.Int 4);
  check_int "nothing left in doubt" 0 (Shard_group.in_doubt_count g)

(* The synthesized account protocol's conflict table is built lazily;
   grant decisions on two shard domains at once must not race to
   build it. *)
let test_derived_account_across_domains () =
  let proto = Option.get (Fault_harness.find_protocol "derived_account") in
  let g = Shard_group.create ~domains:2 ~shards:2 () in
  Fun.protect ~finally:(fun () -> Shard_group.shutdown g) @@ fun () ->
  let on s = List.find (fun x -> Shard_group.shard_of g x = s) accounts in
  let x = on 0 and y = on 1 in
  List.iter
    (fun a -> Shard_group.add_object g a proto.Fault_harness.make_object)
    [ x; y ];
  let ts =
    List.init 4 (fun i ->
        Shard_group.begin_txn g (Activity.update (Fmt.str "d%d" i)))
  in
  (* the second deposit on each shard consults the table *)
  Shard_group.invoke_batch g
    (List.map2
       (fun t (a, n) -> (t, a, Bank_account.deposit n))
       ts
       [ (x, 5); (x, 2); (y, 5); (y, 2) ])
  |> List.iter (fun r -> ignore (granted r));
  Shard_group.commit_batch g ts;
  List.iter
    (fun t -> check_bool "committed" true (Gtxn.status t = Gtxn.Committed))
    ts

let test_batch_apis_match_serial_calls () =
  (* one multi-shard transaction and one single-shard transaction
     through the batch APIs, cross-checked against plain invoke *)
  let g = rw_group ~group_commit:false ~shards:2 () in
  let on s = List.filter (fun x -> Shard_group.shard_of g x = s) accounts in
  let x, y, z =
    (List.hd (on 0), List.hd (on 1), List.nth (on 0) 1)
  in
  let t1 = Shard_group.begin_txn g (Activity.update "multi") in
  let t2 = Shard_group.begin_txn g (Activity.update "single") in
  let results =
    Shard_group.invoke_batch g
      [
        (t1, x, Bank_account.deposit 10);
        (t1, y, Bank_account.deposit 20);
        (t2, z, Bank_account.deposit 1);
      ]
  in
  check_int "all granted in entry order" 3 (List.length results);
  List.iter (fun r -> ignore (granted r)) results;
  check_int "t1 spans both shards" 2 (Gtxn.fanout t1);
  Shard_group.commit_batch g [ t1; t2 ];
  check_bool "multi committed" true (Gtxn.status t1 = Gtxn.Committed);
  check_bool "single committed" true (Gtxn.status t2 = Gtxn.Committed);
  check_bool "2pc drew an agreed timestamp" true
    (Shard_group.agreed_commit_ts g (Gtxn.gid t1) <> None);
  let t3 = Shard_group.begin_txn g (Activity.read_only "audit") in
  check_bool "multi's deposit landed" true
    (granted (Shard_group.invoke g t3 x Bank_account.balance) = Value.Int 10);
  check_bool "single's deposit landed" true
    (granted (Shard_group.invoke g t3 z Bank_account.balance) = Value.Int 1);
  Shard_group.abort g t3

(* --- determinism across domain counts ------------------------------- *)

let classic_fingerprint ~domains seed =
  let g = rw_group ~seed ~shards:3 ~domains () in
  let o = Sharded_driver.run g (Workload.banking ()) in
  let wals = List.init 3 (Shard_group.durable_shard g) in
  Shard_group.shutdown g;
  (o, wals)

let test_classic_path_domain_independent () =
  (* the pre-multicore driver, event-for-event: per-shard WALs are
     byte-identical at domains 1 and 4 *)
  let o1, w1 = classic_fingerprint ~domains:1 7 in
  let o4, w4 = classic_fingerprint ~domains:4 7 in
  check_int "same commits" o1.Sharded_driver.committed
    o4.Sharded_driver.committed;
  check_int "same aborts" o1.Sharded_driver.aborted_deadlock
    o4.Sharded_driver.aborted_deadlock;
  List.iteri
    (fun s (a, b) -> check_string (Fmt.str "shard %d WAL" s) a b)
    (List.combine w1 w4)

let mcore_fingerprint ~domains seed =
  let g = rw_group ~seed ~shards:4 ~domains ~group_commit:true () in
  let config =
    { Sharded_driver.default_config with jobs = 120; inflight = 16; seed }
  in
  let o = Sharded_driver.run_rounds ~config g (Workload.banking ()) in
  let projection =
    Fmt.str "%a"
      (Fmt.list (fun ppf (a, ops) ->
           Fmt.pf ppf "%a:%a" Activity.pp a
             (Fmt.list (fun ppf (x, op, v) ->
                  Fmt.pf ppf "(%a %a %a)" Object_id.pp x Operation.pp op
                    Value.pp v))
             ops))
      (Shard_group.committed_projection g)
  in
  let wals = List.init 4 (Shard_group.durable_shard g) in
  Shard_group.shutdown g;
  (o, projection, wals)

let prop_mcore_domain_independent =
  QCheck.Test.make ~count:6 ~name:"mcore driver: domains never change results"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let o1, p1, w1 = mcore_fingerprint ~domains:1 seed in
      let o4, p4, w4 = mcore_fingerprint ~domains:4 seed in
      (* everything but the wall clock: the printed outcome with
         elapsed zeroed covers every counter, histogram and window *)
      let show o = Fmt.str "%a" Sharded_driver.pp { o with Sharded_driver.elapsed = 0. } in
      show o1 = show o4 && p1 = p4 && List.for_all2 String.equal w1 w4)

(* --- the 4-domain stress test ---------------------------------------- *)

let money_delta ops =
  List.fold_left
    (fun acc (_, op, v) ->
      match (Operation.name op, Operation.args op) with
      | "deposit", [ Value.Int n ] when Value.equal v Value.ok -> acc + n
      | "withdraw", [ Value.Int n ] when Value.equal v Value.ok -> acc - n
      | _ -> acc)
    0 ops

let test_four_domain_banking_stress () =
  (* enough accounts that the window stays saturated with runnable
     transfers — the regime where group commit batches *)
  let accounts = Workload.account_ids 64 in
  let metrics = Obs.Shard_metrics.create ~shards:4 () in
  let g =
    Shard_group.create ~metrics ~seed:11 ~domains:4 ~group_commit:true
      ~shards:4 ()
  in
  List.iter
    (fun x ->
      Shard_group.add_object g x (fun log id ->
          Op_locking.rw log id (module Bank_account)))
    accounts;
  let config =
    { Sharded_driver.default_config with jobs = 300; inflight = 48; seed = 11 }
  in
  let o =
    Sharded_driver.run_rounds ~config g (Workload.banking ~accounts:64 ())
  in
  check_bool "made progress" true (o.Sharded_driver.committed > 100);
  check_bool "2pc transfers happened" true
    (o.Sharded_driver.committed_multi > 0);
  check_int "no stuck in-doubt legs" 0 (Shard_group.in_doubt_count g);
  check_int "tally matches" o.Sharded_driver.committed
    (Shard_group.committed_count g);
  (* conservation: the balances the shards answer now must equal the
     money the committed projection says entered minus what left — a
     torn transfer (one leg applied, one lost) breaks the equality *)
  let expected =
    List.fold_left
      (fun acc (_, ops) -> acc + money_delta ops)
      0
      (Shard_group.committed_projection g)
  in
  let actual =
    List.fold_left
      (fun acc x ->
        let t = Shard_group.begin_txn g (Activity.read_only "audit") in
        let v = granted (Shard_group.invoke g t x Bank_account.balance) in
        Shard_group.abort g t;
        match v with Value.Int n -> acc + n | _ -> acc)
      0 accounts
  in
  check_int "money is conserved across shards" expected actual;
  (* group commit did its job: one sync covered many commits *)
  check_bool "syncs per commit below one" true
    (Obs.Shard_metrics.syncs_per_commit metrics < 1.0);
  check_bool "batch histogram saw multi-record syncs" true
    (Obs.Metrics.Histogram.count (Obs.Shard_metrics.group_commit_batch metrics)
    > 0);
  Shard_group.shutdown g

let suite =
  [
    Alcotest.test_case "mailbox: fifo, bounded, close drains" `Quick
      test_mailbox_fifo_and_close;
    Alcotest.test_case "exec: per-shard order survives the pool" `Quick
      test_exec_per_shard_order;
    Alcotest.test_case "exec: inline mode is a direct call" `Quick
      test_exec_inline_is_direct;
    Alcotest.test_case "writer: append is volatile until sync" `Quick
      test_writer_append_is_volatile;
    Alcotest.test_case "writer: crash window loses the unsynced tail" `Quick
      test_writer_crash_window;
    Alcotest.test_case "group commit: crash before sync never acknowledged"
      `Quick test_crash_before_sync_never_acknowledged;
    Alcotest.test_case "group commit: acknowledged commits survive" `Quick
      test_synced_commits_survive_crash;
    Alcotest.test_case "group commit: Group.commit syncs the fast path"
      `Quick test_fast_path_commit_synced;
    Alcotest.test_case "group commit: Group.commit syncs 2PC votes" `Quick
      test_two_phase_commit_synced;
    Alcotest.test_case "batch APIs agree with serial calls" `Quick
      test_batch_apis_match_serial_calls;
    Alcotest.test_case "derived_account grants on two domains at once"
      `Quick test_derived_account_across_domains;
    Alcotest.test_case "classic path: WALs identical at 1 and 4 domains"
      `Quick test_classic_path_domain_independent;
    QCheck_alcotest.to_alcotest prop_mcore_domain_independent;
    Alcotest.test_case "4-domain banking stress: conserved and batched" `Slow
      test_four_domain_banking_stress;
  ]
