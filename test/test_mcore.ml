(* The multicore runtime: mailbox/executor plumbing, the group's
   synced-before-acknowledged contract under group commit,
   crash-before-sync fault injection, domain-count independence of
   results (the determinism boundary), and the 4-domain banking stress
   test. *)

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
  check_int "four domains, the caller's included" 4
    (Shard_exec.domain_count exec);
  (* Each list is only ever touched by its shard's owner domain; the
     phase's join gives the main domain a consistent view. *)
  let seen = Array.init shards (fun _ -> ref []) in
  Shard_exec.run_phase exec
    (List.concat_map
       (fun i ->
         List.init shards (fun s -> (s, fun () -> seen.(s) := i :: !(seen.(s)))))
       (List.init 50 (fun i -> i)));
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

(* One phase over shards the caller owns and shards a worker owns:
   each shard's thunks still run in list order, the caller's on the
   calling domain and the rest elsewhere. *)
let test_exec_mixed_owners_keep_order () =
  let shards = 4 in
  let exec = Shard_exec.create ~domains:2 ~shards () in
  let me = (Domain.self () :> int) in
  let seen = Array.init shards (fun _ -> ref []) in
  let where = Array.make shards (-1) in
  Shard_exec.run_phase exec
    (List.concat_map
       (fun i ->
         List.init shards (fun s ->
             ( s,
               fun () ->
                 where.(s) <- (Domain.self () :> int);
                 seen.(s) := i :: !(seen.(s)) )))
       (List.init 20 (fun i -> i)));
  Shard_exec.shutdown exec;
  Array.iter
    (fun l ->
      Alcotest.(check (list int)) "list order per shard"
        (List.init 20 (fun i -> i))
        (List.rev !l))
    seen;
  check_bool "even shards run on the caller" true
    (where.(0) = me && where.(2) = me);
  check_bool "odd shards run on the worker" true
    (where.(1) <> me && where.(1) = where.(3))

let test_exec_first_failure_after_all () =
  let exec = Shard_exec.create ~domains:2 ~shards:4 () in
  let ran = Array.make 4 false in
  let outcome =
    match
      Shard_exec.run_phase exec
        [
          (3, fun () -> failwith "first");
          (0, fun () -> failwith "second");
          (1, fun () -> ran.(1) <- true);
          (2, fun () -> ran.(2) <- true);
        ]
    with
    | () -> "no failure"
    | exception Failure m -> m
  in
  Shard_exec.shutdown exec;
  check_string "the first failure in list order" "first" outcome;
  check_bool "every other thunk ran" true (ran.(1) && ran.(2))

let test_exec_two_domains_one_worker () =
  let shards = 8 in
  let exec = Shard_exec.create ~domains:2 ~shards () in
  let ids = Array.make shards (-1) in
  Shard_exec.run_phase exec
    (List.init shards (fun s -> (s, fun () -> ids.(s) <- (Domain.self () :> int))));
  let after_phase = Shard_exec.jobs_posted exec in
  Shard_exec.call exec ~shard:0 ignore;
  Shard_exec.call exec ~shard:1 ignore;
  let after_calls = Shard_exec.jobs_posted exec in
  Shard_exec.shutdown exec;
  check_int "two domains execute shard work" 2 (Shard_exec.domain_count exec);
  check_int "the caller and one worker ran the shards" 2
    (List.length (List.sort_uniq compare (Array.to_list ids)));
  check_int "one job per worker per phase" 1 after_phase;
  check_int "a call on the caller's shard costs no job" 1 (after_calls - after_phase)

let test_exec_inline_is_direct () =
  let exec = Shard_exec.create ~shards:3 () in
  check_int "inline mode" 1 (Shard_exec.domain_count exec);
  check_int "runs on the caller" 7
    (Shard_exec.call exec ~shard:1 (fun () -> 7));
  check_int "no mailbox" 0 (Shard_exec.mailbox_depth exec ~shard:1);
  Shard_exec.shutdown exec

(* --- group commit at the group level -------------------------------- *)

let records_of text =
  match Wal.decode_records text with
  | Ok (records, Wal.Intact) -> records
  | Ok (_, _) -> Alcotest.fail "durable image not intact"
  | Error e -> Alcotest.fail (Fmt.str "%a" Wal.pp_error e)

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
  Shard_group.commit g t1;
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
  Shard_group.commit g t1;
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

(* --- deadlock search: the mirror against the merged snapshots ------- *)

(* The search as it was before the group mirrored waits-for edges:
   merge every live shard's waits-for snapshot through the leg index,
   lifted to global transactions, then a DFS with an explicit path.  The
   test rebuilds the leg index from the transactions it holds, the legs
   of active ones.  The group also indexes in-doubt legs, but a
   prepared leg neither waits nor blocks in a snapshot, so leaving them
   out changes nothing. *)
let oracle_deadlock g live =
  let shards = Shard_group.shard_count g in
  let index = Array.init shards (fun _ -> Hashtbl.create 16) in
  List.iter
    (fun t ->
      if Gtxn.is_active t then
        List.iter
          (fun (s, leg) -> Hashtbl.replace index.(s) (Txn.id leg) t)
          (Gtxn.legs t))
    live;
  let edges = Hashtbl.create 16 in
  let nodes = ref [] in
  for s = 0 to shards - 1 do
    if not (Shard_group.shard_crashed g s) then
      List.iter
        (fun (w, bs) ->
          match Hashtbl.find_opt index.(s) w with
          | None -> ()
          | Some gw ->
            let targets = List.filter_map (Hashtbl.find_opt index.(s)) bs in
            let gid = Gtxn.gid gw in
            if not (Hashtbl.mem edges gid) then nodes := gw :: !nodes;
            let prev = Option.value ~default:[] (Hashtbl.find_opt edges gid) in
            Hashtbl.replace edges gid (targets @ prev))
        (System.waits_snapshot (Shard_group.system g s))
  done;
  let color = Hashtbl.create 16 in
  let rec dfs path t =
    let gid = Gtxn.gid t in
    match Hashtbl.find_opt color gid with
    | Some `Done -> None
    | Some `Gray ->
      let rec cut = function
        | [] -> []
        | x :: _ when Gtxn.equal x t -> [ x ]
        | x :: rest -> x :: cut rest
      in
      Some (List.rev (cut path))
    | None ->
      Hashtbl.replace color gid `Gray;
      let rec try_succs = function
        | [] ->
          Hashtbl.replace color gid `Done;
          None
        | s :: rest -> (
          match dfs (t :: path) s with Some _ as c -> c | None -> try_succs rest)
      in
      try_succs (Option.value ~default:[] (Hashtbl.find_opt edges gid))
  in
  List.find_map (dfs []) (List.rev !nodes)

let escrow_group ~domains ~shards accounts =
  let g = Shard_group.create ~seed:3 ~domains ~shards () in
  List.iter (fun x -> Shard_group.add_object g x Escrow_account.make) accounts;
  g

(* A seeded run of random steps — invokes in batches, commits of
   granted transactions, plain aborts, deadlock-victim aborts, and 2PC
   rounds whose coordinator dies after PREPARE (resolved later) — over
   a few escrow accounts on three shards.  After every step the
   mirror's cycle must be the oracle's.  [None] when they always agree,
   else the first disagreement. *)
let deadlock_search_run ~domains seed =
  let accounts = Workload.account_ids 4 in
  let g = escrow_group ~domains ~shards:3 accounts in
  Fun.protect ~finally:(fun () -> Shard_group.shutdown g) @@ fun () ->
  let rng = Rng.create seed in
  let live = ref [] and names = ref 0 and pending = Hashtbl.create 16 in
  let gids = Option.map (List.map Gtxn.gid) in
  let disagreement = ref None in
  let check step =
    let got = gids (Shard_group.find_deadlock g) in
    let want = gids (oracle_deadlock g !live) in
    if got <> want && !disagreement = None then
      disagreement :=
        Some
          (Fmt.str "step %d: mirror %a, oracle %a" step
             Fmt.(option ~none:(any "none") (list ~sep:comma int))
             got
             Fmt.(option ~none:(any "none") (list ~sep:comma int))
             want)
  in
  let active () = List.filter Gtxn.is_active !live in
  let pending_of t =
    List.filter_map
      (fun x ->
        Option.map (fun op -> (t, x, op)) (Hashtbl.find_opt pending (Gtxn.gid t, x)))
      accounts
  in
  let waiting t = pending_of t <> [] in
  let some_of xs = List.filter (fun _ -> Rng.bool rng) xs in
  let amount () = Rng.int_range rng 1 5 in
  for step = 1 to 60 do
    (match Rng.int rng 9 with
    | 0 | 1 when List.length (active ()) < 8 ->
      incr names;
      live :=
        Shard_group.begin_txn g (Activity.update (Fmt.str "u%d" !names)) :: !live
    | 0 | 1 | 2 | 3 | 4 ->
      (* One or two objects per transaction, so a transaction can wait
         on two shards at once.  Activities are sequential: a waiting
         transaction retries its pending operations and nothing else. *)
      let entries =
        List.concat_map
          (fun t ->
            match pending_of t with
            | _ :: _ as retries -> retries
            | [] ->
              let x = Rng.pick rng accounts in
              let xs =
                if Rng.bool rng then [ x ]
                else [ x; Rng.pick rng (List.filter (( != ) x) accounts) ]
              in
              List.map
                (fun x ->
                  let op =
                    match Rng.int rng 3 with
                    | 0 -> Bank_account.deposit (amount ())
                    | 1 -> Bank_account.withdraw (amount ())
                    | _ -> Bank_account.balance
                  in
                  (t, x, op))
                xs)
          (some_of (active ()))
      in
      List.iter2
        (fun (t, x, op) r ->
          match r with
          | Shard_group.Wait _ -> Hashtbl.replace pending (Gtxn.gid t, x) op
          | Shard_group.Granted _ -> Hashtbl.remove pending (Gtxn.gid t, x)
          | Shard_group.Refused _ -> if Gtxn.is_active t then Shard_group.abort g t)
        entries
        (Shard_group.invoke_batch g entries)
    | 5 ->
      Shard_group.commit_batch g
        (some_of (List.filter (fun t -> not (waiting t)) (active ())))
    | 6 -> (
      match active () with
      | _ :: _ as ts when Rng.int rng 3 = 0 -> Shard_group.abort g (Rng.pick rng ts)
      | _ -> ())
    | 7 -> (
      match
        List.filter (fun t -> Gtxn.fanout t >= 2 && not (waiting t)) (active ())
      with
      | t :: _ when Rng.bool rng ->
        (* The coordinator dies after PREPARE: the legs stay prepared,
           indexed, and in other transactions' way. *)
        Shard_group.commit
          ~fault:{ Tpc.no_fault with Tpc.f_coordinator_crash = Tpc.After_prepare }
          g t
      | _ -> ignore (Shard_group.resolve_in_doubt g))
    | _ -> (
      match Shard_group.find_deadlock g with
      | Some cycle -> Shard_group.abort ~reason:"deadlock" g (Shard_group.victim cycle)
      | None -> ()));
    live := active ();
    check step
  done;
  !disagreement

let prop_deadlock_search_matches_oracle =
  QCheck.Test.make ~count:60
    ~name:"deadlock search: the mirror finds the merged snapshots' cycle"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      List.for_all
        (fun domains ->
          match deadlock_search_run ~domains seed with
          | None -> true
          | Some msg -> QCheck.Test.fail_reportf "domains %d: %s" domains msg)
        [ 1; 2 ])

(* A cross-shard cycle at two domains: the search finds it and posts no
   job to the worker. *)
let test_find_deadlock_posts_no_job () =
  let accounts = Workload.account_ids 8 in
  let g = escrow_group ~domains:2 ~shards:2 accounts in
  Fun.protect ~finally:(fun () -> Shard_group.shutdown g) @@ fun () ->
  let on s = List.find (fun x -> Shard_group.shard_of g x = s) accounts in
  let x = on 0 and y = on 1 in
  let t1 = Shard_group.begin_txn g (Activity.update "u1") in
  let t2 = Shard_group.begin_txn g (Activity.update "u2") in
  Shard_group.invoke_batch g
    [ (t1, x, Bank_account.deposit 5); (t2, y, Bank_account.deposit 5) ]
  |> List.iter (fun r -> ignore (granted r));
  let waits =
    Shard_group.invoke_batch g
      [ (t1, y, Bank_account.withdraw 3); (t2, x, Bank_account.withdraw 3) ]
  in
  check_bool "both withdrawals wait" true
    (List.for_all
       (function Shard_group.Wait _ -> true | _ -> false)
       waits);
  let before = Shard_group.jobs_posted g in
  let cycle = Shard_group.find_deadlock g in
  check_int "no job posted" before (Shard_group.jobs_posted g);
  check_bool "the cross-shard cycle is found" true
    (Option.map (fun c -> List.sort compare (List.map Gtxn.gid c)) cycle
    = Some [ Gtxn.gid t1; Gtxn.gid t2 ])

(* --- positioned record reads against the merged list ----------------- *)

(* The durable record stream as the group built it before it served
   positions: the shard's whole history and its control log, cut to
   the synced prefix under group commit, merged by event-log length at
   append. *)
let oracle_records g s =
  let evs = History.to_list (System.history (Shard_group.system g s)) in
  let ctrls = Shard_group.control_log g s in
  let evs, ctrls =
    match Shard_group.synced_marks g s with
    | Some (events, controls) -> (Wal.take events evs, Wal.take controls ctrls)
    | None -> (evs, ctrls)
  in
  let rec merge idx evs ctrls acc =
    match (evs, ctrls) with
    | _, (p, c) :: ctl when p <= idx -> merge idx evs ctl (Wal.Control c :: acc)
    | e :: etl, _ -> merge (idx + 1) etl ctrls (Wal.Event e :: acc)
    | [], (_, c) :: ctl -> merge idx [] ctl (Wal.Control c :: acc)
    | [], [] -> List.rev acc
  in
  merge 0 evs ctrls []

(* A seeded run of random steps over a 3-shard group — batched invokes,
   single- and multi-shard batch commits (some losing a shard before
   the sync), message-round commits whose coordinator or a participant
   crashes, aborts, checkpoints (some losing their marker to a crash),
   crashes and recoveries that keep legs in doubt, and in-doubt
   resolution.  After
   every step, every shard's [record_count] must be the oracle's length
   and [records_from] at random positions and lengths the oracle's
   slice.  [None] when they always agree, else the first
   disagreement. *)
let positioned_reads_run ~proto ~group_commit ~domains ~archive seed =
  let p = Option.get (Fault_harness.find_protocol proto) in
  let accounts = Workload.account_ids 6 in
  let g =
    Shard_harness.group ~seed ~domains ~group_commit
      ~checkpoint:{ Shard_group.every = 6; archive }
      ~shards:3 p accounts
  in
  Fun.protect ~finally:(fun () -> Shard_group.shutdown g) @@ fun () ->
  let rng = Rng.create seed in
  let live = ref [] and names = ref 0 and pending = Hashtbl.create 16 in
  let disagreement = ref None in
  let fail step fmt =
    Fmt.kstr
      (fun msg ->
        if !disagreement = None then
          disagreement := Some (Fmt.str "step %d: %s" step msg))
      fmt
  in
  let check step =
    for s = 0 to 2 do
      let want = oracle_records g s in
      let n = List.length want in
      if Shard_group.record_count g s <> n then
        fail step "shard %d: record_count %d, oracle %d" s
          (Shard_group.record_count g s) n;
      for _ = 1 to 4 do
        let pos = Rng.int rng (n + 3) and max = Rng.int rng (n + 3) in
        if
          Shard_group.records_from g s ~pos ~max
          <> Wal.take max (Wal.drop_n pos want)
        then fail step "shard %d: records_from ~pos:%d ~max:%d" s pos max
      done;
      let base = Shard_group.wal_base g s in
      if
        Shard_group.durable_shard g s
        <> Wal.encode_records ~label:(Shard_group.shard_label s) ~base
             (Wal.drop_n base want)
      then fail step "shard %d: durable_shard" s
    done
  in
  let active () = List.filter Gtxn.is_active !live in
  (* Activities are sequential: a waiting transaction retries its
     pending operation, invokes nothing else, and does not commit until
     it is granted.  (Recovery replays well-formed histories only.) *)
  let ready () =
    List.filter (fun t -> not (Hashtbl.mem pending (Gtxn.gid t))) (active ())
  in
  let some_of xs = List.filter (fun _ -> Rng.bool rng) xs in
  (* Recover from the durable WAL, half the time keeping prepared legs
     in doubt instead of resolving them from the decision log.  Whether
     recovery accepts the log is not this test's subject (the random
     schedules reach some logs it refuses, listed in ROADMAP.md item
     7); a shard it refuses stays down, and its reads are still
     checked. *)
  let crash_and_recover s =
    let text =
      if Shard_group.shard_crashed g s then Shard_group.durable_shard g s
      else Shard_group.crash_shard g s
    in
    let resolve = if Rng.bool rng then Some (fun _ -> `Unknown) else None in
    ignore (Shard_group.recover_shard ?resolve g s text)
  in
  let live_shards () =
    List.filter (fun s -> not (Shard_group.shard_crashed g s)) [ 0; 1; 2 ]
  in
  for step = 1 to 60 do
    (* Keep six transactions running; one in four is read-only. *)
    while List.length (active ()) < 6 do
      incr names;
      let a =
        if Rng.int rng 4 = 0 then Activity.read_only (Fmt.str "q%d" !names)
        else Activity.update (Fmt.str "u%d" !names)
      in
      live := Shard_group.begin_txn g a :: !live
    done;
    (match Rng.int rng 14 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
      let entries =
        List.map
          (fun t ->
            match Hashtbl.find_opt pending (Gtxn.gid t) with
            | Some (x, op) -> (t, x, op)
            | None ->
              let op =
                if Activity.is_read_only (Gtxn.activity t) then
                  Bank_account.balance
                else if Rng.bool rng then
                  Bank_account.deposit (Rng.int_range rng 1 5)
                else Bank_account.withdraw (Rng.int_range rng 1 3)
              in
              (t, Rng.pick rng accounts, op))
          (some_of (active ()))
      in
      List.iter2
        (fun (t, x, op) r ->
          match r with
          | Shard_group.Wait _ -> Hashtbl.replace pending (Gtxn.gid t) (x, op)
          | Shard_group.Granted _ -> Hashtbl.remove pending (Gtxn.gid t)
          | Shard_group.Refused _ -> if Gtxn.is_active t then Shard_group.abort g t)
        entries
        (Shard_group.invoke_batch g entries)
    | 6 | 7 | 8 ->
      (* Under group commit, now and then a shard dies before the
         batch's sync. *)
      let crash_before_sync =
        match live_shards () with
        | _ :: _ as ss when group_commit && Rng.int rng 6 = 0 -> [ Rng.pick rng ss ]
        | _ -> []
      in
      Shard_group.commit_batch ~crash_before_sync g (some_of (ready ()))
    | 9 -> (
      match List.filter (fun t -> Gtxn.fanout t >= 2) (ready ()) with
      | t :: _ ->
        let fault =
          if Rng.bool rng then
            { Tpc.no_fault with Tpc.f_coordinator_crash = Tpc.After_prepare }
          else
            {
              Tpc.no_fault with
              Tpc.f_participant_crash =
                Some
                  ( Rng.int rng 2,
                    if Rng.bool rng then `Before_vote else `After_vote );
            }
        in
        Shard_group.commit ~fault g t
      | [] -> ignore (Shard_group.resolve_in_doubt g))
    | 10 -> (
      match active () with
      | _ :: _ as ts -> Shard_group.abort g (Rng.pick rng ts)
      | [] -> ())
    | 11 -> (
      match live_shards () with
      | _ :: _ as ss ->
        let s = Rng.pick rng ss in
        if Rng.int rng 3 > 0 then ignore (Shard_group.checkpoint_shard g s)
        else begin
          (* The crash window: the file reached disk, its marker did
             not, and the shard goes down before it writes again. *)
          ignore (Shard_group.checkpoint_shard ~lose_marker:true g s);
          check step;
          crash_and_recover s
        end
      | [] -> ())
    | 12 ->
      (* Crash a shard, or pick up one a fault already took down. *)
      crash_and_recover (Rng.int rng 3)
    | _ -> ignore (Shard_group.resolve_in_doubt g));
    live := active ();
    check step
  done;
  !disagreement

let prop_positioned_reads_match_oracle =
  QCheck.Test.make ~count:12
    ~name:"records_from: positioned reads equal the merged record list"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      List.for_all
        (fun (proto, group_commit, domains) ->
          match
            positioned_reads_run ~proto ~group_commit ~domains
              ~archive:(seed mod 2 = 0) seed
          with
          | None -> true
          | Some msg ->
            QCheck.Test.fail_reportf "%s, group commit %b, domains %d: %s" proto
              group_commit domains msg)
        (List.concat_map
           (fun proto ->
             List.concat_map
               (fun gc -> [ (proto, gc, 1); (proto, gc, 2) ])
               [ false; true ])
           [ "hybrid"; "escrow" ]))

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
    Alcotest.test_case "exec: a phase mixing caller and worker shards keeps order"
      `Quick test_exec_mixed_owners_keep_order;
    Alcotest.test_case "exec: first failure re-raised after every job ran"
      `Quick test_exec_first_failure_after_all;
    Alcotest.test_case "exec: two domains over eight shards, one worker"
      `Quick test_exec_two_domains_one_worker;
    Alcotest.test_case "find_deadlock posts no job" `Quick
      test_find_deadlock_posts_no_job;
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
    QCheck_alcotest.to_alcotest prop_deadlock_search_matches_oracle;
    QCheck_alcotest.to_alcotest prop_positioned_reads_match_oracle;
    Alcotest.test_case "4-domain banking stress: conserved and batched" `Slow
      test_four_domain_banking_stress;
  ]
