(* Crash recovery: rebuild object state from the (textual) event log. *)

open Core
open Helpers

let granted = Test_op_locking.granted

(* Run some escrow traffic including an abort and an in-flight
   transaction, "crash", recover into a fresh system, and compare
   balances. *)
let test_escrow_crash_restart () =
  let sys = System.create () in
  System.add_object sys (Escrow_account.make (System.log sys) y);
  let t0 = System.begin_txn sys (Activity.update "a0") in
  ignore (granted (System.invoke sys t0 y (Bank_account.deposit 100)));
  System.commit sys t0;
  let t1 = System.begin_txn sys (Activity.update "a1") in
  ignore (granted (System.invoke sys t1 y (Bank_account.withdraw 30)));
  System.commit sys t1;
  (* Aborted work must not survive recovery. *)
  let t2 = System.begin_txn sys (Activity.update "a2") in
  ignore (granted (System.invoke sys t2 y (Bank_account.deposit 1000)));
  System.abort sys t2;
  (* In-flight (uncommitted) work must not survive either. *)
  let t3 = System.begin_txn sys (Activity.update "a3") in
  ignore (granted (System.invoke sys t3 y (Bank_account.withdraw 5)));
  (* --- crash: only the durable text of the log survives --- *)
  let wal = Notation.history_to_string (System.history sys) in
  let sys' = System.create () in
  System.add_object sys' (Escrow_account.make (System.log sys') y);
  let h =
    match Notation.history_of_string wal with
    | Ok h -> h
    | Error e -> Alcotest.failf "%a" Notation.pp_error e
  in
  (match Recovery.replay Recovery.Commit_order sys' h with
  | Ok r -> check_int "two transactions replayed" 2 r.Recovery.replayed
  | Error f -> Alcotest.failf "%a" Recovery.pp_failure f);
  let audit = System.begin_txn sys' (Activity.update "audit") in
  (match granted (System.invoke sys' audit y Bank_account.balance) with
  | Value.Int 70 -> ()
  | v -> Alcotest.fail (Fmt.str "expected 70, got %a" Value.pp v));
  System.commit sys' audit;
  check_bool "recovered history is dynamic atomic" true
    (Atomicity.dynamic_atomic account_env (System.history sys'))

let test_set_recovery_preserves_contents () =
  let sys = System.create () in
  System.add_object sys (Da_set.make (System.log sys) x);
  let run name steps =
    let t = System.begin_txn sys (Activity.update name) in
    List.iter (fun op -> ignore (granted (System.invoke sys t x op))) steps;
    System.commit sys t
  in
  run "a" [ Intset.insert 1; Intset.insert 2 ];
  run "b" [ Intset.delete 1 ];
  run "c" [ Intset.insert 3 ];
  let h = System.history sys in
  let sys' = System.create () in
  System.add_object sys' (Da_set.make (System.log sys') x);
  (match Recovery.replay Recovery.Commit_order sys' h with
  | Ok r -> check_int "three transactions" 3 r.Recovery.replayed
  | Error f -> Alcotest.failf "%a" Recovery.pp_failure f);
  let t = System.begin_txn sys' (Activity.update "probe") in
  let probe op =
    Value.to_string (granted (System.invoke sys' t x op))
  in
  Alcotest.(check (list string))
    "contents preserved" [ "false"; "true"; "true"; "2" ]
    [ probe (Intset.member 1); probe (Intset.member 2);
      probe (Intset.member 3); probe Intset.size ];
  System.commit sys' t

let test_static_recovery_in_timestamp_order () =
  (* Under static atomicity the valid serialization is timestamp order,
     which can differ from commit order. *)
  let sys = System.create ~policy:`Static () in
  System.add_object sys (Multiversion.make (System.log sys) x Intset.spec);
  let ta = System.begin_txn sys (Activity.update "a") in
  let tb = System.begin_txn sys (Activity.update "b") in
  (* b (later timestamp) runs and commits first. *)
  (match granted (System.invoke sys tb x (Intset.member 3)) with
  | Value.Bool false -> ()
  | v -> Alcotest.fail (Fmt.str "expected false, got %a" Value.pp v));
  System.commit sys tb;
  (* a (earlier timestamp) inserts a different element — allowed. *)
  ignore (granted (System.invoke sys ta x (Intset.insert 5)));
  System.commit sys ta;
  let h = System.history sys in
  let sys' = System.create ~policy:`Static () in
  System.add_object sys' (Multiversion.make (System.log sys') x Intset.spec);
  (match Recovery.replay Recovery.Timestamp_order sys' h with
  | Ok r -> check_int "two transactions" 2 r.Recovery.replayed
  | Error f -> Alcotest.failf "%a" Recovery.pp_failure f);
  check_bool "recovered history static atomic" true
    (Atomicity.static_atomic set_env (System.history sys'))

let test_divergence_detected () =
  (* Recovering a log against an object with different semantics must
     fail loudly, not silently diverge. *)
  let sys = System.create () in
  System.add_object sys (Escrow_account.make (System.log sys) y);
  let t = System.begin_txn sys (Activity.update "a") in
  ignore (granted (System.invoke sys t y (Bank_account.deposit 7)));
  ignore (granted (System.invoke sys t y Bank_account.balance));
  System.commit sys t;
  let h = System.history sys in
  (* "Recover" into a fresh system whose account already has money —
     the balance answer diverges from the log. *)
  let sys' = System.create () in
  System.add_object sys' (Escrow_account.make (System.log sys') y);
  let seed = System.begin_txn sys' (Activity.update "seed") in
  ignore (granted (System.invoke sys' seed y (Bank_account.deposit 1)));
  System.commit sys' seed;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match Recovery.replay Recovery.Commit_order sys' h with
  | Ok _ -> Alcotest.fail "expected divergence"
  | Error f ->
    let msg = Fmt.str "%a" Recovery.pp_failure f in
    check_bool "describes the divergence" true
      (contains msg "divergence" || contains msg "refused"
      || contains msg "stalled")

(* The WAL's event records carry each activity's kind.  The paper's
   naming convention (r, s, t read-only) covers most names; an update
   named [seed1] or [transfer7] and a read-only [q12] break it, and
   must still decode with the kind they were written with. *)
let test_wal_keeps_activity_kinds () =
  let seed1 = Activity.update "seed1"
  and transfer7 = Activity.update "transfer7"
  and q12 = Activity.read_only "q12" in
  let records =
    List.map
      (fun e -> Wal.Event e)
      [
        Event.invoke seed1 y (Bank_account.deposit 5);
        Event.respond seed1 y Value.ok;
        Event.commit seed1 y;
        Event.invoke transfer7 y (Bank_account.withdraw 1);
        Event.invoke q12 y Bank_account.balance;
        Event.invoke a y (Bank_account.deposit 2);
        Event.invoke r y Bank_account.balance;
      ]
  in
  let text = Wal.encode_records records in
  match Wal.decode_records text with
  | Ok (decoded, Wal.Intact) ->
    List.iter2
      (fun written read ->
        match (written, read) with
        | Wal.Event w, Wal.Event e ->
          check_bool
            (Fmt.str "%a keeps its kind" Event.pp w)
            (Activity.is_read_only (Event.activity w))
            (Activity.is_read_only (Event.activity e))
        | _ -> Alcotest.fail "an event decoded as a control record")
      records decoded;
    (* Only records that break the convention carry a kind tag.  A
       record's body follows its 8-digit checksum and a space. *)
    let lines = String.split_on_char '\n' text in
    List.iter
      (fun body ->
        check_bool body true
          (List.exists
             (fun l ->
               String.length l >= 9
               && String.sub l 9 (String.length l - 9) = body)
             lines))
      [
        "0 u <deposit(5),y,seed1>";
        "4 r <balance,y,q12>";
        "5 <deposit(2),y,a>";
        "6 <balance,y,r>";
      ]
  | Ok (_, Wal.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error e -> Alcotest.fail (Fmt.str "decode failed: %a" Wal.pp_error e)

(* A hybrid shard commits an update whose name reads as read-only by
   the convention; recovery from its WAL must replay it as an update. *)
let test_hybrid_recovers_unconventional_update () =
  let g = Shard_group.create ~policy:`Hybrid ~shards:1 () in
  Shard_group.add_object g y (fun log id ->
      Hybrid.of_adt log id (module Bank_account));
  let t = Shard_group.begin_txn g (Activity.update "seed1") in
  (match Shard_group.invoke g t y (Bank_account.deposit 5) with
  | Shard_group.Granted _ -> ()
  | Shard_group.Wait _ | Shard_group.Refused _ ->
    Alcotest.fail "deposit not granted");
  Shard_group.commit g t;
  let wal = Shard_group.crash_shard g 0 in
  (match Shard_group.recover_shard g 0 wal with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Fmt.str "%a" Recovery.pp_failure e));
  let audit = Shard_group.begin_txn g (Activity.read_only "audit") in
  (match Shard_group.invoke g audit y Bank_account.balance with
  | Shard_group.Granted v ->
    check_bool "the deposit survived" true (Value.equal v (Value.Int 5))
  | Shard_group.Wait _ | Shard_group.Refused _ ->
    Alcotest.fail "balance not granted");
  Shard_group.abort g audit

let suite =
  [
    Alcotest.test_case "escrow crash/restart" `Quick test_escrow_crash_restart;
    Alcotest.test_case "set contents preserved" `Quick
      test_set_recovery_preserves_contents;
    Alcotest.test_case "static recovery in timestamp order" `Quick
      test_static_recovery_in_timestamp_order;
    Alcotest.test_case "divergence detected" `Quick test_divergence_detected;
    Alcotest.test_case "WAL keeps each activity's kind" `Quick
      test_wal_keeps_activity_kinds;
    Alcotest.test_case "hybrid shard recovers an update named seed1" `Quick
      test_hybrid_recovers_unconventional_update;
  ]
