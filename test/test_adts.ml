(* Sequential semantics, commutativity tables and read/write
   classification of every abstract data type. *)

open Core
open Helpers

(* Replay a deterministic op sequence through a spec, returning the
   results. *)
let replay spec ops =
  let rec go frontier acc = function
    | [] -> List.rev acc
    | op :: rest -> (
      match Seq_spec.outcomes frontier op with
      | [] -> Alcotest.fail (Fmt.str "no outcome for %a" Operation.pp op)
      | (res, f) :: _ -> go f (res :: acc) rest)
  in
  go (Seq_spec.start spec) [] ops

let test_intset_semantics () =
  let results =
    replay Intset.spec
      [
        Intset.member 3; Intset.insert 3; Intset.member 3; Intset.insert 3;
        Intset.size; Intset.delete 3; Intset.member 3; Intset.size;
      ]
  in
  Alcotest.(check (list string))
    "set behaviour"
    [ "false"; "ok"; "true"; "ok"; "1"; "ok"; "false"; "0" ]
    (List.map Value.to_string results)

let test_intset_commutativity () =
  let open Intset in
  check_bool "insert/insert same" true (commutes (insert 1) (insert 1));
  check_bool "insert/insert diff" true (commutes (insert 1) (insert 2));
  check_bool "delete/delete" true (commutes (delete 1) (delete 1));
  check_bool "insert/delete same" false (commutes (insert 1) (delete 1));
  check_bool "insert/delete diff" true (commutes (insert 1) (delete 2));
  check_bool "member/member" true (commutes (member 1) (member 1));
  check_bool "member/insert same" false (commutes (member 1) (insert 1));
  check_bool "member/insert diff" true (commutes (member 1) (insert 2));
  check_bool "size/insert" false (commutes size (insert 1));
  check_bool "size/member" true (commutes size (member 1));
  check_bool "unknown op commutes with nothing" false
    (commutes (Operation.make "mystery" []) (member 1))

let test_intset_classify () =
  let open Intset in
  Alcotest.(check bool) "member reads" true (classify (member 1) = Adt_sig.Read);
  Alcotest.(check bool) "size reads" true (classify size = Adt_sig.Read);
  Alcotest.(check bool) "insert writes" true
    (classify (insert 1) = Adt_sig.Write);
  Alcotest.(check bool) "unknown writes" true
    (classify (Operation.make "mystery" []) = Adt_sig.Write)

let test_counter_semantics () =
  let results = replay Counter.spec [ Counter.increment; Counter.increment ] in
  Alcotest.(check (list string)) "increments count" [ "1"; "2" ]
    (List.map Value.to_string results);
  check_bool "increment never commutes" false
    (Counter.commutes Counter.increment Counter.increment)

let test_account_semantics () =
  let open Bank_account in
  let results =
    replay spec [ deposit 10; withdraw 4; withdraw 7; balance; withdraw 6 ]
  in
  Alcotest.(check (list string))
    "account behaviour"
    [ "ok"; "ok"; "insufficient_funds"; "6"; "ok" ]
    (List.map Value.to_string results)

let test_account_commutativity () =
  let open Bank_account in
  check_bool "deposit/deposit" true (commutes (deposit 1) (deposit 2));
  check_bool "withdraw/withdraw" false (commutes (withdraw 1) (withdraw 2));
  check_bool "deposit/withdraw" false (commutes (deposit 1) (withdraw 2));
  check_bool "balance/balance" true (commutes balance balance);
  check_bool "balance/deposit" false (commutes balance (deposit 1))

let test_account_invalid_amount () =
  Alcotest.check_raises "negative deposit"
    (Invalid_argument "Bank_account: negative amount") (fun () ->
      ignore (Bank_account.deposit (-1)));
  Alcotest.check_raises "negative withdrawal"
    (Invalid_argument "Bank_account: negative amount") (fun () ->
      ignore (Bank_account.withdraw (-5)))

let test_queue_semantics () =
  let open Fifo_queue in
  let results = replay spec [ dequeue; enqueue 1; enqueue 2; dequeue; dequeue; dequeue ] in
  Alcotest.(check (list string))
    "queue behaviour"
    [ "empty"; "ok"; "ok"; "1"; "2"; "empty" ]
    (List.map Value.to_string results)

let test_queue_commutativity () =
  let open Fifo_queue in
  check_bool "enqueue same value" true (commutes (enqueue 1) (enqueue 1));
  check_bool "enqueue diff values" false (commutes (enqueue 1) (enqueue 2));
  check_bool "dequeue/dequeue" false (commutes dequeue dequeue);
  check_bool "enqueue/dequeue" false (commutes (enqueue 1) dequeue)

let test_register_semantics () =
  let open Register in
  let results = replay spec [ read; write 7; read; write 7; read ] in
  Alcotest.(check (list string))
    "register behaviour" [ "0"; "ok"; "7"; "ok"; "7" ]
    (List.map Value.to_string results);
  check_bool "read/read" true (commutes read read);
  check_bool "blind same writes" true (commutes (write 1) (write 1));
  check_bool "different writes" false (commutes (write 1) (write 2));
  check_bool "read/write" false (commutes read (write 1))

let test_kv_map_semantics () =
  let open Kv_map in
  let results =
    replay spec [ get 1; put 1 10; get 1; put 1 20; get 1; size; remove 1; get 1 ]
  in
  Alcotest.(check (list string))
    "map behaviour"
    [ "none"; "ok"; "10"; "ok"; "20"; "1"; "ok"; "none" ]
    (List.map Value.to_string results)

let test_kv_map_commutativity () =
  let open Kv_map in
  check_bool "puts on distinct keys" true (commutes (put 1 5) (put 2 6));
  check_bool "identical puts" true (commutes (put 1 5) (put 1 5));
  check_bool "conflicting puts" false (commutes (put 1 5) (put 1 6));
  check_bool "get/put same key" false (commutes (get 1) (put 1 5));
  check_bool "get/put distinct keys" true (commutes (get 1) (put 2 5));
  check_bool "get/get same key" true (commutes (get 1) (get 1));
  check_bool "size/put" false (commutes size (put 1 5));
  check_bool "remove/remove same key" true (commutes (remove 1) (remove 1))

let test_semiqueue_semantics () =
  (* deq is genuinely non-deterministic: outcomes lists every element. *)
  let f = Seq_spec.start Semiqueue.spec in
  let f = Option.get (Seq_spec.advance f (Semiqueue.enq 1) Value.ok) in
  let f = Option.get (Seq_spec.advance f (Semiqueue.enq 2) Value.ok) in
  let outcomes = Seq_spec.outcomes f Semiqueue.deq in
  check_int "two possible answers" 2 (List.length outcomes);
  check_bool "determined is None for ambiguous deq" true
    (Option.is_none (Seq_spec.determined f Semiqueue.deq))

let test_frontier_api () =
  let f = Seq_spec.start Intset.spec in
  check_bool "determined result" true
    (match Seq_spec.determined f (Intset.member 5) with
    | Some (Value.Bool false) -> true
    | _ -> false);
  check_bool "advance on impossible result" true
    (Option.is_none (Seq_spec.advance f (Intset.member 5) (Value.Bool true)));
  check_bool "spec_of round-trips" true
    (String.equal (Seq_spec.type_name (Seq_spec.spec_of f)) "intset")

(* Every registry ADT: a random logged sequence over its probe
   alphabet — each step one of the permissible outcomes — keeps a
   one-state frontier, and the steps [Seq_spec.rebuild] gives for that
   state take the start to it. *)
let prop_rebuild_reaches_the_state =
  let domains = Array.of_list Lint_domain.all in
  QCheck.Test.make ~count:300
    ~name:"rebuild: logged sequences keep one state, rebuild reaches it"
    QCheck.(
      pair small_nat (list_of_size Gen.(0 -- 30) (pair small_nat small_nat)))
    (fun (d, steps) ->
      let d = domains.(d mod Array.length domains) in
      let alphabet = Array.of_list d.Lint_domain.alphabet in
      let start = Seq_spec.start d.Lint_domain.spec in
      let final =
        List.fold_left
          (fun f (i, j) ->
            let op = alphabet.(i mod Array.length alphabet) in
            match Seq_spec.outcomes f op with
            | [] -> f
            | outcomes ->
              let _, f' = List.nth outcomes (j mod List.length outcomes) in
              if Seq_spec.frontier_size f' <> 1 then
                QCheck.Test.fail_reportf "%s: %d states after %a"
                  d.Lint_domain.name (Seq_spec.frontier_size f') Operation.pp
                  op;
              f')
          start steps
      in
      match Seq_spec.rebuild final with
      | Error msg -> QCheck.Test.fail_reportf "%s: %s" d.Lint_domain.name msg
      | Ok rebuilt ->
        let again =
          List.fold_left
            (fun f (op, v) ->
              match Seq_spec.advance f op v with
              | Some f -> f
              | None ->
                QCheck.Test.fail_reportf "%s: rebuild step %a refused"
                  d.Lint_domain.name Operation.pp op)
            start rebuilt
        in
        Seq_spec.equal_frontier final again)

let suite =
  [
    Alcotest.test_case "intset semantics" `Quick test_intset_semantics;
    Alcotest.test_case "intset commutativity" `Quick test_intset_commutativity;
    Alcotest.test_case "intset classification" `Quick test_intset_classify;
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "account semantics" `Quick test_account_semantics;
    Alcotest.test_case "account commutativity" `Quick
      test_account_commutativity;
    Alcotest.test_case "account argument validation" `Quick
      test_account_invalid_amount;
    Alcotest.test_case "queue semantics" `Quick test_queue_semantics;
    Alcotest.test_case "queue commutativity" `Quick test_queue_commutativity;
    Alcotest.test_case "register" `Quick test_register_semantics;
    Alcotest.test_case "kv map semantics" `Quick test_kv_map_semantics;
    Alcotest.test_case "kv map commutativity" `Quick test_kv_map_commutativity;
    Alcotest.test_case "semiqueue non-determinism" `Quick
      test_semiqueue_semantics;
    Alcotest.test_case "frontier API" `Quick test_frontier_api;
    QCheck_alcotest.to_alcotest prop_rebuild_reaches_the_state;
  ]
