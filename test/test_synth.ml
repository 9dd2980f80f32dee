(* The protocol-synthesis pass end to end: determinism of the compiled
   tables (twice in one process, and across spawned multicore domains),
   the Derived_locking runtime's concurrency win over rw locking, the
   budgeted stabilized-depth search surfaced through lint, a corrupted
   table caught by the probes, and the ISSUE's headline acceptance —
   every derived_* protocol certifies at 0 unsound with looseness
   strictly below generic commutativity on the account alphabet. *)

open Core

let to_alcotest = QCheck_alcotest.to_alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fresh_table (d : Lint_domain.t) ~depth =
  Synthesize_table.synthesize d.spec ~alphabet:d.alphabet ~depth
    ~budget:(Synthesize_table.budget_for depth)

(* --- determinism --------------------------------------------------- *)

let synth_deterministic =
  QCheck2.Test.make
    ~name:"synthesis is deterministic (two fresh compilations agree)"
    ~count:12
    ~print:(fun (name, depth) -> Fmt.str "%s at depth %d" name depth)
    QCheck2.Gen.(
      pair
        (oneofl (List.map (fun d -> d.Lint_domain.name) Lint_domain.all))
        (int_range 1 2))
    (fun (name, depth) ->
      let d = Lint_domain.find_exn name in
      Synthesize_table.equal (fresh_table d ~depth) (fresh_table d ~depth))

(* The memoized synthesis that lint, the catalog, the bench and the CLI
   all share must be the same table a fresh compilation produces — a
   multi-protocol lint run and a single-protocol one see identical
   matrices. *)
let test_memoized_equals_fresh () =
  List.iter
    (fun name ->
      let d = Lint_domain.find_exn name in
      let memoized = Synthesize.table (Synthesize.of_domain ~depth:3 d) in
      Alcotest.(check bool)
        (name ^ ": memoized synthesis = fresh compilation")
        true
        (Synthesize_table.equal memoized (fresh_table d ~depth:3)))
    [ "account"; "register" ]

(* Compilation on a spawned multicore domain agrees with the host
   domain: nothing in the exploration depends on ambient state. *)
let test_deterministic_across_domains () =
  let d = Lint_domain.find_exn "account" in
  let spawned = Domain.spawn (fun () -> fresh_table d ~depth:2) in
  let here = fresh_table d ~depth:2 in
  Alcotest.(check bool)
    "table compiled on a spawned domain agrees" true
    (Synthesize_table.equal here (Domain.join spawned))

(* --- the runtime win ----------------------------------------------- *)

let acct = Object_id.v "acct"

(* The escrow-style history: two transactions deposit concurrently.
   The synthesized account table knows deposit(5)ok/deposit(2)ok
   commute, so Derived_locking grants both; rw locking serializes
   them. *)
let test_derived_admits_concurrent_deposits () =
  let run make =
    let sys = System.create ~policy:`None_ () in
    let log = System.log sys in
    System.add_object sys (make log acct);
    let ta = System.begin_txn sys (Activity.update "u1") in
    let tb = System.begin_txn sys (Activity.update "u2") in
    let ra = System.invoke sys ta acct (Bank_account.deposit 5) in
    let rb = System.invoke sys tb acct (Bank_account.deposit 2) in
    (ra, rb)
  in
  let synthesis =
    Synthesize.of_domain ~depth:3 (Lint_domain.find_exn "account")
  in
  (match run (fun log id -> Synthesize.make_object synthesis log id) with
  | Atomic_object.Granted _, Atomic_object.Granted _ -> ()
  | _, r ->
    Alcotest.failf "derived_account blocked a concurrent deposit: %a"
      Atomic_object.pp_invoke_result r);
  match run (fun log id -> Op_locking.rw log id (module Bank_account)) with
  | Atomic_object.Granted _, Atomic_object.Wait _ -> ()
  | _, r ->
    Alcotest.failf "rw locking should block the second deposit, got %a"
      Atomic_object.pp_invoke_result r

(* The concurrency the table recovers over op-level locking is visible
   statically too: some operation pairs conflict at the op level but
   commute for specific result pairs. *)
let test_account_table_refines_op_locking () =
  let d = Lint_domain.find_exn "account" in
  let table = Synthesize.table (Synthesize.of_domain ~depth:3 d) in
  Alcotest.(check bool)
    "account table recovers result-dependent concurrency" true
    (Synthesize_table.refinements table <> [])

(* --- budgeted stabilized-depth search ------------------------------ *)

let test_budget_stabilized () =
  (* register's three-op alphabet closes quickly: the budgeted search
     must report a stabilized frontier set and raise no warning. *)
  let r = Lint.run ~protocol:"derived_register" ~depth:2 ~budget:6 () in
  Alcotest.(check (option int)) "budget echoed in the report" (Some 6)
    r.Lint.budget;
  Alcotest.(check (list string)) "no stabilization warnings" [] r.Lint.warnings;
  (match r.Lint.protocols with
  | [ (c : Lint.protocol_cert) ] -> (
    match c.synthesis with
    | None -> Alcotest.fail "derived protocol carries no synthesis record"
    | Some s ->
      let st = Synthesize_table.stats (Synthesize.table s) in
      Alcotest.(check bool) "stabilized" true st.Commutativity_check.stabilized;
      Alcotest.(check bool) "not truncated" false
        st.Commutativity_check.truncated;
      Alcotest.(check bool) "distinct <= enumerated" true
        (st.Commutativity_check.distinct <= st.Commutativity_check.enumerated))
  | _ -> Alcotest.fail "expected exactly one protocol certificate");
  let s = Obs.Json.to_string (Lint.to_json r) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json exposes " ^ key) true (contains s key))
    [ "enumerated"; "distinct"; "truncated"; "depth_used"; "stabilized";
      "budget" ]

let test_budget_warns_when_open () =
  (* The account alphabet keeps growing past any small budget: the run
     must warn loudly instead of silently truncating. *)
  let r = Lint.run ~protocol:"derived_account" ~depth:2 ~budget:4 () in
  Alcotest.(check bool) "non-stabilized warning fires" true
    (List.exists (fun w -> contains w "NOT stabilized") r.Lint.warnings)

(* --- a corrupted synthesized table is caught ----------------------- *)

let test_corrupted_table_caught () =
  let account = Lint_domain.find_exn "account" in
  let synthesis = Synthesize.of_domain ~depth:3 account in
  let corrupted =
    Synthesize_table.force_commute (Synthesize.table synthesis)
      (Bank_account.withdraw 3, Value.ok)
      (Bank_account.withdraw 6, Value.ok)
  in
  let cert =
    Lint.certify_protocol ~depth:2
      {
        Lint_catalog.name = "corrupt-derived-account";
        policy = `None_;
        domain = account;
        make_object =
          (fun log id -> Synthesize.make_object ~table:corrupted synthesis log id);
      }
  in
  Alcotest.(check bool) "flipped conflict cell flagged unsound" true
    (cert.Lint.unsound <> [])

(* --- the headline acceptance at depth 3 ---------------------------- *)

let report3 = lazy (Lint.run ~depth:3 ())

let test_acceptance_depth3 () =
  let report = Lazy.force report3 in
  let find name =
    match
      List.find_opt
        (fun (c : Lint.protocol_cert) -> c.protocol = name)
        report.Lint.protocols
    with
    | Some c -> c
    | None -> Alcotest.failf "protocol %s missing from report" name
  in
  let derived =
    List.filter
      (fun (c : Lint.protocol_cert) ->
        String.length c.protocol >= 8 && String.sub c.protocol 0 8 = "derived_")
      report.Lint.protocols
  in
  Alcotest.(check int) "one derived protocol per registry ADT" 11
    (List.length derived);
  List.iter
    (fun (c : Lint.protocol_cert) ->
      Alcotest.(check (list string)) (c.protocol ^ ": 0 unsound") [] c.unsound;
      Alcotest.(check bool)
        (c.protocol ^ ": wide cross-shard probes ran")
        true
        (c.cross.Lint_xprobe.wide_probed > 0))
    derived;
  let commut = (find "commutativity").looseness in
  Alcotest.(check bool)
    (Fmt.str "derived_account looseness (%.2f) strictly below generic \
              commutativity (%.2f)"
       (find "derived_account").looseness commut)
    true
    ((find "derived_account").looseness < commut)

let suite =
  [
    to_alcotest synth_deterministic;
    Alcotest.test_case "memoized synthesis equals a fresh compilation" `Quick
      test_memoized_equals_fresh;
    Alcotest.test_case "synthesis agrees across multicore domains" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "derived_account admits concurrent deposits rw blocks"
      `Quick test_derived_admits_concurrent_deposits;
    Alcotest.test_case "account table refines op-level locking" `Quick
      test_account_table_refines_op_locking;
    Alcotest.test_case "budget mode reports a stabilized exploration" `Quick
      test_budget_stabilized;
    Alcotest.test_case "budget mode warns when the frontier stays open" `Quick
      test_budget_warns_when_open;
    Alcotest.test_case "corrupted synthesized table caught by probes" `Quick
      test_corrupted_table_caught;
    Alcotest.test_case "acceptance: derived protocols at depth 3" `Slow
      test_acceptance_depth3;
  ]
