(* The lint certifier end to end: the mutation self-test must flag
   every seeded corruption (the certifier's own acceptance test), the
   real catalogue must certify clean, and — as a qcheck property — the
   registry hand tables must agree with the derived relation. *)

open Core

let to_alcotest = QCheck_alcotest.to_alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- mutation self-test ------------------------------------------- *)

let outcomes = lazy (Lint_mutation.self_test ~depth:2)

let test_mutations_all_detected () =
  let outcomes = Lazy.force outcomes in
  Alcotest.(check int) "thirteen seeded corruptions" 13 (List.length outcomes);
  Alcotest.(check bool) "all detected" true
    (Lint_mutation.all_detected outcomes);
  List.iter
    (fun (o : Lint_mutation.outcome) ->
      Alcotest.(check bool) (o.name ^ " detected") true o.detected;
      Alcotest.(check bool)
        (o.name ^ " carries evidence")
        true (o.evidence <> ""))
    outcomes

(* The PR 3 multiversion bug — the unstable grant guard — is only
   visible to the three-transaction probe: reintroducing it must be
   flagged as a static-atomicity violation. *)
let test_pr3_bug_detected () =
  match
    List.find_opt
      (fun (o : Lint_mutation.outcome) ->
        o.name = "multiversion-unstable-grant")
      (Lazy.force outcomes)
  with
  | None -> Alcotest.fail "multiversion-unstable-grant mutation missing"
  | Some o ->
    Alcotest.(check string) "protocol-level corruption" "protocol" o.kind;
    Alcotest.(check bool) "detected" true o.detected;
    Alcotest.(check bool) "triple-probe evidence" true
      (contains o.evidence "not static atomic")

(* The hybrid contended-commit mutation drops a committed version from
   the archive when other intentions are outstanding — invisible to
   every pair probe (no pair schedule puts a reader after a contended
   commit), caught only by the hybrid triple probe's later reader. *)
let test_hybrid_forget_detected () =
  match
    List.find_opt
      (fun (o : Lint_mutation.outcome) ->
        o.name = "hybrid-forgets-contended-commit")
      (Lazy.force outcomes)
  with
  | None -> Alcotest.fail "hybrid-forgets-contended-commit mutation missing"
  | Some o ->
    Alcotest.(check string) "protocol-level corruption" "protocol" o.kind;
    Alcotest.(check bool) "detected" true o.detected;
    Alcotest.(check bool) "triple-probe evidence" true
      (contains o.evidence "not hybrid atomic")

(* The semiqueue deq/deq flip is only visible to the non-deterministic
   engine: both transactions may be granted the same item, and the two
   grants then compose in neither order. *)
let test_semiqueue_flip_detected () =
  match
    List.find_opt
      (fun (o : Lint_mutation.outcome) ->
        o.name = "table-semiqueue-deqs-commute")
      (Lazy.force outcomes)
  with
  | None -> Alcotest.fail "semiqueue mutation missing"
  | Some o ->
    Alcotest.(check bool) "detected" true o.detected;
    Alcotest.(check bool) "neither-order evidence" true
      (contains o.evidence "neither order")

(* --- the real catalogue certifies clean --------------------------- *)

let report2 = lazy (Lint.run ~depth:2 ())

let test_catalogue_clean () =
  let report = Lazy.force report2 in
  Alcotest.(check int) "no unsound findings" 0 (Lint.unsound_total report);
  Alcotest.(check int) "eleven table certificates" 11
    (List.length report.Lint.tables);
  Alcotest.(check int)
    "twenty-five protocol certificates (fourteen hand-written + eleven \
     synthesized)"
    25
    (List.length report.Lint.protocols);
  List.iter
    (fun (t : Table_cert.t) ->
      let name = t.Table_cert.adt in
      Alcotest.(check int) (name ^ ": unsound table entries") 0
        (List.length (Table_cert.unsound t));
      Alcotest.(check int) (name ^ ": loose table entries") 0
        (List.length (Table_cert.loose t));
      Alcotest.(check int) (name ^ ": undecided table entries") 0
        (List.length (Table_cert.unknown t)))
    report.Lint.tables;
  List.iter
    (fun (c : Lint.protocol_cert) ->
      Alcotest.(check (list string)) (c.protocol ^ ": unsound pairs") []
        c.unsound;
      Alcotest.(check bool)
        (c.protocol ^ ": looseness within [0,1]")
        true
        (c.looseness >= 0. && c.looseness <= 1.);
      Alcotest.(check bool)
        (c.protocol ^ ": cross-shard probes ran")
        true
        (c.cross.Lint_xprobe.probed > 0))
    report.Lint.protocols

(* The paper's gradient: on the same account alphabet, escrow (its
   data-dependent protocol) loses strictly less concurrency than
   commutativity locking, which loses strictly less than read/write
   locking. *)
let test_looseness_gradient () =
  let report = Lazy.force report2 in
  let looseness name =
    match
      List.find_opt
        (fun (c : Lint.protocol_cert) -> c.protocol = name)
        report.Lint.protocols
    with
    | Some c -> c.looseness
    | None -> Alcotest.failf "protocol %s missing from report" name
  in
  Alcotest.(check bool) "escrow tighter than commutativity" true
    (looseness "escrow" < looseness "commutativity");
  Alcotest.(check bool) "commutativity tighter than rw" true
    (looseness "commutativity" < looseness "rw");
  Alcotest.(check (float 0.0)) "da_generic_set is optimal" 0.0
    (looseness "da_generic_set");
  Alcotest.(check (float 0.0)) "da_semiqueue is optimal" 0.0
    (looseness "da_semiqueue")

let test_single_protocol_and_errors () =
  let report = Lint.run ~protocol:"escrow" ~depth:2 () in
  Alcotest.(check int) "one table" 1 (List.length report.Lint.tables);
  Alcotest.(check int) "one protocol" 1 (List.length report.Lint.protocols);
  (match report.Lint.tables with
  | [ t ] -> Alcotest.(check string) "its adt" "account" t.Table_cert.adt
  | _ -> assert false);
  let bare = Lint.run ~protocol:"semiqueue" ~depth:2 () in
  Alcotest.(check int) "bare adt: one table" 1 (List.length bare.Lint.tables);
  Alcotest.(check int) "bare adt: no protocols" 0
    (List.length bare.Lint.protocols);
  Alcotest.check_raises "unknown name"
    (Invalid_argument "lint: unknown protocol or ADT nonesuch") (fun () ->
      ignore (Lint.run ~protocol:"nonesuch" ~depth:2 ()))

let test_json_rendering () =
  let report = Lint.run ~protocol:"escrow" ~depth:2 () in
  let s = Obs.Json.to_string (Lint.to_json report) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json mentions " ^ key) true (contains s key))
    [ "unsound_total"; "looseness"; "exploration"; "escrow"; "account" ]

(* --- qcheck: hand tables agree with the derived relation ---------- *)

let domain_pair_gen =
  QCheck2.Gen.(
    oneofl Lint_domain.all >>= fun (d : Lint_domain.t) ->
    let n = List.length d.alphabet in
    pair (int_bound (n - 1)) (int_bound (n - 1)) >>= fun (i, j) ->
    return (d, List.nth d.alphabet i, List.nth d.alphabet j))

let print_domain_pair (d, p, q) =
  Fmt.str "%s: %a / %a" d.Lint_domain.name Operation.pp p Operation.pp q

let tables_agree =
  QCheck2.Test.make
    ~name:"registry hand tables agree with the derived relation (depth 3)"
    ~count:80 ~print:print_domain_pair domain_pair_gen
    (fun ((d : Lint_domain.t), p, q) ->
      let verdict =
        Commutativity_check.commute_on_reachable d.spec ~gen_ops:d.alphabet
          ~state_depth:3 p q
      in
      match verdict with
      | Commutativity_check.Commute -> d.commutes p q
      | Commutativity_check.Conflict _ -> not (d.commutes p q)
      | Commutativity_check.Unknown reason ->
        QCheck2.Test.fail_reportf "undecided at depth 3: %s" reason)

let suite =
  [
    Alcotest.test_case "mutation self-test flags all thirteen corruptions" `Quick
      test_mutations_all_detected;
    Alcotest.test_case "PR 3 multiversion bug caught by triple probe" `Quick
      test_pr3_bug_detected;
    Alcotest.test_case "hybrid contended-commit forgetter caught" `Quick
      test_hybrid_forget_detected;
    Alcotest.test_case "semiqueue deq/deq flip caught" `Quick
      test_semiqueue_flip_detected;
    Alcotest.test_case "catalogue certifies with zero unsound entries" `Quick
      test_catalogue_clean;
    Alcotest.test_case "looseness follows the paper's gradient" `Quick
      test_looseness_gradient;
    Alcotest.test_case "single-protocol runs and unknown names" `Quick
      test_single_protocol_and_errors;
    Alcotest.test_case "json report carries the certificate" `Quick
      test_json_rendering;
    to_alcotest tables_agree;
  ]
