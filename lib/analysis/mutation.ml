open Weihl_event
module Cc = Weihl_cc
module Adt = Weihl_adt

type outcome = {
  name : string;
  kind : string;
  description : string;
  detected : bool;
  evidence : string;
}

(* Claim, on top of [base], that each listed pair commutes (in both
   orders) — the way a hand table rots: an entry flipped to [true]. *)
let claim_commutes pairs base p q =
  List.exists
    (fun (a, b) ->
      (Operation.equal p a && Operation.equal q b)
      || (Operation.equal p b && Operation.equal q a))
    pairs
  || base p q

let table_mutations =
  [
    ( "table-account-withdraws-commute",
      "account",
      "withdraw(3)/withdraw(6) flipped to commute",
      claim_commutes
        [ (Adt.Bank_account.withdraw 3, Adt.Bank_account.withdraw 6) ]
        Adt.Bank_account.commutes );
    ( "table-intset-size-blind",
      "intset",
      "size/insert(1) flipped to commute",
      claim_commutes
        [ (Adt.Intset.size, Adt.Intset.insert 1) ]
        Adt.Intset.commutes );
    ( "table-queue-enqueues-commute",
      "queue",
      "enqueue(1)/enqueue(2) flipped to commute",
      claim_commutes
        [ (Adt.Fifo_queue.enqueue 1, Adt.Fifo_queue.enqueue 2) ]
        Adt.Fifo_queue.commutes );
    ( "table-kv-same-key-puts-commute",
      "kv",
      "put(1,10)/put(1,20) flipped to commute",
      claim_commutes
        [ (Adt.Kv_map.put 1 10, Adt.Kv_map.put 1 20) ]
        Adt.Kv_map.commutes );
    ( "table-semiqueue-deqs-commute",
      "semiqueue",
      "deq/deq flipped to commute (both may be granted the same item)",
      claim_commutes [ (Adt.Semiqueue.deq, Adt.Semiqueue.deq) ]
        Adt.Semiqueue.commutes );
  ]

(* A static object with neither locks nor undo: an operation runs at
   once on the one shared state, uncommitted effects included, unless
   its timestamp is older than one already executed (then it is
   refused).  Executing in timestamp order makes every both-commit
   completion replay in timestamp order, and the refusals leave no
   triple or cross-shard schedule granted; only an abort completion
   shows that a reader saw a write that never committed. *)
let dirty_reads spec log id : Cc.Atomic_object.t =
  let olog = Cc.Obj_log.create log id in
  let state = ref (Weihl_spec.Seq_spec.start spec) in
  let newest = ref None in
  let refuse txn why =
    Cc.Obj_log.dropped olog txn;
    Cc.Atomic_object.Refused why
  in
  let try_invoke txn op =
    Cc.Obj_log.invoked olog txn op;
    let ts = Option.get (Cc.Txn.init_ts txn) in
    match (!newest, Weihl_spec.Seq_spec.outcomes !state op) with
    | Some n, _ when Timestamp.compare ts n < 0 -> refuse txn "too late"
    | _, [] -> refuse txn "no permissible outcome"
    | _, (res, f) :: _ ->
      state := f;
      newest := Some ts;
      Cc.Obj_log.responded olog txn res;
      Cc.Atomic_object.Granted res
  in
  {
    id;
    spec;
    try_invoke;
    commit = Cc.Obj_log.committed olog;
    abort = Cc.Obj_log.aborted olog;
    initiate = Cc.Obj_log.initiated olog;
    depth = (fun () -> 0);
  }

(* Protocol-level corruptions: real objects built with corrupted
   conflict rules, certified through the same probe harness as the
   catalogue. *)
let protocol_mutations : (string * string * Catalog.entry) list =
  let account = Domain.find_exn "account" in
  let intset = Domain.find_exn "intset" in
  let bad_account_conflict p q =
    not
      (claim_commutes
         [ (Adt.Bank_account.withdraw 3, Adt.Bank_account.withdraw 6) ]
         Adt.Bank_account.commutes p q)
  in
  [
    ( "oplock-account-withdraws-compatible",
      "commutativity locking driven by the corrupted account table",
      {
        Catalog.name = "mut-oplock-account";
        policy = `None_;
        domain = account;
        make_object =
          (fun log id ->
            Cc.Op_locking.make log id Adt.Bank_account.spec
              ~conflict:bad_account_conflict);
      } );
    ( "oplock-no-conflicts",
      "locking with an empty conflict relation (everything compatible)",
      {
        Catalog.name = "mut-oplock-free";
        policy = `None_;
        domain = account;
        make_object =
          (fun log id ->
            Cc.Op_locking.make log id Adt.Bank_account.spec
              ~conflict:(fun _ _ -> false));
      } );
    ( "oplock-set-member-blind-to-insert",
      "set locking that lets member(1) run beside insert(1)",
      {
        Catalog.name = "mut-oplock-set";
        policy = `None_;
        domain = intset;
        make_object =
          (fun log id ->
            Cc.Op_locking.make log id Adt.Intset.spec ~conflict:(fun p q ->
                not
                  (claim_commutes
                     [ (Adt.Intset.member 1, Adt.Intset.insert 1) ]
                     Adt.Intset.commutes p q)));
      } );
    ( "hybrid-account-withdraws-compatible",
      "hybrid updates locked by the corrupted account table",
      {
        Catalog.name = "mut-hybrid-account";
        policy = `Hybrid;
        domain = account;
        make_object =
          (fun log id ->
            Cc.Hybrid.make log id Adt.Bank_account.spec
              ~conflict:bad_account_conflict ~read_only_op:(fun op ->
                Adt.Bank_account.classify op = Adt.Adt_sig.Read));
      } );
    ( "hybrid-forgets-contended-commit",
      "hybrid commit drops its version archive when other intentions are \
       outstanding — only a later reader after a contended commit can tell",
      {
        Catalog.name = "mut-hybrid-forget";
        policy = `Hybrid;
        domain = account;
        make_object =
          (fun log id ->
            Cc.Hybrid.make ~unsafe_forget_contended_commit:true log id
              Adt.Bank_account.spec
              ~conflict:(fun p q -> not (Adt.Bank_account.commutes p q))
              ~read_only_op:(fun op ->
                Adt.Bank_account.classify op = Adt.Adt_sig.Read));
      } );
    ( "multiversion-unstable-grant",
      "multiversion grant guard without the committed+own validation (the \
       static-atomicity bug the fault harness once caught)",
      {
        Catalog.name = "mut-multiversion";
        policy = `Static;
        domain = intset;
        make_object =
          (fun log id ->
            Cc.Multiversion.make ~validate_stable:false log id Adt.Intset.spec);
      } );
    ( "static-dirty-reads",
      "static object updated in place without locks or undo: reads see \
       uncommitted writes, which only an abort completion can tell",
      {
        Catalog.name = "mut-dirty-reads";
        policy = `Static;
        domain = account;
        make_object = dirty_reads Adt.Bank_account.spec;
      } );
    ( "derived-account-withdraws-commute",
      "synthesized account table with the derived \
       withdraw(3)ok/withdraw(6)ok conflict cell flipped to commute",
      (let synthesis = Synthesize.of_domain ~depth:3 account in
       let corrupted =
         Weihl_theory.Synthesize.force_commute
           (Synthesize.table synthesis)
           (Adt.Bank_account.withdraw 3, Value.ok)
           (Adt.Bank_account.withdraw 6, Value.ok)
       in
       {
         Catalog.name = "mut-derived-account";
         policy = `None_;
         domain = account;
         make_object =
           (fun log id ->
             Synthesize.make_object ~table:corrupted synthesis log id);
       }) );
  ]

let self_test ~depth =
  let table_outcomes =
    List.map
      (fun (name, adt, description, table) ->
        let cert = Table_cert.certify ~table ~depth (Domain.find_exn adt) in
        match Table_cert.unsound cert with
        | e :: _ ->
          {
            name;
            kind = "table";
            description;
            detected = true;
            evidence = Fmt.str "%a" Table_cert.pp_entry e;
          }
        | [] ->
          { name; kind = "table"; description; detected = false; evidence = "" })
      table_mutations
  in
  let protocol_outcomes =
    List.map
      (fun (name, description, entry) ->
        let cert = Certify.certify_protocol ~depth entry in
        match cert.Certify.unsound with
        | e :: _ ->
          {
            name;
            kind = "protocol";
            description;
            detected = true;
            evidence = e;
          }
        | [] ->
          {
            name;
            kind = "protocol";
            description;
            detected = false;
            evidence = "";
          })
      protocol_mutations
  in
  table_outcomes @ protocol_outcomes

let all_detected outcomes = List.for_all (fun o -> o.detected) outcomes

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v2>%-40s [%s] %s: %s%a@]" o.name o.kind o.description
    (if o.detected then "detected" else "MISSED")
    Fmt.(option (any "@," ++ string))
    (if o.evidence = "" then None else Some o.evidence)
