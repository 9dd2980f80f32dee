(* The experiment harness: one experiment per comparative claim in the
   paper (the 1983 extended abstract has no measured evaluation, so
   these tables are the quantitative form of its Sections 4.2.3, 4.3.3
   and 5.1 arguments), plus Bechamel micro-benchmarks of the hot paths,
   and the seeded regression gate.

     dune exec bench/main.exe            # all experiments + micro
     dune exec bench/main.exe -- e1 e3   # a subset
     dune exec bench/main.exe -- --json out.json --baseline BENCH_0.json
*)

open Core

let section title =
  Fmt.pr "@.======================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "======================================================@.@."

(* ------------------------------------------------------------------ *)
(* Shared system builders                                              *)
(* ------------------------------------------------------------------ *)

let catalog_protocol name =
  match Fault_harness.find_protocol name with
  | Some p -> p
  | None -> Fmt.failwith "%s protocol missing from the fault catalog" name

(* A fresh system holding the catalog protocol [name]'s objects. *)
let build_accounts name ids = Fault_harness.system (catalog_protocol name) ids

(* The label a table prints for a catalog protocol. *)
let protocol_name = function
  | "rw" -> "rw-2pl"
  | "escrow" -> "escrow (dynamic)"
  | "hybrid_account" -> "hybrid-escrow"
  | name -> name

(* The median of [trials] monotonic-clock timings, in nanoseconds, of
   the thunk [prepare] returns; each trial prepares afresh, untimed. *)
let median_ns ~trials prepare =
  let sample () =
    let run = prepare () in
    let t0 = Monotonic_clock.now () in
    run ();
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
  in
  let samples =
    List.sort Float.compare (List.init trials (fun _ -> sample ()))
  in
  List.nth samples (trials / 2)

let trials = 5

let seed_account sys id amount =
  let t = System.begin_txn sys (Activity.update "seed") in
  (match System.invoke sys t id (Bank_account.deposit amount) with
  | Atomic_object.Granted _ -> ()
  | r -> Fmt.failwith "seeding failed: %a" Atomic_object.pp_invoke_result r);
  System.commit sys t

(* ------------------------------------------------------------------ *)
(* E1 — Section 5.1: concurrent withdrawals on one hot account.        *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section
    "E1  Hot-account withdrawals (Section 5.1)\n\
     throughput and blocking vs. initial balance headroom";
  let headrooms = [ 0; 40; 200; 2000 ] in
  Fmt.pr "%-9s %-18s %9s %8s %8s %8s %11s@." "headroom" "protocol" "committed"
    "waits" "aborts" "gave-up" "txn/1000t";
  List.iter
    (fun headroom ->
      List.iter
        (fun protocol ->
          let sys = build_accounts protocol [ Workload.hot_account ] in
          if headroom > 0 then seed_account sys Workload.hot_account headroom;
          let w = Workload.hot_withdrawals ~withdraw_max:5 () in
          let config =
            {
              Driver.default_config with
              clients = 16;
              duration = 3000;
              seed = 11;
              max_restarts = 6;
            }
          in
          let o = Driver.run ~config sys w in
          Fmt.pr "%-9d %-18s %9d %8d %8d %8d %11.1f@." headroom
            (protocol_name protocol) o.Driver.committed o.Driver.waits
            (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
            o.Driver.gave_up (Driver.throughput o))
        [ "rw"; "commutativity"; "escrow" ];
      Fmt.pr "@.")
    headrooms;
  Fmt.pr
    "Shape: escrow sustains concurrent withdrawals (fewer waits, higher@.\
     throughput) once headroom covers concurrent requests; the locking@.\
     baselines serialize withdrawals regardless of balance.@."

(* ------------------------------------------------------------------ *)
(* E2 — Figure 5-1: census of queue interleavings.                     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section
    "E2  Queue interleaving census (Figure 5-1)\n\
     dynamic atomicity vs. the scheduler model vs. locking";
  let xq = Object_id.v "q" in
  let env = Spec_env.of_list [ (xq, Fifo_queue.spec) ] in
  let a = Activity.update "a"
  and b = Activity.update "b"
  and c = Activity.update "c" in
  (* Enumerate interleavings of a's two enqueues with b's two enqueues
     (invoke+respond kept adjacent), over value assignments from
     {1,2}. *)
  let interleavings =
    let rec choose k n start =
      if k = 0 then [ [] ]
      else if start >= n then []
      else
        List.map (fun rest -> start :: rest) (choose (k - 1) n (start + 1))
        @ choose k n (start + 1)
    in
    choose 2 4 0
  in
  let assignments =
    List.concat_map
      (fun v1 ->
        List.concat_map
          (fun v2 ->
            List.concat_map
              (fun v3 -> List.map (fun v4 -> (v1, v2, v3, v4)) [ 1; 2 ])
              [ 1; 2 ])
          [ 1; 2 ])
      [ 1; 2 ]
  in
  let total = ref 0 in
  let da_possible = ref 0 in
  let scheduler_ok = ref 0 in
  let da_only = ref 0 in
  let sched_only = ref 0 in
  let locking_ok = ref 0 in
  let truly_interleaved = ref 0 in
  List.iter
    (fun a_slots ->
      List.iter
        (fun (va1, va2, vb1, vb2) ->
          incr total;
          let a_vals = [ va1; va2 ] and b_vals = [ vb1; vb2 ] in
          let rec build slot a_vals b_vals acc arrival =
            if slot = 4 then (List.rev acc, List.rev arrival)
            else if List.mem slot a_slots then
              match a_vals with
              | v :: rest ->
                build (slot + 1) rest b_vals
                  (Event.respond a xq Value.ok
                  :: Event.invoke a xq (Fifo_queue.enqueue v)
                  :: acc)
                  (v :: arrival)
              | [] -> assert false
            else
              match b_vals with
              | v :: rest ->
                build (slot + 1) a_vals rest
                  (Event.respond b xq Value.ok
                  :: Event.invoke b xq (Fifo_queue.enqueue v)
                  :: acc)
                  (v :: arrival)
              | [] -> assert false
          in
          let enq_events, arrival = build 0 a_vals b_vals [] [] in
          let with_dequeues results =
            History.of_list
              (enq_events
              @ [ Event.commit a xq; Event.commit b xq ]
              @ List.concat_map
                  (fun v ->
                    [
                      Event.invoke c xq Fifo_queue.dequeue;
                      Event.respond c xq (Value.Int v);
                    ])
                  results
              @ [ Event.commit c xq ])
          in
          (* Scheduler model: the store executes operations in arrival
             order, so the consumer receives exactly [arrival]. *)
          let sched = Atomicity.atomic env (with_dequeues arrival) in
          if sched then incr scheduler_ok;
          (* Dynamic atomicity: does SOME dequeue outcome make the
             history dynamic atomic?  (The object must be right in
             every serialization order consistent with precedes, not
             just in the storage order the scheduler happened to
             produce.) *)
          let candidates = [ a_vals @ b_vals; b_vals @ a_vals; arrival ] in
          let da =
            List.exists
              (fun results ->
                Atomicity.dynamic_atomic env (with_dequeues results))
              candidates
          in
          if da then incr da_possible;
          if da && not sched then incr da_only;
          if sched && not da then incr sched_only;
          (* Commutativity locking admits the interleaving only when
             every interleaved pair of operations commutes. *)
          let interleaved = a_slots <> [ 0; 1 ] && a_slots <> [ 2; 3 ] in
          if interleaved then incr truly_interleaved;
          let lock_ok =
            (not interleaved)
            || List.for_all
                 (fun va ->
                   List.for_all
                     (fun vb ->
                       Fifo_queue.commutes (Fifo_queue.enqueue va)
                         (Fifo_queue.enqueue vb))
                     b_vals)
                 a_vals
          in
          if lock_ok && da then incr locking_ok)
        assignments)
    interleavings;
  Fmt.pr "interleaving/value cases examined:                  %4d@." !total;
  Fmt.pr "  (genuinely interleaved: %d)@.@." !truly_interleaved;
  Fmt.pr "dequeue outcome certain in EVERY serialization@.";
  Fmt.pr "  order (a dynamic-atomic object can serve it):     %4d@."
    !da_possible;
  Fmt.pr "admitted by commutativity locking (non-commuting@.";
  Fmt.pr "  enqueues must serialize):                         %4d@."
    !locking_ok;
  Fmt.pr "scheduler-model storage order happens to be@.";
  Fmt.pr "  serializable in some order:                       %4d@."
    !scheduler_ok;
  Fmt.pr "@.cases only dynamic atomicity handles correctly@.";
  Fmt.pr "  (scheduler outcome unserializable — the paper's@.";
  Fmt.pr "  1,1,2,2 is one of them):                          %4d@." !da_only;
  Fmt.pr "cases where the scheduler's one-order guess is@.";
  Fmt.pr "  serializable but not order-invariant, so a@.";
  Fmt.pr "  correct local object must refuse or wait:         %4d@."
    !sched_only;
  Fmt.pr
    "@.Shape: commutativity locking admits strictly fewer interleavings@.\
     than dynamic atomicity (%d < %d); the scheduler model bakes one@.\
     serialization into storage order and is wrong in %d cases.@."
    !locking_ok !da_possible (!total - !scheduler_ok)

(* ------------------------------------------------------------------ *)
(* E3 — Section 4.2.3: long read-only audits under each protocol.      *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section
    "E3  Long read-only audits (Section 4.2.3)\n\
     audit latency and interference vs. audit length";
  Fmt.pr "%-9s %-18s %7s %10s %10s %9s %9s@." "accounts" "protocol" "audits"
    "audit-lat" "ro-waits" "aborts" "thruput";
  List.iter
    (fun accounts ->
      let ids = Workload.account_ids accounts in
      List.iter
        (fun protocol ->
          let sys = build_accounts protocol ids in
          let w = Workload.banking ~accounts ~audit_fraction:0.25 () in
          let config =
            {
              Driver.default_config with
              clients = 12;
              duration = 3000;
              seed = 23;
              max_restarts = 6;
            }
          in
          let o = Driver.run ~config sys w in
          Fmt.pr "%-9d %-18s %7d %10.1f %10d %9d %9.1f@." accounts
            (protocol_name protocol) o.Driver.committed_read_only
            (Weihl_obs.Metrics.Histogram.mean o.Driver.read_only_latencies)
            o.Driver.waits_read_only
            (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
            (Driver.throughput o))
        [ "rw"; "commutativity"; "multiversion"; "hybrid"; "hybrid_account" ];
      Fmt.pr "@.")
    [ 4; 8; 16 ];
  Fmt.pr
    "Shape: audit latency explodes with audit length under locking@.\
     (audits block behind updates and vice versa); multi-version and@.\
     hybrid audits never wait (ro-waits = 0) and stay flat.@."

(* ------------------------------------------------------------------ *)
(* E4 — Section 4.2.3: timestamp skew and static atomicity.            *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section
    "E4  Update aborts vs. timestamp skew (Section 4.2.3)\n\
     static (Reed) aborts late-timestamped writers; locking just waits";
  Fmt.pr "%-6s %-18s %9s %9s %9s %11s@." "skew" "protocol" "committed"
    "refused" "waits" "txn/1000t";
  let config =
    {
      Driver.default_config with
      clients = 12;
      duration = 2500;
      seed = 31;
      max_restarts = 6;
    }
  in
  let skews = [ 0; 2; 4; 8; 16 ] in
  List.iter
    (fun skew ->
      let sys = build_accounts "multiversion" (Workload.account_ids 4) in
      let rng = Rng.create (1000 + skew) in
      let counter = ref 0 in
      System.set_ts_source sys (fun () ->
          incr counter;
          (* A transaction starting now may draw a timestamp up to
             [skew] starts in the past: unsynchronized clocks.  The low
             bits keep timestamps unique. *)
          let logical = max 0 (!counter - Rng.int rng (skew + 1)) in
          Timestamp.v ((logical * 4096) + !counter));
      let w = Workload.banking ~accounts:4 ~audit_fraction:0.1 () in
      let o = Driver.run ~config sys w in
      Fmt.pr "%-6d %-18s %9d %9d %9d %11.1f@." skew "multiversion"
        o.Driver.committed o.Driver.aborted_refused o.Driver.waits
        (Driver.throughput o);
      let sys2 = build_accounts "commutativity" (Workload.account_ids 4) in
      let o2 = Driver.run ~config sys2 w in
      Fmt.pr "%-6d %-18s %9d %9d %9d %11.1f@." skew "commutativity"
        o2.Driver.committed o2.Driver.aborted_refused o2.Driver.waits
        (Driver.throughput o2);
      Fmt.pr "@.")
    skews;
  Fmt.pr
    "Shape: refused-counts (Reed's timestamp conflicts) grow with skew@.\
     while the locking protocol's profile is flat in skew.@."

(* ------------------------------------------------------------------ *)
(* E5 — permissiveness census over bounded histories.                  *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section
    "E5  Permissiveness census (Sections 4.1-4.3)\n\
     bounded two-activity set histories, classified by every checker";
  let c = Optimality.census () in
  Fmt.pr "well-formed histories:        %5d@." c.Optimality.well_formed;
  Fmt.pr "  atomic:                     %5d@." c.Optimality.atomic;
  Fmt.pr "  dynamic atomic:             %5d@." c.Optimality.dynamic;
  Fmt.pr "  static atomic:              %5d@." c.Optimality.static;
  Fmt.pr "  both:                       %5d@." c.Optimality.both;
  Fmt.pr "  dynamic only:               %5d@." c.Optimality.dynamic_only;
  Fmt.pr "  static only:                %5d@." c.Optimality.static_only;
  Fmt.pr "  local-but-not-atomic:       %5d   (must be 0: Theorems 1 and 4)@."
    c.Optimality.unsound;
  Fmt.pr
    "@.Shape: both properties are strict subsets of atomic and neither@.\
     contains the other (optimality is weak, Section 4.2.3).@."

(* ------------------------------------------------------------------ *)
(* E6 — Section 4.3.3: hybrid audits vs. non-atomic audits.            *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section
    "E6  The audit problem (Section 4.3.3)\n\
     consistency of audit totals: hybrid vs. non-atomic audits";
  let accounts = 4 in
  let ids = Workload.account_ids accounts in
  let initial_total = 1000 in
  let sys = build_accounts "hybrid" ids in
  List.iter (fun id -> seed_account sys id (initial_total / accounts)) ids;
  let rng = Rng.create 99 in
  let audits = 300 in
  let fresh_name p = Fmt.str "%s%d" p (Rng.int rng 1_000_000_000) in
  (* Scan all accounts; [interrupt] fires after the first read and runs
     a full transfer from the last account into the first.  The atomic
     audit is one read-only transaction; the non-atomic audit uses one
     transaction per account (Lamport's problem case). *)
  let run_transfer () =
    let src = List.nth ids (accounts - 1) and dst = List.nth ids 0 in
    let amount = 1 + Rng.int rng 20 in
    let t = System.begin_txn sys (Activity.update (fresh_name "t")) in
    match System.invoke sys t src (Bank_account.withdraw amount) with
    | Atomic_object.Granted v when Value.equal v Value.ok -> (
      match System.invoke sys t dst (Bank_account.deposit amount) with
      | Atomic_object.Granted _ -> System.commit sys t
      | _ -> System.abort sys t)
    | Atomic_object.Granted _ -> System.commit sys t
    | _ -> System.abort sys t
  in
  let scan ~atomic =
    if atomic then begin
      let r = System.begin_txn sys (Activity.read_only (fresh_name "r")) in
      let total = ref 0 in
      List.iteri
        (fun i id ->
          (match System.invoke sys r id Bank_account.balance with
          | Atomic_object.Granted (Value.Int n) -> total := !total + n
          | _ -> ());
          if i = 0 then run_transfer ())
        ids;
      System.commit sys r;
      !total
    end
    else begin
      let total = ref 0 in
      List.iteri
        (fun i id ->
          let r = System.begin_txn sys (Activity.read_only (fresh_name "s")) in
          (match System.invoke sys r id Bank_account.balance with
          | Atomic_object.Granted (Value.Int n) -> total := !total + n
          | _ -> ());
          System.commit sys r;
          if i = 0 then run_transfer ())
        ids;
      !total
    end
  in
  let atomic_violations = ref 0 in
  let dirty_violations = ref 0 in
  for _ = 1 to audits do
    if scan ~atomic:true <> initial_total then incr atomic_violations;
    if scan ~atomic:false <> initial_total then incr dirty_violations
  done;
  Fmt.pr "audits run per style:                 %d@." audits;
  Fmt.pr "inconsistent totals, hybrid audit:    %d   (atomicity: must be 0)@."
    !atomic_violations;
  Fmt.pr "inconsistent totals, per-account txn: %d   (Lamport's problem)@."
    !dirty_violations;
  Fmt.pr
    "@.Shape: the hybrid read-only audit always sees a serializable@.\
     snapshot; splitting the audit across transactions does not.@."

(* ------------------------------------------------------------------ *)
(* E7 — Section 1: non-determinism buys concurrency.                   *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section
    "E7  Non-determinism buys concurrency (Section 1)\n\
     FIFO queue vs semiqueue under the same producer/consumer load";
  Fmt.pr "%-34s %9s %8s %8s %11s@." "object" "committed" "waits" "aborts"
    "txn/1000t";
  let run name make_obj workload obj_id =
    let sys = System.create () in
    System.add_object sys (make_obj (System.log sys) obj_id);
    let config =
      {
        Driver.default_config with
        clients = 6;
        duration = 400;
        seed = 41;
        max_restarts = 6;
      }
    in
    let o = Driver.run ~config sys workload in
    Fmt.pr "%-34s %9d %8d %8d %11.1f@." name o.Driver.committed o.Driver.waits
      (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
      (Driver.throughput o)
  in
  run "FIFO queue (commutativity lock)"
    (fun log id -> Op_locking.commutativity log id (module Fifo_queue))
    (Workload.queue_producers_consumers ())
    Workload.queue_object;
  run "FIFO queue (dynamic atomic)" Da_queue.make
    (Workload.queue_producers_consumers ())
    Workload.queue_object;
  run "semiqueue (commutativity lock)"
    (fun log id -> Op_locking.commutativity log id (module Semiqueue))
    (Workload.semiqueue_producers_consumers ())
    Workload.semiqueue_object;
  run "semiqueue (dynamic atomic)" Da_semiqueue.make
    (Workload.semiqueue_producers_consumers ())
    Workload.semiqueue_object;
  Fmt.pr
    "@.Shape: with a deterministic FIFO specification even the optimal@.\
     protocol must serialize dequeuers; weakening the specification to@.\
     the non-deterministic semiqueue lets the dynamic-atomic object run@.\
     them in parallel - the Section 1 argument for non-deterministic@.\
     specifications, measured.@."

(* ------------------------------------------------------------------ *)
(* A1 — Ablation: intentions-list vs before-image recovery.            *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section
    "A1  Recovery ablation: intentions lists vs before-images\n\
     commit/abort cost per transaction size (rw-2PL discipline)";
  (* Keep total operation count roughly constant across sizes: the
     intentions view replays O(ops-so-far) per operation. *)
  let rounds_for ops = max 50 (20_000 / (ops * ops)) in
  let per_txn rounds prepare = median_ns ~trials prepare /. float_of_int rounds in
  let xs = Object_id.v "s" in
  let run_rounds make_obj ops_per_txn rounds finish =
    let sys = System.create () in
    System.add_object sys (make_obj (System.log sys) xs);
    fun () ->
      for i = 1 to rounds do
        let t = System.begin_txn sys (Activity.update (Fmt.str "t%d" i)) in
        for k = 1 to ops_per_txn do
          ignore (System.invoke sys t xs (Intset.insert ((i + k) mod 64)))
        done;
        match finish with
        | `Commit -> System.commit sys t
        | `Abort -> System.abort sys t
      done
  in
  Fmt.pr "monotonic clock, median of %d trials@.@." trials;
  Fmt.pr "%-8s %-22s %14s %14s@." "ops/txn" "recovery" "commit ns/txn"
    "abort ns/txn";
  List.iter
    (fun ops_per_txn ->
      List.iter
        (fun (name, make_obj) ->
          let rounds = rounds_for ops_per_txn in
          let commit_ns =
            per_txn rounds (fun () ->
                run_rounds make_obj ops_per_txn rounds `Commit)
          in
          let abort_ns =
            per_txn rounds (fun () ->
                run_rounds make_obj ops_per_txn rounds `Abort)
          in
          Fmt.pr "%-8d %-22s %14.0f %14.0f@." ops_per_txn name commit_ns
            abort_ns)
        [
          ("intentions (replay)",
           fun log id -> Op_locking.rw log id (module Intset));
          ("before-image (undo)",
           fun log id -> Rw_undo.make log id (module Intset));
        ];
      Fmt.pr "@.")
    [ 1; 8; 64 ];
  Fmt.pr
    "Shape: the intentions object re-replays its buffer on every access,@.\
     so costs grow quadratically with transaction size; the before-image@.\
     object pays one snapshot per writer and stays near-linear.  The@.\
     Section 5 point: the choice is invisible at the atomicity@.\
     interface - both objects generate identical dynamic-atomic@.\
     histories (test/test_rw_undo.ml).@."

(* ------------------------------------------------------------------ *)
(* A2 — Ablation: result-aware set vs its locking baselines.           *)
(* ------------------------------------------------------------------ *)

let a2 () =
  section
    "A2  Set protocol ablation: result-aware conflicts vs locking\n\
     (same set workload, three protocols)";
  Fmt.pr "%-18s %9s %8s %8s %11s@." "protocol" "committed" "waits" "aborts"
    "txn/1000t";
  List.iter
    (fun (name, make_obj) ->
      let sys = System.create () in
      System.add_object sys (make_obj (System.log sys) Workload.set_object);
      let w = Workload.set_ops ~keys:8 () in
      let config =
        {
          Driver.default_config with
          clients = 10;
          duration = 1200;
          seed = 17;
          max_restarts = 6;
        }
      in
      let o = Driver.run ~config sys w in
      Fmt.pr "%-18s %9d %8d %8d %11.1f@." name o.Driver.committed
        o.Driver.waits
        (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
        (Driver.throughput o))
    [
      ("rw-2pl", fun log id -> Op_locking.rw log id (module Intset));
      ("commutativity",
       fun log id -> Op_locking.commutativity log id (module Intset));
      ("da-set (results)", Da_set.make);
    ];
  Fmt.pr
    "@.Shape: per-element, result-aware conflicts admit strictly more@.\
     interleavings than whole-object read/write locks, and more than@.\
     state-independent commutativity where results disambiguate@.\
     (member(true) vs insert).@."

(* ------------------------------------------------------------------ *)
(* A3 — Ablation: the queue's serialization-order enumeration cap.     *)
(* ------------------------------------------------------------------ *)

let a3 () =
  section
    "A3  Queue ablation: extension-enumeration cap\n\
     (producers/consumers; the cap trades work for conservatism)";
  Fmt.pr "%-8s %9s %8s %8s %8s %11s@." "cap" "committed" "waits" "aborts"
    "gave-up" "txn/1000t";
  List.iter
    (fun cap ->
      let sys = System.create () in
      System.add_object sys
        (Da_queue.make ~max_extensions:cap (System.log sys)
           Workload.queue_object);
      let w = Workload.queue_producers_consumers () in
      let config =
        {
          Driver.default_config with
          clients = 6;
          duration = 400;
          seed = 29;
          max_restarts = 6;
        }
      in
      let o = Driver.run ~config sys w in
      Fmt.pr "%-8d %9d %8d %8d %8d %11.1f@." cap o.Driver.committed
        o.Driver.waits
        (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
        o.Driver.gave_up (Driver.throughput o))
    [ 1; 16; 500 ];
  Fmt.pr
    "@.Shape: a tiny cap degrades to waiting on every active enqueuer;@.\
     a moderate cap recovers nearly all admissible concurrency.@."

(* ------------------------------------------------------------------ *)
(* A4 — Ablation: the generic DA oracle vs the hand-built escrow.      *)
(* ------------------------------------------------------------------ *)

let a4 () =
  section
    "A4  Generic dynamic-atomicity oracle vs hand-built escrow\n\
     (same hot-account workload; the oracle quantifies over orders)";
  Fmt.pr "wall ms: monotonic clock, median of %d trials@.@." trials;
  Fmt.pr "%-22s %9s %8s %8s %11s %12s@." "object" "committed" "waits"
    "aborts" "txn/1000t" "wall ms";
  List.iter
    (fun (name, make_obj) ->
      let w = Workload.hot_withdrawals ~withdraw_max:5 () in
      let config =
        {
          Driver.default_config with
          clients = 4;
          duration = 400;
          seed = 37;
          max_restarts = 6;
        }
      in
      (* The run is seeded, so every trial has this outcome. *)
      let outcome = ref None in
      let wall =
        median_ns ~trials (fun () ->
            let sys = System.create () in
            System.add_object sys
              (make_obj (System.log sys) Workload.hot_account);
            seed_account sys Workload.hot_account 100;
            fun () -> outcome := Some (Driver.run ~config sys w))
        /. 1e6
      in
      let o = Option.get !outcome in
      Fmt.pr "%-22s %9d %8d %8d %11.1f %12.1f@." name o.Driver.committed
        o.Driver.waits
        (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
        (Driver.throughput o) wall)
    [
      ("escrow (hand-built)", Escrow_account.make);
      ("da-generic (oracle)",
       fun log id -> Da_generic.make log id Bank_account.spec);
    ];
  Fmt.pr
    "@.Shape: the oracle recovers the same concurrency class (it@.\
     executes the definition) at a constant-factor cost here and an@.\
     exponential cost in the number of concurrent transactions in@.\
     general; slightly more conservative where escrow's algebra@.\
     resolves ambiguity the order-enumeration refuses.  Deriving@.\
     per-type protocols - the paper's program - is what makes the@.\
     property practical.@."

(* ------------------------------------------------------------------ *)
(* B0 — Bechamel micro-benchmarks.                                     *)
(* ------------------------------------------------------------------ *)

(* Staggered-lifespan synthetic history: activity [i] performs
   [ops_per] invoke/respond pairs starting at virtual tick
   [i * (ops_per / 2 + 1)], then commits, so lifespans overlap and the
   committed set grows steadily — the shape that stresses [perm] and
   [precedes]. *)
let synthetic_history ~activities:na ~objects:nx ~ops_per =
  let acts = Array.init na (fun i -> Activity.update (Fmt.str "a%d" i)) in
  let objs = Array.init nx (fun i -> Object_id.v (Fmt.str "o%d" i)) in
  let groups = ref [] in
  for i = 0 to na - 1 do
    let start = i * ((ops_per / 2) + 1) in
    for k = 0 to ops_per - 1 do
      let x = objs.((i + k) mod nx) in
      groups :=
        ( start + k,
          i,
          [
            Event.invoke acts.(i) x (Intset.insert ((i + k) mod 7));
            Event.respond acts.(i) x Value.ok;
          ] )
        :: !groups
    done;
    groups :=
      (start + ops_per, i, [ Event.commit acts.(i) objs.(i mod nx) ])
      :: !groups
  done;
  let sorted =
    List.sort
      (fun (t, i, _) (t', i', _) ->
        match Int.compare t t' with 0 -> Int.compare i i' | c -> c)
      !groups
  in
  History.of_list (List.concat_map (fun (_, _, es) -> es) sorted)

(* The naive arm is [History.Reference] — the seed's list-scan
   implementations, retained in the library as the equivalence
   oracle — timed against the indexed versions. *)
module Naive = History.Reference

(* A well-formed single-object history whose responses are consistent
   with arrival order, grown event by event; each prefix is re-checked
   for serializability of its committed projection. *)
let serializability_events ~activities:na ~ops_per =
  let xs = Object_id.v "s" in
  let acts = Array.init na (fun i -> Activity.update (Fmt.str "a%d" i)) in
  let groups = ref [] in
  for i = 0 to na - 1 do
    let start = i * ((ops_per / 2) + 1) in
    for k = 0 to ops_per - 1 do
      groups := (start + k, i, `Op k) :: !groups
    done;
    groups := (start + ops_per, i, `Commit) :: !groups
  done;
  let sorted =
    List.sort
      (fun (t, i, _) (t', i', _) ->
        match Int.compare t t' with 0 -> Int.compare i i' | c -> c)
      !groups
  in
  let frontier = ref (Seq_spec.start Intset.spec) in
  let events =
    List.concat_map
      (fun (_, i, what) ->
        match what with
        | `Commit -> [ Event.commit acts.(i) xs ]
        | `Op k ->
          let op =
            if k mod 2 = 0 then Intset.insert ((i + k) mod 3)
            else Intset.member ((i + k) mod 3)
          in
          let res, f' =
            match Seq_spec.outcomes !frontier op with
            | (res, f') :: _ -> (res, f')
            | [] -> assert false
          in
          frontier := f';
          [ Event.invoke acts.(i) xs op; Event.respond acts.(i) xs res ])
      sorted
  in
  (Spec_env.of_list [ (xs, Intset.spec) ], events)

(* A contended variant: the first two activities must serialize in
   reverse arrival order (an inserter commits, then an auditor observes
   member = false, so the auditor belongs BEFORE the inserter), followed
   by [extras] arrival-order-consistent activities.  A search that
   extends the serial prefix in arrival order dead-ends under every
   subset of the extras before it reorders the head pair, so the
   workload exercises the rejected-frontier memo; the incremental
   checker re-validates its cached witness in one linear pass. *)
let contended_serializability_events ~extras =
  let xs = Object_id.v "s" in
  let b = Activity.update "b-insert" in
  let c = Activity.update "c-audit" in
  let head =
    [
      Event.invoke b xs (Intset.insert 99);
      Event.respond b xs Value.ok;
      Event.commit b xs;
      Event.invoke c xs (Intset.member 99);
      Event.respond c xs (Value.Bool false);
      Event.commit c xs;
    ]
  in
  let tail =
    List.concat_map
      (fun i ->
        let d = Activity.update (Fmt.str "d%d" i) in
        [
          Event.invoke d xs (Intset.insert (i mod 7));
          Event.respond d xs Value.ok;
          Event.commit d xs;
        ])
      (List.init extras (fun i -> i))
  in
  (Spec_env.of_list [ (xs, Intset.spec) ], head @ tail)

(* Re-check every prefix of a growing history, as a monitor would, with
   [check]; the count of prefixes that have a witness. *)
let regrow check events () =
  let h = ref History.empty and witnesses = ref 0 in
  List.iter
    (fun e ->
      h := History.append !h e;
      if Option.is_some (check (History.perm !h)) then incr witnesses)
    events;
  !witnesses

let one_shot env = regrow (Serializability.serializable env)

let incremental env events () =
  let inc = Serializability.Incremental.create env in
  regrow (Serializability.Incremental.check inc) events ()

(* The pairs B0 compares, as (row, fast arm, slow arm): the indexed
   [History] queries against [History.Reference], the seed's list scans
   kept as the equivalence oracle, on a staggered-lifespan history; and
   [Serializability.Incremental] against one-shot [serializable]
   re-checking every prefix of a growing history, on an easy workload
   and on a contended one. *)
let comparisons () =
  let h = synthetic_history ~activities:48 ~objects:12 ~ops_per:42 in
  let acts = History.activities h and objs = History.objects h in
  let total project xs () =
    List.fold_left (fun acc x -> acc + History.length (project x h)) 0 xs
  in
  let queries =
    [
      ( "project_object",
        total History.project_object objs,
        total Naive.project_object objs );
      ( "project_activity",
        total History.project_activity acts,
        total Naive.project_activity acts );
      ( "activities",
        (fun () -> List.length (History.activities h)),
        fun () -> List.length (Naive.activities h) );
      ( "perm",
        (fun () -> History.length (History.perm h)),
        fun () -> History.length (Naive.perm h) );
      ( "precedes",
        (fun () -> List.length (History.precedes h)),
        fun () -> List.length (Naive.precedes h) );
    ]
  in
  let env, easy = serializability_events ~activities:7 ~ops_per:3 in
  let cenv, contended = contended_serializability_events ~extras:8 in
  let checks =
    [
      ( Fmt.str "easy, %d events" (List.length easy),
        incremental env easy,
        one_shot env easy );
      ( Fmt.str "contended, %d events" (List.length contended),
        incremental cenv contended,
        one_shot cenv contended );
    ]
  in
  [
    ( Fmt.str "history query, %d events" (History.length h),
      ("indexed", "reference"),
      queries );
    ("serializability of every prefix", ("incremental", "one-shot"), checks);
  ]

let b0 () =
  section "B0  Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let xs = Object_id.v "s" in
  let env = Spec_env.of_list [ (xs, Intset.spec) ] in
  let h41 =
    let a = Activity.update "a"
    and b = Activity.update "b"
    and c = Activity.update "c" in
    History.of_list
      [
        Event.invoke a xs (Intset.member 2);
        Event.invoke b xs (Intset.insert 3);
        Event.respond b xs Value.ok;
        Event.respond a xs (Value.Bool false);
        Event.invoke c xs (Intset.member 3);
        Event.commit b xs;
        Event.respond c xs (Value.Bool true);
        Event.commit a xs;
        Event.commit c xs;
      ]
  in
  let escrow_round () =
    let sys = System.create () in
    System.add_object sys (Escrow_account.make (System.log sys) xs);
    let t = System.begin_txn sys (Activity.update "a") in
    ignore (System.invoke sys t xs (Bank_account.deposit 10));
    ignore (System.invoke sys t xs (Bank_account.withdraw 4));
    System.commit sys t
  in
  let multiversion_round () =
    let sys = System.create ~policy:`Static () in
    System.add_object sys (Multiversion.make (System.log sys) xs Intset.spec);
    let t = System.begin_txn sys (Activity.update "a") in
    ignore (System.invoke sys t xs (Intset.insert 1));
    ignore (System.invoke sys t xs (Intset.member 1));
    System.commit sys t
  in
  (* Same round with a do-nothing sink installed: the difference to the
     plain round is the full cost of event construction + dispatch; the
     plain round shows the uninstrumented path costs only dead
     branches. *)
  let escrow_round_probed () =
    let sys = System.create () in
    System.add_object sys (Escrow_account.make (System.log sys) xs);
    System.set_probe sys ~now:(fun () -> 0.)
      { Obs.Probe.emit = (fun ~time:_ _ -> ()) };
    let t = System.begin_txn sys (Activity.update "a") in
    ignore (System.invoke sys t xs (Bank_account.deposit 10));
    ignore (System.invoke sys t xs (Bank_account.withdraw 4));
    System.commit sys t
  in
  let comparisons = comparisons () in
  let arm table row label = Fmt.str "%s: %s, %s" table row label in
  let tests =
    [
      ("checker: atomic (sec 4.1 history)",
       fun () -> ignore (Atomicity.atomic env h41));
      ("checker: dynamic_atomic (sec 4.1 history)",
       fun () -> ignore (Atomicity.dynamic_atomic env h41));
      ("protocol: escrow deposit+withdraw+commit", escrow_round);
      ("protocol: escrow round, null probe sink", escrow_round_probed);
      ("protocol: multiversion insert+member+commit", multiversion_round);
      ("model: precedes of 9-event history",
       fun () -> ignore (History.precedes h41));
    ]
    @ List.concat_map
        (fun (table, (fast, slow), rows) ->
          List.concat_map
            (fun (row, f, g) ->
              [
                (arm table row fast, fun () -> ignore (Sys.opaque_identity (f ())));
                (arm table row slow, fun () -> ignore (Sys.opaque_identity (g ())));
              ])
            rows)
        comparisons
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let grouped =
    Test.make_grouped ~name:"weihl83" ~fmt:"%s %s"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate name =
    match Hashtbl.find_opt results ("weihl83 " ^ name) with
    | Some result -> (
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Some est
      | _ -> None)
    | None -> None
  in
  List.iter
    (fun (name, _) ->
      match estimate name with
      | Some est -> Fmt.pr "%-68s %14.1f ns/run@." name est
      | None -> Fmt.pr "%-68s (no estimate)@." name)
    tests;
  List.iter
    (fun (table, (fast, slow), rows) ->
      Fmt.pr "@.%-34s %14s %14s %9s@." table (fast ^ " ns") (slow ^ " ns")
        "speedup";
      List.iter
        (fun (row, f, g) ->
          match (estimate (arm table row fast), estimate (arm table row slow)) with
          | Some a, Some b ->
            Fmt.pr "  %-32s %14.1f %14.1f %8.1fx@." row a b (b /. a)
          | _ -> Fmt.pr "  %-32s (no estimate)@." row;
          if f () <> g () then
            Fmt.pr "  %-32s DISAGREE: %d vs %d@." row (f ()) (g ()))
        rows)
    comparisons

(* ------------------------------------------------------------------ *)
(* O1 — Observability demonstration: recorder over the hot workload.   *)
(* ------------------------------------------------------------------ *)

let o1 () =
  section "O1  Instrumented hot-spot run (metrics + contention report)";
  let sys = System.create () in
  System.add_object sys
    (Escrow_account.make (System.log sys) Workload.hot_account);
  let t = System.begin_txn sys (Activity.update "seed") in
  ignore (System.invoke sys t Workload.hot_account (Bank_account.deposit 200));
  System.commit sys t;
  let w = Workload.hot_withdrawals () in
  let config =
    { Driver.default_config with clients = 8; duration = 1000; seed = 7 }
  in
  let rec_ = Obs.Recorder.create () in
  let o = Driver.run ~config ~probe:(Obs.Recorder.sink rec_) sys w in
  Fmt.pr "%a@.@.%s@." Driver.pp_outcome o (Obs.Recorder.report rec_)

(* ------------------------------------------------------------------ *)
(* J0 — the seeded gate:  -- --json FILE [--quick] [--baseline FILE]  *)
(*                                                                     *)
(* Writes one JSON document of seeded runs: virtual-time simulations   *)
(* of the paper's comparisons (sim, synth, open_loop), the multicore   *)
(* curve's counters, checkpointed recovery, the replica failover       *)
(* sweep and the growth counters.  Every field is a deterministic      *)
(* function of (seed, config), so [--baseline] compares them exactly   *)
(* (see [gate]).                                                       *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let sim_section ~quick =
  let duration = if quick then 300 else 1200 in
  let accounts = 16 in
  let scenario protocol clients =
    let pname = protocol_name protocol in
    let sys = build_accounts protocol (Workload.account_ids accounts) in
    let w = Workload.banking ~accounts ~audit_fraction:0.15 () in
    let config =
      {
        Driver.default_config with
        clients;
        duration;
        seed = 5;
        max_restarts = 6;
      }
    in
    let o = Driver.run ~config sys w in
    let h = System.history sys in
    (* [precedes] of a long multi-thousand-activity run is quadratic in
       its OUTPUT (every later activity follows every earlier commit),
       so the analysis phase takes it over a bounded tail window; the
       whole-history projections and the well-formedness scan run in
       full. *)
    let tail_window =
      let es = History.to_list h in
      let n = List.length es in
      let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
      History.of_list (if n > 300 then drop (n - 300) es else es)
    in
    let acts = History.activities h in
    (* View extraction: materialize h|a for every activity and h|x for
       every object — the per-transaction/per-object views that
       conflict and serializability analyses consume (serializability's
       block computation is exactly the per-activity pass). *)
    let n_view =
      List.fold_left
        (fun acc a -> acc + History.length (History.project_activity a h))
        0 acts
      + List.fold_left
          (fun acc x -> acc + History.length (History.project_object x h))
          0 (History.objects h)
    in
    J.Obj
      [
        ("name", J.Str (Fmt.str "banking-%s" pname));
        ("clients", J.Num (float_of_int clients));
        ("duration_ticks", J.Num (float_of_int duration));
        ("committed", J.Num (float_of_int o.Driver.committed));
        ("waits", J.Num (float_of_int o.Driver.waits));
        ("throughput_per_1000_ticks", J.Num (Driver.throughput o));
        ("history_events", J.Num (float_of_int (History.length h)));
        ("history_activities", J.Num (float_of_int (List.length acts)));
        ( "perm_events",
          J.Num (float_of_int (History.length (History.perm h))) );
        ( "precedes_pairs",
          J.Num (float_of_int (List.length (History.precedes tail_window))) );
        ("view_events", J.Num (float_of_int n_view));
        ("well_formed", J.Bool (Wellformed.is_well_formed Wellformed.Base h));
      ]
  in
  J.List
    (List.concat_map
       (fun clients ->
         [
           scenario "rw" clients;
           scenario "hybrid" clients;
         ])
       [ 8; 32 ])

(* The tentpole's quantitative claim: on the contended single-account
   workload drawn from the certifier's own alphabet, the synthesized
   data-dependent table (derived_account) beats the generic
   commutativity protocol on aborts/blocking and closes toward the
   hand-tuned escrow protocol.  Every quantity is virtual-time and a
   pure function of (seed, config), so the per-protocol throughput
   joins the deterministic regression gate. *)
let synth_section ~quick =
  let duration = if quick then 600 else 2000 in
  let headroom = 200 in
  let alphabet_workload ~balance_fraction =
    (* Scripts drawn from the synthesis alphabet itself
       ({deposit 5; deposit 2; withdraw 3; withdraw 6; balance}), so
       every invocation hits a compiled (op, result) cell rather than
       the conservative off-alphabet fallback. *)
    let ops =
      Bank_account.[| deposit 5; deposit 2; withdraw 3; withdraw 6 |]
    in
    let acct = Workload.hot_account in
    {
      Workload.name = "synth-alphabet";
      objects = [ acct ];
      generate =
        (fun rng ->
          if Rng.float rng 1.0 < balance_fraction then
            {
              Workload.kind = `Read_only;
              label = "balance";
              steps = [ Workload.step acct Bank_account.balance ];
            }
          else
            let n = 1 + Rng.int rng 3 in
            let steps =
              List.init n (fun _ ->
                  Workload.step acct ops.(Rng.int rng (Array.length ops)))
            in
            { Workload.kind = `Update; label = "synth-mix"; steps });
    }
  in
  let scenario protocol pname =
    let sys = build_accounts protocol [ Workload.hot_account ] in
    seed_account sys Workload.hot_account headroom;
    let config =
      {
        Driver.default_config with
        clients = 16;
        duration;
        seed = 23;
        max_restarts = 6;
      }
    in
    let o = Driver.run ~config sys (alphabet_workload ~balance_fraction:0.2) in
    let aborted = o.Driver.aborted_deadlock + o.Driver.aborted_refused in
    let attempts = o.Driver.committed + aborted + o.Driver.gave_up in
    let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
    ( pname,
      o,
      J.Obj
        [
          ("name", J.Str pname);
          ("clients", J.Num (float_of_int config.Driver.clients));
          ("duration_ticks", J.Num (float_of_int duration));
          ("committed", J.Num (float_of_int o.Driver.committed));
          ("aborted", J.Num (float_of_int aborted));
          ("gave_up", J.Num (float_of_int o.Driver.gave_up));
          ("waits", J.Num (float_of_int o.Driver.waits));
          ("abort_rate", J.Num (rate aborted attempts));
          ("waits_per_commit", J.Num (rate o.Driver.waits o.Driver.committed));
          ("throughput_per_1000_ticks", J.Num (Driver.throughput o));
        ] )
  in
  let runs =
    [
      scenario "rw" "rw-2pl";
      scenario "commutativity" "commutativity";
      scenario "derived_account" "derived_account";
      scenario "escrow" "escrow";
    ]
  in
  let find name =
    let _, o, _ = List.find (fun (n, _, _) -> n = name) runs in
    o
  in
  let commut = find "commutativity" and derived = find "derived_account" in
  let ratio a b = if b = 0 then float_of_int a else float_of_int a /. float_of_int b in
  J.Obj
    [
      ("scenarios", J.List (List.map (fun (_, _, j) -> j) runs));
      (* The headline: synthesized vs generic commutativity on the same
         alphabet — blocking and throughput, same seed and scripts. *)
      ( "derived_vs_commutativity",
        J.Obj
          [
            ( "waits_ratio",
              J.Num (ratio derived.Driver.waits commut.Driver.waits) );
            ( "throughput_ratio",
              J.Num (Driver.throughput derived /. Driver.throughput commut) );
          ] );
    ]

(* Open-loop saturation curve over the sharded runtime: seeded Poisson
   arrivals at a ladder of offered rates against the escrow banking
   group.  Every quantity is virtual-time and a pure function of
   (seed, rate, shards, workload), so the per-rate throughput joins
   the deterministic regression gate; the latency percentiles come
   from the group-wide histogram (per-shard histograms merged). *)
let open_loop_section ~quick =
  let duration = if quick then 800 else 2000 in
  let rates =
    if quick then [ 0.05; 0.2; 0.8 ] else [ 0.05; 0.1; 0.2; 0.4; 0.8 ]
  in
  let shards = 4 in
  let proto = catalog_protocol "escrow" in
  let w = proto.Fault_harness.workload () in
  let scenario rate =
    let group =
      Shard_harness.group ~seed:5 ~shards proto w.Workload.objects
    in
    let config =
      {
        Sharded_driver.default_config with
        arrivals = Poisson rate;
        duration;
        seed = 5;
      }
    in
    let o = Sharded_driver.run ~config group w in
    let latency = Sharded_driver.latency o in
    let lat p = Obs.Metrics.Histogram.percentile latency p in
    J.Obj
      [
        ("rate_per_1000", J.Num (rate *. 1000.));
        ("arrivals", J.Num (float_of_int o.Sharded_driver.started));
        ("committed", J.Num (float_of_int o.Sharded_driver.committed));
        ( "committed_multi",
          J.Num (float_of_int o.Sharded_driver.committed_multi) );
        ( "aborted",
          J.Num (float_of_int (o.Sharded_driver.gave_up + o.Sharded_driver.in_doubt))
        );
        ("in_doubt", J.Num (float_of_int o.Sharded_driver.in_doubt));
        ( "throughput_per_1000_ticks",
          J.Num
            (1000.
            *. float_of_int o.Sharded_driver.committed
            /. float_of_int o.Sharded_driver.ticks) );
        ("latency_p50", J.Num (lat 50.));
        ("latency_p99", J.Num (lat 99.));
        ("latency_mean", J.Num (Obs.Metrics.Histogram.mean latency));
        ("windows", J.Num (float_of_int (List.length o.Sharded_driver.windows)));
      ]
  in
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("duration_ticks", J.Num (float_of_int duration));
      ("seed", J.Num 5.);
      ("curve", J.List (List.map scenario rates));
    ]

(* The multicore curve: the batched banking workload at domains
   1/2/4/8 over an 8-shard group with group commit on.  The committed
   history is domain-count independent (the per-shard batch order is),
   so every rung must report the same outcome and group-commit batching
   — the exact gate holds them like every other field.  What changes
   with the domain count is [jobs_per_commit], the cross-domain round
   trips (jobs posted to worker mailboxes) per commit, and the mailbox
   high-water mark.  Wall-clock scaling is not measured here: a
   simulated sync that sleeps only times sleeps overlapping. *)
let multicore_section ~quick =
  let shards = 8 in
  let accounts = 256 in
  let jobs = if quick then 400 else 1200 in
  let inflight = 64 in
  let workload = Workload.banking ~accounts ~audit_fraction:0.0 () in
  let scenario domains =
    let metrics = Obs.Shard_metrics.create ~shards () in
    let group =
      Shard_harness.group ~metrics ~seed:11 ~domains ~group_commit:true
        ~shards (catalog_protocol "rw")
        (Workload.account_ids accounts)
    in
    let config =
      { Sharded_driver.default_config with jobs; inflight; seed = 11 }
    in
    let jobs0 = Shard_group.jobs_posted group in
    let o = Sharded_driver.run_rounds ~config group workload in
    let jobs_posted = Shard_group.jobs_posted group - jobs0 in
    let mailbox_max =
      List.fold_left
        (fun acc s -> max acc (Shard_group.mailbox_max_depth group s))
        0
        (List.init shards Fun.id)
    in
    Shard_group.shutdown group;
    let batch = Obs.Shard_metrics.group_commit_batch metrics in
    J.Obj
      [
        ("domains", J.Num (float_of_int domains));
        ("committed", J.Num (float_of_int o.Sharded_driver.committed));
        ("committed_multi", J.Num (float_of_int o.Sharded_driver.committed_multi));
        ("rounds", J.Num (float_of_int o.Sharded_driver.ticks));
        ("waits", J.Num (float_of_int o.Sharded_driver.waits));
        ("syncs_per_commit", J.Num (Obs.Shard_metrics.syncs_per_commit metrics));
        ("batch_mean", J.Num (Obs.Metrics.Histogram.mean batch));
        ("batch_p95", J.Num (Obs.Metrics.Histogram.percentile batch 95.));
        ("mailbox_max_depth", J.Num (float_of_int mailbox_max));
        ( "jobs_per_commit",
          J.Num
            (float_of_int jobs_posted
            /. float_of_int (max 1 o.Sharded_driver.committed)) );
      ]
  in
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("accounts", J.Num (float_of_int accounts));
      ("jobs", J.Num (float_of_int jobs));
      ("inflight", J.Num (float_of_int inflight));
      ("curve", J.List (List.map scenario [ 1; 2; 4; 8 ]));
    ]

(* Restart replay work with fuzzy checkpoints.  A checkpointing group
   takes seeded traffic; one shard then crashes and recovers
   checkpoint-aware into a fresh system: the newest usable checkpoint's
   rebuild transaction, then the log tail behind its redo point.  Every
   count is seeded: [log_records] is the shard's whole record stream,
   [tail_records] the part of it recovery replayed, and [txns_replayed]
   the committed transactions a full-log replay would re-execute — the
   ones the rebuild transaction stands in for plus the tail's.  The
   growth section's [recover] counter gates how replay work scales. *)
let recovery_section ~quick =
  let duration = if quick then 600 else 1500 in
  let shards = 3 in
  let every = 40 in
  let proto = catalog_protocol "escrow" in
  let w = proto.Fault_harness.workload () in
  let group =
    Shard_harness.group ~seed:9 ~shards
      ~checkpoint:{ Shard_group.default_checkpoint with every }
      proto w.Workload.objects
  in
  let config = { Sharded_driver.default_config with arrivals = Clients 4; duration; seed = 9 } in
  ignore (Sharded_driver.run ~config group w);
  let victim = 1 in
  let files = Shard_group.checkpoint_files group victim in
  let log_records = Shard_group.record_count group victim in
  let text = Shard_group.crash_shard group victim in
  let sys = Fault_harness.system proto w.Workload.objects in
  let order = Recovery.order_of_policy proto.Fault_harness.policy in
  let report =
    match Recovery.restore_checkpointed ~checkpoints:files order sys text with
    | Ok r -> r
    | Error f ->
      Fmt.failwith "recovery bench: checkpointed restore: %a"
        Recovery.pp_failure f
  in
  let covered =
    match report.Recovery.source with
    | Recovery.From_checkpoint { covered } -> covered
    | Recovery.Full_replay ->
      Fmt.failwith
        "recovery bench: recovery fell back to a full replay — no usable \
         checkpoint at crash time"
  in
  let replay = report.Recovery.shard.Recovery.base in
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("duration_ticks", J.Num (float_of_int duration));
      ("checkpoint_every", J.Num (float_of_int every));
      ("seed", J.Num 9.);
      ("log_records", J.Num (float_of_int log_records));
      ("covered", J.Num (float_of_int covered));
      ("tail_records", J.Num (float_of_int report.Recovery.replayed_records));
      ( "txns_replayed",
        J.Num (float_of_int (replay.Recovery.folded + replay.Recovery.replayed)) );
    ]

(* Replication: the failover sweep of `weihl replica` — seeded
   schedules of traffic with 2PC faults, lossy shipping, staged replica
   faults and forced promotions.  The committed counts must survive
   every promotion, no replica may ever serve a stale read, and every
   final replica projection must match its primary: the section
   returns a failure for any lost commit, stale read or divergence.
   The growth section's [read] counter gates what a replica read
   costs. *)
let replication_section ~quick =
  let shards = 3 and replicas = 3 in
  let schedules = if quick then 20 else 100 in
  let s =
    Fault_sweep.run
      ~verdict:(fun d -> d.Replica_drill.d_verdict)
      ~plan:Shard_plan.generate
      (Replica_drill.run_schedule ~quick ~shards ~replicas)
      Replica_drill.protocols
      (List.init schedules (fun i -> i + 1))
  in
  let r = Replica_drill.totals s in
  let diverged = List.length s.Fault_sweep.divergences in
  let num n = J.Num (float_of_int n) in
  ( J.Obj
      [
        ("shards", num shards);
        ("replicas", num replicas);
        ( "failover",
          J.Obj
            [
              ("schedules", num s.Fault_sweep.schedules);
              ("committed", num r.Replica_drill.r_committed);
              ("reads", num r.Replica_drill.r_reads);
              ("replica_served", num r.Replica_drill.r_replica_served);
              ("bounced", num r.Replica_drill.r_bounced);
              ("lost_commits", num r.Replica_drill.r_lost);
              ("stale_served", num r.Replica_drill.r_stale);
              ("diverged", num diverged);
              ("promotions", num r.Replica_drill.r_promotions);
              ("resyncs", num r.Replica_drill.r_resyncs);
              ("damaged_segments", num r.Replica_drill.r_damaged);
            ] );
      ],
    List.filter_map
      (fun (what, n) ->
        if n = 0 then None
        else Some (Fmt.str "replication: failover sweep reported %d %s" n what))
      [
        ("lost commits", r.Replica_drill.r_lost);
        ("stale reads served", r.Replica_drill.r_stale);
        ("divergences", diverged);
      ] )

(* Growth: deterministic work counters at N and 4N commits.  A counter
   whose per-operation value grows with the run grows with the log, so
   a ratio near 1 between the sizes is the claim and the gate.

   The first counter is shipping's.  A replica-write-shaped run —
   hybrid atomicity, 4 shards, a 2-replica tier, group commit — commits
   waves of disjoint two-account deposits (most of them 2PC) and pumps
   after every wave.  It counts the log entries [Group.records_from]
   touches per [Tier.pump]: history cells walked plus control entries
   examined.  A pump reads what is new since the last one, so the count
   stays flat as the log grows (ratio 1.08); a pump that rebuilt every
   shard's whole record stream per replica would read 9,217 records per
   pump at N and 36,057 at 4N (ratio 3.9).  The gate: the 4N/N ratio
   must stay under [growth_pump_ceiling].

   The second counter is reading's.  The same run, with
   [growth_read_batch] reads of [growth_read_width] uniform balances
   after every pump, counts the entries each [Tier.read] consults:
   frontier lookups, plus the events a read feeds a fold — a replica
   catching its fold up on the records applied since it last did, or a
   read bounced to the primary folding its history.  Each record is
   folded once, by the first read that needs it, so the count is flat:
   23.2 at N and at 4N (ratio 1.0), the 4 lookups plus a wave's 192
   events spread over its 10 reads.  A read that replayed every
   committed update of the touched shards into a fresh snapshot would
   feed it 2,134 events at N and 8,235 at 4N (ratio 3.86).  The gate:
   the ratio must stay under [growth_read_ceiling].  The same object
   records the pump rounds reads waited and the segments shipped in
   all: a caught-up replica's mark is certified at the read's own
   timestamp, so no read waits (0 at N and at 4N) and the only segments
   are the pumps' (504 at N, 2,000 at 4N), where a read that pumped
   first would wait once each and ship 5,544 and 22,000.

   The third and fourth counters are checkpointing's.  A transfer-shaped
   run — escrow, [growth_ckpt_shards] shards of funded accounts, group
   commit, a checkpoint every [growth_ckpt_every] commits per shard —
   commits waves of disjoint one-unit transfers.  [checkpoint] counts
   the records each checkpoint's capture reads plus the rebuild
   operations it writes; [recover] then crashes and recovers every
   shard and counts the records and rebuild operations each recovery
   re-executes.  A capture reads only the records since the shard's
   last checkpoint and writes one operation per changed account, and
   recovery replays that state plus the tail, so both stay flat: 247.6
   per checkpoint at N and 254.6 at 4N (ratio 1.03), 172 and 175 per
   recovery (ratio 1.02).  The capture that re-read each shard's whole
   stream and re-wrote every committed transaction's events read and
   wrote 2,304 records per checkpoint at N and 7,895 at 4N (ratio
   3.43), and its recoveries re-executed 1,898 and 6,401 (ratio 3.37),
   counted on the same run.  The gate: each ratio must stay under
   [growth_ckpt_ceiling]. *)
let growth_pump_ceiling = 1.25
let growth_read_ceiling = 1.25
let growth_ckpt_ceiling = 1.25

let growth_shards = 4
let growth_replicas = 2
let growth_wave = 16 (* transactions per commit wave *)
let growth_read_batch = 10 (* reads after each pump *)
let growth_read_width = 4 (* balances per read *)

(* One commit wave of [n] two-account transactions on disjoint
   accounts, so every operation is granted: [op] on the first account
   of each pair, a one-unit deposit on the second; [started] numbers
   their activities. *)
let growth_commit_wave group rng ids ~n ~prefix ~started op =
  let rec pairs = function
    | x :: y :: rest -> (x, y) :: pairs rest
    | _ -> []
  in
  let entries =
    List.concat_map
      (fun (x, y) ->
        incr started;
        let g =
          Shard_group.begin_txn group
            (Activity.update (Fmt.str "%s%d" prefix !started))
        in
        [ (g, x, op); (g, y, Bank_account.deposit 1) ])
      (List.filteri (fun i _ -> i < n) (pairs (Rng.shuffle rng ids)))
  in
  ignore (Shard_group.invoke_batch group entries);
  Shard_group.commit_batch group
    (List.sort_uniq Gtxn.compare (List.map (fun (g, _, _) -> g) entries))

(* The replica-write-shaped run, pumping after every wave; with
   [reads], each pump is followed by a batch of reads drawn from their
   own generator, so the transactions stay those of the pump run. *)
let growth_pump_run ?(reads = false) ~commits () =
  let accounts = 256 in
  let proto = catalog_protocol "hybrid" in
  let ids = Workload.account_ids accounts in
  let group =
    Shard_harness.group ~group_commit:true ~shards:growth_shards proto ids
  in
  let tier =
    Replica_tier.create ~replicas:growth_replicas
      ~make_object:proto.Fault_harness.make_object group
  in
  let rng = Rng.create 17 and read_rng = Rng.create 29 in
  let accounts_arr = Array.of_list ids in
  let pumps = ref 0 and touched = ref 0 and started = ref 0 in
  let n_reads = ref 0 and consulted = ref 0 in
  while Shard_group.committed_count group < commits do
    growth_commit_wave group rng ids ~n:growth_wave ~prefix:"w" ~started
      (Bank_account.deposit 1);
    let before = Shard_group.entries_touched group in
    Replica_tier.pump tier;
    touched := !touched + Shard_group.entries_touched group - before;
    incr pumps;
    if reads then
      for _ = 1 to growth_read_batch do
        let steps =
          List.init growth_read_width (fun _ ->
              ( accounts_arr.(Rng.int read_rng (Array.length accounts_arr)),
                Bank_account.balance ))
        in
        let before = Replica_tier.entries_consulted tier in
        (match Replica_tier.read tier steps with
        | Ok _ -> ()
        | Error msg -> Fmt.failwith "growth read failed: %s" msg);
        consulted := !consulted + Replica_tier.entries_consulted tier - before;
        incr n_reads
      done
  done;
  let commits = J.Num (float_of_int (Shard_group.committed_count group)) in
  if reads then
    let per_read = float_of_int !consulted /. float_of_int !n_reads in
    ( J.Obj
        [
          ("commits", commits);
          ("reads", J.Num (float_of_int !n_reads));
          ("entries_per_read", J.Num per_read);
          ("bounced", J.Num (float_of_int (Replica_tier.stale_bounced tier)));
          ("waited", J.Num (float_of_int (Replica_tier.reads_waited tier)));
          ( "segments_shipped",
            J.Num (float_of_int (Replica_tier.segments_shipped tier)) );
        ],
      per_read )
  else
    let per_pump = float_of_int !touched /. float_of_int !pumps in
    ( J.Obj
        [
          ("commits", commits);
          ("pumps", J.Num (float_of_int !pumps));
          ("entries_per_pump", J.Num per_pump);
          ( "segments_shipped",
            J.Num (float_of_int (Replica_tier.segments_shipped tier)) );
        ],
      per_pump )

let growth_ckpt_shards = 4
let growth_ckpt_accounts = 512
let growth_ckpt_every = 25

(* The transfer-shaped run at [commits] transfers after the funding
   wave: per-checkpoint capture work, then per-recovery replay work. *)
let growth_ckpt_run ~commits () =
  let proto = catalog_protocol "escrow" in
  let ids = Workload.account_ids growth_ckpt_accounts in
  let group =
    Shard_harness.group ~group_commit:true
      ~checkpoint:{ Shard_group.every = growth_ckpt_every; archive = false }
      ~shards:growth_ckpt_shards proto ids
  in
  let funding =
    List.mapi
      (fun i x ->
        ( Shard_group.begin_txn group (Activity.update (Fmt.str "fund%d" i)),
          x,
          Bank_account.deposit 100 ))
      ids
  in
  ignore (Shard_group.invoke_batch group funding);
  Shard_group.commit_batch group (List.map (fun (g, _, _) -> g) funding);
  let funded = Shard_group.committed_count group in
  let rng = Rng.create 23 and started = ref 0 in
  while Shard_group.committed_count group < funded + commits do
    growth_commit_wave group rng ids ~n:(growth_wave / 2) ~prefix:"x" ~started
      (Bank_account.withdraw 1)
  done;
  let checkpoints, ckpt_work = Shard_group.checkpoint_work group in
  let recover_work = ref 0 and from_ckpt = ref 0 in
  for s = 0 to growth_ckpt_shards - 1 do
    let text = Shard_group.crash_shard group s in
    match Shard_group.recover_shard group s text with
    | Ok r ->
      recover_work :=
        !recover_work + r.Recovery.replayed_records + r.Recovery.rebuild_ops;
      if r.Recovery.source <> Recovery.Full_replay then incr from_ckpt
    | Error f ->
      Fmt.failwith "growth: recovering shard %d: %a" s Recovery.pp_failure f
  done;
  let per_ckpt = float_of_int ckpt_work /. float_of_int checkpoints in
  let per_recovery =
    float_of_int !recover_work /. float_of_int growth_ckpt_shards
  in
  let commits = J.Num (float_of_int (Shard_group.committed_count group)) in
  ( ( J.Obj
        [
          ("commits", commits);
          ("checkpoints", J.Num (float_of_int checkpoints));
          ("work_per_checkpoint", J.Num per_ckpt);
        ],
      per_ckpt ),
    ( J.Obj
        [
          ("commits", commits);
          ("recoveries", J.Num (float_of_int growth_ckpt_shards));
          ("from_checkpoint", J.Num (float_of_int !from_ckpt));
          ("work_per_recovery", J.Num per_recovery);
        ],
      per_recovery ) )

(* A growth counter's entry: its shape, its values at N and at 4N, the
   4N/N ratio and its ceiling — and a failure if the ratio is over. *)
let growth_counter name what ~ceiling shape (small, at_n) (large, at_4n) =
  let ratio = at_4n /. at_n in
  ( ( name,
      J.Obj
        (shape
        @ [
            ("n", small);
            ("n4", large);
            ("ratio", J.Num ratio);
            ("ceiling", J.Num ceiling);
          ]) ),
    if ratio > ceiling then
      [
        Fmt.str "growth: %s grew %.2fx from N to 4N commits, over the %.2fx \
                 ceiling"
          what ratio ceiling;
      ]
    else [] )

let growth_section ~quick =
  let n = if quick then 250 else 1000 in
  let num n = J.Num (float_of_int n) in
  let ckpt_n, recover_n = growth_ckpt_run ~commits:n () in
  let ckpt_4n, recover_4n = growth_ckpt_run ~commits:(4 * n) () in
  let ckpt_shape =
    [
      ("shards", num growth_ckpt_shards);
      ("accounts", num growth_ckpt_accounts);
      ("every", num growth_ckpt_every);
    ]
  in
  let counters =
    [
      growth_counter "pump" "log entries read per pump"
        ~ceiling:growth_pump_ceiling
        [
          ("shards", num growth_shards);
          ("replicas", num growth_replicas);
          ("wave", num growth_wave);
        ]
        (growth_pump_run ~commits:n ())
        (growth_pump_run ~commits:(4 * n) ());
      growth_counter "read" "entries consulted per read"
        ~ceiling:growth_read_ceiling
        [ ("batch", num growth_read_batch); ("width", num growth_read_width) ]
        (growth_pump_run ~reads:true ~commits:n ())
        (growth_pump_run ~reads:true ~commits:(4 * n) ());
      growth_counter "checkpoint"
        "records read plus rebuild operations written per checkpoint"
        ~ceiling:growth_ckpt_ceiling ckpt_shape ckpt_n ckpt_4n;
      growth_counter "recover"
        "records plus rebuild operations re-executed per recovery"
        ~ceiling:growth_ckpt_ceiling ckpt_shape recover_n recover_4n;
    ]
  in
  (J.Obj (List.map fst counters), List.concat_map snd counters)

(* --- the gate ------------------------------------------------------- *)

let jfield name = function
  | J.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* The seeded sections: functions of (seed, config), so a run in the
   baseline's mode must reproduce every field exactly. *)
let exact_sections =
  [
    "sim";
    "synth";
    "open_loop";
    "multicore";
    "recovery";
    "replication";
    "growth";
  ]

(* Where [current] departs from [base]. *)
let rec exact_diffs path base current =
  match (base, current) with
  | J.Obj bs, J.Obj cs ->
    List.concat_map
      (fun name ->
        let at = if path = "" then name else path ^ "." ^ name in
        match (List.assoc_opt name bs, List.assoc_opt name cs) with
        | Some b, Some c -> exact_diffs at b c
        | Some _, None -> [ at ^ " is missing from this run" ]
        | None, Some _ -> [ at ^ " is not in the baseline" ]
        | None, None -> [])
      (List.sort_uniq String.compare (List.map fst bs @ List.map fst cs))
  | J.List bs, J.List cs when List.length bs = List.length cs ->
    List.concat
      (List.mapi
         (fun i (b, c) -> exact_diffs (Fmt.str "%s[%d]" path i) b c)
         (List.combine bs cs))
  | _ ->
    if J.equal base current then []
    else
      [
        Fmt.str "%s is %s, baseline %s" path (J.to_string current)
          (J.to_string base);
      ]

let seeded doc =
  J.Obj
    (List.filter_map
       (fun name -> Option.map (fun v -> (name, v)) (jfield name doc))
       exact_sections)

(* A baseline the gate can read: a JSON file with a [mode]. *)
let load_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match J.of_string text with
    | Error e -> Error (Fmt.str "%s is not JSON: %s" path e)
    | Ok doc -> (
      match jfield "mode" doc with
      | Some (J.Str mode) -> Ok (doc, mode)
      | _ -> Error (Fmt.str "%s has no mode" path)))

(* The gate, armed by a baseline in this run's mode: every seeded field
   equals the baseline's, and the bounds the run checked against itself
   hold — the spotless failover sweep and the growth ceilings. *)
let gate ~mode ~failures doc = function
  | None -> 0
  | Some (_, base_mode) when base_mode <> mode ->
    Fmt.epr
      "warning: baseline mode %s does not match this run's %s; regression \
       gate skipped@."
      base_mode mode;
    0
  | Some (base, _) -> (
    match exact_diffs "" (seeded base) (seeded doc) @ failures with
    | [] ->
      Fmt.pr "regression gate: ok (seeded fields equal the baseline's)@.";
      0
    | failures ->
      List.iter (fun f -> Fmt.epr "regression: %s@." f) failures;
      1)

let json_mode ~file ~quick ~baseline =
  let mode = if quick then "quick" else "full" in
  match
    match baseline with
    | None -> Ok None
    | Some path -> Result.map Option.some (load_baseline path)
  with
  | Error msg ->
    Fmt.epr "bench: baseline %s@." msg;
    1
  | Ok base -> (
    let multicore = multicore_section ~quick in
    let replication, replication_failures = replication_section ~quick in
    let growth, growth_failures = growth_section ~quick in
    let doc =
      J.Obj
        [
          ("schema", J.Str "weihl-bench/1");
          ("mode", J.Str mode);
          ("sim", sim_section ~quick);
          ("synth", synth_section ~quick);
          ("open_loop", open_loop_section ~quick);
          ("multicore", multicore);
          ("recovery", recovery_section ~quick);
          ("replication", replication);
          ("growth", growth);
        ]
    in
    match
      Out_channel.with_open_text file (fun oc ->
          output_string oc (J.to_string doc);
          output_string oc "\n")
    with
    | exception Sys_error e ->
      Fmt.epr "bench: cannot write %s@." e;
      1
    | () ->
      Fmt.pr "wrote %s@." file;
      gate ~mode
        ~failures:(replication_failures @ growth_failures)
        doc base)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4); ("b0", b0);
    ("o1", o1);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let rec parse json quick baseline names = function
    | [] -> (json, quick, baseline, List.rev names)
    | "--json" :: file :: rest -> parse (Some file) quick baseline names rest
    | "--quick" :: rest -> parse json true baseline names rest
    | "--baseline" :: file :: rest -> parse json quick (Some file) names rest
    | name :: rest -> parse json quick baseline (name :: names) rest
  in
  let json, quick, baseline, names = parse None false None [] (List.tl args) in
  match json with
  | Some file -> exit (json_mode ~file ~quick ~baseline)
  | None ->
    let requested =
      match names with [] -> List.map fst experiments | _ -> names
    in
    List.iter
      (fun name ->
        match List.assoc_opt (String.lowercase_ascii name) experiments with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown experiment %s (have: e1-e7, a1-a4, b0, o1)@." name)
      requested
