(* The robustness layer: WAL framing, corrupted-log recovery, fault
   plans, the crash-recovery harness, message faults, and the abort
   counters of the multicore runtime. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- WAL framing ---------------------------------------------------- *)

let test_wal_round_trip () =
  match Wal.decode (Wal.encode sec3_atomic) with
  | Ok (h, Wal.Intact) -> Alcotest.check history "same history" sec3_atomic h
  | Ok (_, Wal.Torn _) -> Alcotest.fail "unexpected torn tail"
  | Error e -> Alcotest.fail (Fmt.str "decode failed: %a" Wal.pp_error e)

let test_wal_empty () =
  match Wal.decode (Wal.encode History.empty) with
  | Ok (h, Wal.Intact) -> check_int "no events" 0 (History.length h)
  | _ -> Alcotest.fail "empty log must decode intact"

let test_wal_torn_tail () =
  let text = Wal.encode sec3_atomic in
  (* Cut into the last record: the tail is dropped, the prefix
     survives. *)
  let damaged = String.sub text 0 (String.length text - 5) in
  match Wal.decode damaged with
  | Ok (h, Wal.Torn 1) ->
    check_int "one record lost" (History.length sec3_atomic - 1)
      (History.length h)
  | Ok (_, s) -> Alcotest.fail (Fmt.str "expected Torn 1, got %a" Wal.pp_status s)
  | Error e -> Alcotest.fail (Fmt.str "decode failed: %a" Wal.pp_error e)

let split_lines text = String.split_on_char '\n' text

let corrupt_line k text =
  let lines = split_lines text in
  String.concat "\n"
    (List.mapi
       (fun i line ->
         if i = k && String.length line > 0 then
           let b = Bytes.of_string line in
           let last = Bytes.length b - 1 in
           Bytes.set b last (if Bytes.get b last = 'x' then 'y' else 'x');
           Bytes.to_string b
         else line)
       lines)

let test_wal_mid_log_is_loud () =
  let text = Wal.encode sec3_atomic in
  (* Damage the second record (line 2: header is line 0): well-framed
     records follow, so decode must refuse. *)
  match Wal.decode (corrupt_line 2 text) with
  | Error { Wal.record = 1; _ } -> ()
  | Error e ->
    Alcotest.fail (Fmt.str "wrong record blamed: %a" Wal.pp_error e)
  | Ok _ -> Alcotest.fail "mid-log corruption must not decode"

let test_wal_header_is_loud () =
  let text = Wal.encode sec3_atomic in
  let damaged = "X" ^ String.sub text 1 (String.length text - 1) in
  match Wal.decode damaged with
  | Error { Wal.record = -1; _ } -> ()
  | Error e -> Alcotest.fail (Fmt.str "expected header blame: %a" Wal.pp_error e)
  | Ok _ -> Alcotest.fail "damaged header must not decode"

(* --- Recovery from a damaged WAL ------------------------------------ *)

let fresh_set_system () =
  let sys = System.create () in
  System.add_object sys (Da_set.make (System.log sys) x);
  System.add_object sys (Escrow_account.make (System.log sys) y);
  sys

let test_restore_rejects_illegal_log () =
  (* sec3_not_atomic commits member(2) = true on an empty set: the log
     claims a result the specification rules out, and recovery must say
     so rather than install it. *)
  let sys = fresh_set_system () in
  match
    Recovery.restore_checkpointed Recovery.Commit_order sys
      (Wal.encode sec3_not_atomic)
  with
  | Error (Recovery.Divergent _) -> ()
  | Error f -> Alcotest.fail (Fmt.str "wrong failure: %a" Recovery.pp_failure f)
  | Ok _ -> Alcotest.fail "an impossible log must not replay"

(* --- Random histories for the corruption property ------------------- *)

let random_history seed =
  let rng = Rng.create ((seed * 31) + 11) in
  let sys = fresh_set_system () in
  let random_step () =
    match Rng.int rng 6 with
    | 0 -> (x, Intset.insert (Rng.int rng 3))
    | 1 -> (x, Intset.delete (Rng.int rng 3))
    | 2 -> (x, Intset.member (Rng.int rng 3))
    | 3 -> (y, Bank_account.deposit (1 + Rng.int rng 5))
    | 4 -> (y, Bank_account.withdraw (1 + Rng.int rng 5))
    | _ -> (y, Bank_account.balance)
  in
  let scripts =
    List.init
      (2 + Rng.int rng 4)
      (fun _ -> (`Update, List.init (1 + Rng.int rng 3) (fun _ -> random_step ())))
  in
  run_scripts ~seed sys scripts

let wal_encodes_round_trip =
  QCheck2.Test.make ~name:"wal round-trips protocol histories" ~count:60
    QCheck2.Gen.small_nat (fun seed ->
      let h = random_history seed in
      match Wal.decode (Wal.encode h) with
      | Ok (h', Wal.Intact) -> History.equal h h'
      | _ -> false)

let is_event_prefix short long =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | e :: es, f :: fs -> Event.equal e f && go (es, fs)
  in
  go (short, long)

(* The headline corruption property: damage a durable log anywhere —
   truncation at a random offset, a flipped bit, a torn tail — and
   recovery either lands on a committed prefix of the original history
   or fails loudly.  It never silently installs anything else. *)
let wal_corruption_never_silent =
  QCheck2.Test.make
    ~name:"wal corruption: recover a committed prefix or fail loudly"
    ~count:150
    QCheck2.Gen.(triple small_nat (int_bound 2) (int_bound 1_000_000))
    (fun (seed, kind, at) ->
      let h = random_history seed in
      let text = Wal.encode h in
      let len = String.length text in
      let damaged =
        match kind with
        | 0 -> String.sub text 0 (at mod (len + 1))
        | 1 ->
          let pos = at mod len and bit = (at lsr 13) land 7 in
          let b = Bytes.of_string text in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          Bytes.to_string b
        | _ -> String.sub text 0 (len - (1 + (at mod min len 40)))
      in
      match Wal.decode damaged with
      | Error _ -> true (* loud is fine *)
      | Ok (h', _) ->
        (* Whatever survives must be a prefix of what was written... *)
        is_event_prefix (History.to_list h') (History.to_list h)
        (* ...and recovery must replay exactly its committed
           projection. *)
        &&
        let sys = fresh_set_system () in
        (match Recovery.restore_checkpointed Recovery.Commit_order sys damaged with
        | Ok r ->
          r.Recovery.shard.Recovery.base.Recovery.replayed
          = List.length (Recovery.committed_in_order Recovery.Commit_order h')
        | Error _ -> false))

(* --- Fault plans ----------------------------------------------------- *)

let test_plan_deterministic () =
  let p1 = Fault_plan.generate ~seed:97 and p2 = Fault_plan.generate ~seed:97 in
  check_bool "same plan" true (p1 = p2);
  let p3 = Fault_plan.generate ~seed:98 in
  check_bool "different seed differs" false (p1 = p3)

let test_corrupt_shapes () =
  let text = "weihl-wal 1\nabcdef01 0 <commit,x,a>\n" in
  let tear k =
    Fault_plan.corrupt
      { (Fault_plan.generate ~seed:1) with Fault_plan.log_fault = k }
      text
  in
  check_bool "pristine unchanged" true (tear Fault_plan.Pristine = text);
  check_bool "torn tail shortens" true
    (String.length (tear (Fault_plan.Torn_tail 4)) < String.length text);
  check_int "truncate keeps offset" 7
    (String.length (tear (Fault_plan.Truncate_at 7)));
  let flipped = tear (Fault_plan.Bit_flip 3) in
  check_int "bit flip preserves length" (String.length text)
    (String.length flipped);
  check_bool "bit flip changes text" false (flipped = text)

(* --- The crash-recovery harness -------------------------------------- *)

(* The acceptance bar: 200+ distinct seeded fault schedules across the
   whole protocol catalog — and so across all three timestamp policies —
   each crashing, recovering from a (possibly damaged) durable log,
   resuming traffic, and re-checking atomicity and distributed
   commitment.  No schedule may diverge. *)
let test_fault_schedules_converge () =
  let summary =
    Fault_sweep.run
      ~verdict:(fun r -> r.Fault_harness.verdict)
      ~plan:Fault_plan.generate Fault_harness.run_schedule
      Fault_harness.catalog
      (List.init 204 (fun i -> i + 1))
  in
  check_int "204 schedules" 204 summary.Fault_sweep.schedules;
  check_bool "some schedules converge" true (summary.Fault_sweep.converged > 0);
  check_bool "some corruption is detected" true
    (summary.Fault_sweep.corruption_detected > 0);
  match summary.Fault_sweep.divergences with
  | [] -> ()
  | r :: _ ->
    Alcotest.fail (Fmt.str "divergence: %a" Fault_harness.pp_result r)

let test_single_schedule_fields () =
  let proto =
    match Fault_harness.find_protocol "escrow" with
    | Some p -> p
    | None -> Alcotest.fail "escrow missing from catalog"
  in
  let r =
    Fault_harness.run_schedule ~quick:true (Fault_plan.generate ~seed:3) proto
  in
  check_bool "did not diverge" true
    (match r.Fault_harness.verdict with
    | Fault_sweep.Diverged _ -> false
    | _ -> true);
  check_bool "protocol recorded" true (r.Fault_harness.protocol = "escrow")

let test_catalog_covers_policies () =
  let has p =
    List.exists (fun e -> e.Fault_harness.policy = p) Fault_harness.catalog
  in
  check_bool "dynamic protocols" true (has `None_);
  check_bool "static protocols" true (has `Static);
  check_bool "hybrid protocols" true (has `Hybrid)

(* --- Satellite: Msim drop/duplicate counting ------------------------- *)

let test_msim_drop_counting () =
  let reg = Obs.Metrics.Registry.create () in
  let delivered = ref 0 in
  let sim =
    Msim.create
      ~faults:{ Msim.drop = 1.0; duplicate = 0.; reorder = 0. }
      ~metrics:reg ~seed:5 ~nodes:2
      ~handler:(fun _ ~node:_ _ -> incr delivered)
      ()
  in
  for _ = 1 to 7 do
    Msim.send sim ~src:0 ~dst:1 "m"
  done;
  Msim.run sim;
  check_int "nothing delivered" 0 !delivered;
  check_int "drops counted" 7 (Msim.messages_dropped sim);
  check_int "drops visible in the registry" 7
    (Obs.Metrics.Counter.value
       (Obs.Metrics.Registry.counter reg "msim.dropped.fault"))

let test_msim_duplicate_and_timer_exempt () =
  let delivered = ref 0 in
  let sim =
    Msim.create
      ~faults:{ Msim.drop = 0.; duplicate = 1.0; reorder = 0. }
      ~seed:5 ~nodes:2
      ~handler:(fun _ ~node:_ _ -> incr delivered)
      ()
  in
  for _ = 1 to 5 do
    Msim.send sim ~src:0 ~dst:1 "m"
  done;
  Msim.run sim;
  check_int "every message arrives twice" 10 !delivered;
  check_int "duplicates counted" 5 (Msim.messages_duplicated sim);
  (* Timers are local alarms: even a fully lossy network delivers
     them. *)
  let fired = ref 0 in
  let sim2 =
    Msim.create
      ~faults:{ Msim.drop = 1.0; duplicate = 0.; reorder = 0. }
      ~seed:6 ~nodes:1
      ~handler:(fun _ ~node:_ _ -> incr fired)
      ()
  in
  Msim.set_timer sim2 ~node:0 ~after:3 "tick";
  Msim.run sim2;
  check_int "timer fired" 1 !fired

(* --- Satellite: per-cause abort counters in the runtime -------------- *)

let test_concurrent_abort_counters () =
  let reg = Obs.Metrics.Registry.create () in
  let sys = Concurrent.create ~metrics:reg () in
  let acct = Object_id.v "acct" in
  Concurrent.add_object sys (Escrow_account.make (Concurrent.log sys) acct);
  (match
     Concurrent.atomically sys (Activity.update "a") (fun _ invoke ->
         invoke acct (Bank_account.deposit 10))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match
     Concurrent.atomically sys (Activity.update "b") (fun _ invoke ->
         invoke acct (Operation.make "mystery" []))
   with
  | Ok _ -> Alcotest.fail "expected refusal"
  | Error _ -> ());
  let value name =
    Obs.Metrics.Counter.value (Obs.Metrics.Registry.counter reg name)
  in
  check_int "committed counted" 1 (value "txn.committed");
  check_int "refusal counted" 1 (value "txn.abort.refused");
  check_int "no deadlock yet" 0 (value "txn.abort.deadlock");
  (* Now force a deadlock between two domains: exactly one victim. *)
  let log = Concurrent.log sys in
  let ox = Object_id.v "ox" and oy = Object_id.v "oy" in
  Concurrent.add_object sys (Op_locking.rw log ox (module Register));
  Concurrent.add_object sys (Op_locking.rw log oy (module Register));
  let barrier = Atomic.make 0 in
  let worker name first second =
    Domain.spawn (fun () ->
        Concurrent.atomically sys (Activity.update name) (fun _ invoke ->
            ignore (invoke first (Register.write 1));
            Atomic.incr barrier;
            while Atomic.get barrier < 2 do
              Domain.cpu_relax ()
            done;
            invoke second (Register.write 2)))
  in
  let d1 = worker "w1" ox oy in
  let d2 = worker "w2" oy ox in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let ok r = match r with Ok _ -> true | Error _ -> false in
  check_bool "one victim" true (ok r1 <> ok r2);
  check_int "deadlock counted" 1 (value "txn.abort.deadlock");
  check_int "survivor counted" 2 (value "txn.committed")

(* --- Satellite: participant crashes across coordinator crash points -- *)

let test_tpc_crash_matrix () =
  let participants = 3 in
  let coordinator_crashes =
    [ Tpc.No_crash; Tpc.Before_prepare; Tpc.After_prepare;
      Tpc.Mid_decision 0; Tpc.Mid_decision 1; Tpc.Mid_decision 2 ]
  in
  let participant_crashes =
    None
    :: List.concat_map
         (fun i -> [ Some (i, `Before_vote); Some (i, `After_vote) ])
         (List.init participants Fun.id)
  in
  List.iter
    (fun coordinator_crash ->
      List.iter
        (fun participant_crash ->
          for seed = 1 to 3 do
            let cfg =
              {
                Tpc.default_config with
                participants;
                site_clocks = [ 2; 9; 4 ];
                votes = [ Tpc.Yes; Tpc.Yes; Tpc.Yes ];
                coordinator_crash;
                participant_crash;
                seed;
              }
            in
            let o = Tpc.run cfg in
            let label =
              Fmt.str "coord %s / participant %s / seed %d"
                (match coordinator_crash with
                | Tpc.No_crash -> "alive"
                | Tpc.Before_prepare -> "before-prepare"
                | Tpc.After_prepare -> "after-prepare"
                | Tpc.Mid_decision k -> Fmt.str "mid:%d" k)
                (match participant_crash with
                | None -> "none"
                | Some (i, `Before_vote) -> Fmt.str "%d before-vote" i
                | Some (i, `After_vote) -> Fmt.str "%d after-vote" i)
                seed
            in
            check_bool (label ^ ": atomic commitment") true
              (Tpc.atomic_commitment o);
            let committed =
              List.exists
                (function Tpc.Committed _ -> true | _ -> false)
                o.Tpc.statuses
            and aborted = List.mem Tpc.Aborted o.Tpc.statuses
            and blocked = List.mem Tpc.Blocked o.Tpc.statuses in
            check_bool (label ^ ": no commit beside an abort") false
              (committed && aborted);
            (* A site may stay blocked only in the genuine 2PC blocking
               window: the coordinator crashed with the decision
               undeliverable, so no live site can know it — nobody
               committed, nobody aborted. *)
            if blocked then begin
              check_bool (label ^ ": blocked excludes any outcome") false
                (committed || aborted);
              (* ... which requires the coordinator dead before the
                 decision reached any site that is still alive. *)
              let site_dead i =
                match participant_crash with
                | Some (j, _) -> i = j
                | None -> false
              in
              check_bool (label ^ ": blocked needs an unreachable decision")
                true
                (match coordinator_crash with
                | Tpc.After_prepare -> true
                | Tpc.Mid_decision k ->
                  List.for_all site_dead (List.init k Fun.id)
                | Tpc.No_crash | Tpc.Before_prepare -> false)
            end
          done)
        participant_crashes)
    coordinator_crashes

let suite =
  [
    Alcotest.test_case "wal round trip" `Quick test_wal_round_trip;
    Alcotest.test_case "wal empty history" `Quick test_wal_empty;
    Alcotest.test_case "wal torn tail truncates" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal mid-log corruption is loud" `Quick
      test_wal_mid_log_is_loud;
    Alcotest.test_case "wal damaged header is loud" `Quick
      test_wal_header_is_loud;
    Alcotest.test_case "recovery rejects an impossible log" `Quick
      test_restore_rejects_illegal_log;
    Alcotest.test_case "fault plans are deterministic" `Quick
      test_plan_deterministic;
    Alcotest.test_case "log corruption shapes" `Quick test_corrupt_shapes;
    Alcotest.test_case "204 fault schedules, no divergence" `Quick
      test_fault_schedules_converge;
    Alcotest.test_case "single schedule result" `Quick
      test_single_schedule_fields;
    Alcotest.test_case "catalog spans all policies" `Quick
      test_catalog_covers_policies;
    Alcotest.test_case "msim counts injected drops" `Quick
      test_msim_drop_counting;
    Alcotest.test_case "msim duplicates; timers exempt" `Quick
      test_msim_duplicate_and_timer_exempt;
    Alcotest.test_case "runtime abort counters by cause" `Quick
      test_concurrent_abort_counters;
    Alcotest.test_case "participant x coordinator crash matrix" `Quick
      test_tpc_crash_matrix;
    to_alcotest wal_encodes_round_trip;
    to_alcotest wal_corruption_never_silent;
  ]
