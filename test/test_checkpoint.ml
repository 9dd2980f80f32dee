(* Fuzzy checkpoints: capture/encode/decode, marker-gated officialness,
   loud fallbacks on damage, bounded tail replay, and the equivalence
   property checkpoint + tail ≡ full-log replay. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest
let granted = Test_op_locking.granted
let protocols = Shard_harness.protocols

(* --- fixtures ------------------------------------------------------- *)

(* One seeded burst of sharded traffic over a checkpointing group;
   [archive] keeps the truncated WAL prefixes so tests can reconstruct
   the full log. *)
let run_traffic ?(seed = 7) ?(duration = 300) ?(every = 25) proto =
  let group =
    Shard_group.create ~policy:proto.Fault_harness.policy ~seed ~shards:3
      ~checkpoint:{ Shard_group.every; archive = true }
      ()
  in
  let w = proto.Fault_harness.workload () in
  List.iter
    (fun id -> Shard_group.add_object group id proto.Fault_harness.make_object)
    w.Workload.objects;
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients 4;
      duration;
      seed = (seed * 17) + 1;
    }
  in
  ignore (Sharded_driver.run ~config group w);
  (group, w)

let fresh_sys proto w =
  let sys = System.create ~policy:proto.Fault_harness.policy () in
  List.iter
    (fun id ->
      System.add_object sys (proto.Fault_harness.make_object (System.log sys) id))
    w.Workload.objects;
  sys

let order_of proto =
  match proto.Fault_harness.policy with
  | `None_ -> Recovery.Commit_order
  | _ -> Recovery.Timestamp_order

(* Every account's balance as one read-only probe per object, so two
   recovered systems can be compared for state equality. *)
let balances sys w =
  List.map
    (fun x ->
      let t = System.begin_txn sys (Activity.update "probe") in
      let v =
        Value.to_string (granted (System.invoke sys t x Bank_account.balance))
      in
      System.abort sys t;
      (Fmt.str "%a" Object_id.pp x, v))
    w.Workload.objects

let rw = List.nth protocols 0
let hybrid = List.nth protocols 5

let decode_records text =
  match Wal.decode_records text with
  | Ok (rs, _) -> rs
  | Error e -> Alcotest.fail (Fmt.str "wal decode: %a" Wal.pp_error e)

(* --- capture / encode / decode -------------------------------------- *)

let test_roundtrip () =
  let group, _w = run_traffic rw in
  let covered = Shard_group.checkpoint_shard group 0 in
  let file = List.hd (Shard_group.checkpoint_files group 0) in
  match Checkpoint.decode file with
  | Error e -> Alcotest.fail ("decode: " ^ e)
  | Ok c ->
    check_int "covered survives the roundtrip" covered (Checkpoint.covered c);
    check_bool "some transactions captured" true (Checkpoint.txn_count c > 0);
    Alcotest.(check (option string))
      "label mirrors the WAL header" (Some "shard-0") (Checkpoint.label c);
    check_int "as many names as transactions" (Checkpoint.txn_count c)
      (List.length (Checkpoint.activity_names c));
    let marker =
      List.find_map
        (function
          | Wal.Control (Wal.Checkpointed { seq; digest })
            when seq = covered ->
            Some digest
          | _ -> None)
        (decode_records (Shard_group.durable_shard group 0))
    in
    Alcotest.(check (option int))
      "the durable marker carries the file's digest"
      (Some (Checkpoint.digest file))
      marker

let test_truncation_bounds_replay () =
  let group, _w = run_traffic rw in
  (* Two explicit checkpoints fill the retention window (retain = 2),
     which is when truncation first runs. *)
  ignore (Shard_group.checkpoint_shard group 0);
  let covered = Shard_group.checkpoint_shard group 0 in
  let base = Shard_group.wal_base group 0 in
  check_bool "the WAL head was truncated" true (base > 0);
  let text = Shard_group.crash_shard group 0 in
  check_int "the durable header advertises the base" base (Wal.base text);
  match Shard_group.recover_shard group 0 text with
  | Error f -> Alcotest.fail (Fmt.str "recovery: %a" Recovery.pp_failure f)
  | Ok r ->
    (match r.Recovery.source with
    | Recovery.From_checkpoint { covered = c } ->
      check_int "recovered from the newest checkpoint" covered c
    | Recovery.Full_replay -> Alcotest.fail "expected checkpoint recovery");
    Alcotest.(check (list string)) "no fallbacks" [] r.Recovery.fallbacks;
    check_int "replay consumed exactly the tail"
      (r.Recovery.wal_records - (covered - base))
      r.Recovery.replayed_records

(* --- damage --------------------------------------------------------- *)

let recover_damaged group ~f =
  ignore (Shard_group.checkpoint_shard group 0);
  let covered_old = Shard_group.checkpoint_shard group 0 in
  ignore (Shard_group.checkpoint_shard group 0);
  check_bool "a checkpoint existed to damage" true
    (Shard_group.corrupt_checkpoint group 0 ~f);
  let text = Shard_group.crash_shard group 0 in
  match Shard_group.recover_shard group 0 text with
  | Error f -> Alcotest.fail (Fmt.str "recovery: %a" Recovery.pp_failure f)
  | Ok r ->
    check_bool "fell back loudly" true (r.Recovery.fallbacks <> []);
    (match r.Recovery.source with
    | Recovery.From_checkpoint { covered } ->
      check_int "used the older retained checkpoint" covered_old covered
    | Recovery.Full_replay ->
      Alcotest.fail "older checkpoint should have been usable")

let test_torn_checkpoint_falls_back () =
  let group, _w = run_traffic rw in
  recover_damaged group ~f:(fun s -> String.sub s 0 (String.length s - 40))

let test_digest_mismatch_falls_back () =
  let group, _w = run_traffic rw in
  recover_damaged group ~f:(fun s ->
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      Bytes.to_string b)

let test_marker_race_ignores_file () =
  (* [every] too large for auto checkpoints: the only checkpoint is the
     one whose marker never became durable, so it must not count. *)
  let group, _w = run_traffic ~every:100_000 rw in
  ignore (Shard_group.checkpoint_shard ~lose_marker:true group 0);
  check_int "file reached disk" 1
    (List.length (Shard_group.checkpoint_files group 0));
  let text = Shard_group.crash_shard group 0 in
  match Shard_group.recover_shard group 0 text with
  | Error f -> Alcotest.fail (Fmt.str "recovery: %a" Recovery.pp_failure f)
  | Ok r ->
    (match r.Recovery.source with
    | Recovery.Full_replay -> ()
    | Recovery.From_checkpoint _ ->
      Alcotest.fail "an unmarked checkpoint file was consulted");
    check_int "the whole log was replayed" r.Recovery.wal_records
      r.Recovery.replayed_records

let test_truncated_log_without_checkpoint_fails () =
  let group, _w = run_traffic rw in
  ignore (Shard_group.checkpoint_shard group 0);
  ignore (Shard_group.checkpoint_shard group 0);
  check_bool "truncated" true (Shard_group.wal_base group 0 > 0);
  let text = Shard_group.crash_shard group 0 in
  let sys = System.create () in
  match Recovery.restore_checkpointed ~checkpoints:[] Recovery.Commit_order sys text with
  | Error (Recovery.Checkpoint_invalid _) -> ()
  | Error f ->
    Alcotest.fail (Fmt.str "wrong failure: %a" Recovery.pp_failure f)
  | Ok _ ->
    Alcotest.fail "a truncated log recovered without any checkpoint"

(* --- the equivalence property --------------------------------------- *)

(* checkpoint + tail must reach exactly the state a full-log replay
   reaches, for every protocol and both serialization orders.  The full
   log is reconstructed from the archived truncation prefixes. *)
let prop_ckpt_tail_equals_full =
  QCheck.Test.make ~count:12 ~name:"checkpoint + tail ≡ full-log replay"
    QCheck.(pair (int_bound 1_000) (int_bound 5))
    (fun (seed, pidx) ->
      let proto = List.nth protocols (pidx mod List.length protocols) in
      let group, w = run_traffic ~seed:(seed + 1) ~duration:150 proto in
      let victim = seed mod 3 in
      let segments = Shard_group.archived_segments group victim in
      let files = Shard_group.checkpoint_files group victim in
      let text = Shard_group.crash_shard group victim in
      let full =
        List.concat_map decode_records segments @ decode_records text
      in
      let full_text = Wal.encode_records ~label:"full" full in
      let order = order_of proto in
      let a = fresh_sys proto w and b = fresh_sys proto w in
      match
        ( Recovery.restore_shard order a full_text,
          Recovery.restore_checkpointed ~checkpoints:files order b text )
      with
      | Error f, _ ->
        QCheck.Test.fail_reportf "full replay failed: %a" Recovery.pp_failure f
      | _, Error f ->
        QCheck.Test.fail_reportf "checkpointed replay failed: %a"
          Recovery.pp_failure f
      | Ok fr, Ok cr ->
        let full_n = fr.Recovery.base.Recovery.replayed in
        let ckpt_n = cr.Recovery.shard.Recovery.base.Recovery.replayed in
        if full_n <> ckpt_n then
          QCheck.Test.fail_reportf
            "replayed %d transactions from the checkpoint path, %d from the \
             full log"
            ckpt_n full_n
        else if balances a w <> balances b w then
          QCheck.Test.fail_reportf "recovered states differ"
        else begin
          (match cr.Recovery.source with
          | Recovery.From_checkpoint { covered } ->
            let bound =
              cr.Recovery.wal_records - (covered - Wal.base text)
            in
            if cr.Recovery.replayed_records > bound then
              QCheck.Test.fail_reportf "replayed %d records, tail bound %d"
                cr.Recovery.replayed_records bound
          | Recovery.Full_replay -> ());
          true
        end)

(* --- hybrid: checkpoint recovery keeps agreed timestamps ------------- *)

let test_hybrid_checkpoint_recovery () =
  let group, _w = run_traffic ~seed:11 hybrid in
  ignore (Shard_group.checkpoint_shard group 1);
  ignore (Shard_group.checkpoint_shard group 1);
  let text = Shard_group.crash_shard group 1 in
  match Shard_group.recover_shard group 1 text with
  | Error f -> Alcotest.fail (Fmt.str "recovery: %a" Recovery.pp_failure f)
  | Ok r ->
    (match r.Recovery.source with
    | Recovery.From_checkpoint _ -> ()
    | Recovery.Full_replay -> Alcotest.fail "expected checkpoint recovery");
    ignore (Shard_group.resolve_in_doubt group);
    check_int "nothing stuck in-doubt" 0 (Shard_group.in_doubt_count group)

let suite =
  [
    Alcotest.test_case "capture/encode/decode roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "truncation bounds the replay" `Quick
      test_truncation_bounds_replay;
    Alcotest.test_case "torn checkpoint falls back loudly" `Quick
      test_torn_checkpoint_falls_back;
    Alcotest.test_case "digest mismatch falls back loudly" `Quick
      test_digest_mismatch_falls_back;
    Alcotest.test_case "marker race: unmarked file never counts" `Quick
      test_marker_race_ignores_file;
    Alcotest.test_case "truncated log with no checkpoint fails loudly" `Quick
      test_truncated_log_without_checkpoint_fails;
    Alcotest.test_case "hybrid recovery from a checkpoint" `Quick
      test_hybrid_checkpoint_recovery;
    to_alcotest prop_ckpt_tail_equals_full;
  ]
