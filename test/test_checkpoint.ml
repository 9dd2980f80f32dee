(* Fuzzy checkpoints: capture and decode, the incremental capture,
   marker-gated officialness, loud fallbacks on damage, bounded tail
   replay, and the equivalence property checkpoint + tail ≡ full-log
   replay. *)

open Core
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest
let granted = Test_op_locking.granted
let protocols = Shard_harness.protocols

(* --- fixtures ------------------------------------------------------- *)

(* One seeded burst of sharded traffic over a checkpointing group;
   [archive] keeps the truncated WAL prefixes so tests can reconstruct
   the full log.  [on_commit] is the driver's commit hook. *)
let run_traffic ?(seed = 7) ?(duration = 300) ?(every = 25) ?on_commit proto =
  let w = proto.Fault_harness.workload () in
  let group =
    Shard_harness.group ~seed ~shards:3
      ~checkpoint:{ Shard_group.every; archive = true }
      proto w.Workload.objects
  in
  let config =
    {
      Sharded_driver.default_config with
      arrivals = Clients 4;
      duration;
      seed = (seed * 17) + 1;
    }
  in
  ignore (Sharded_driver.run ~config ?on_commit group w);
  (group, w)

let fresh_sys proto w = Fault_harness.system proto w.Workload.objects
let order_of proto = Recovery.order_of_policy proto.Fault_harness.policy

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

(* --- capture / decode ------------------------------------------------ *)

let test_roundtrip () =
  let group, _w = run_traffic rw in
  ignore (Shard_group.resolve_in_doubt group);
  let covered = Shard_group.checkpoint_shard group 0 in
  let file = List.hd (Shard_group.checkpoint_files group 0) in
  match Checkpoint.decode file with
  | Error e -> Alcotest.fail ("decode: " ^ e)
  | Ok c ->
    check_int "covered survives the roundtrip" covered (Checkpoint.covered c);
    check_bool "some transactions folded" true (Checkpoint.folded c > 0);
    Alcotest.(check (option string))
      "label mirrors the WAL header" (Some "shard-0") (Checkpoint.label c);
    let rebuild = Checkpoint.rebuild c in
    (match Activity.Set.elements (History.committed rebuild) with
    | [ a ] ->
      check_bool "one update activity named for the shard" true
        ((not (Activity.is_read_only a))
        && String.starts_with ~prefix:"ckpt0_" (Activity.name a))
    | acts ->
      Alcotest.fail
        (Fmt.str "%d committed activities in the rebuild" (List.length acts)));
    check_int "rebuild operations are its invocations"
      (List.length (List.filter Event.is_invoke (History.to_list rebuild)))
      (Checkpoint.rebuild_ops c);
    (* Under commit order every committed transaction is folded, so the
       rebuild holds the committed state of the shard's objects. *)
    let spec _ = Some Bank_account.spec in
    let projection = Fold.create ~ts_ordered:false ~spec in
    List.iter
      (fun (_, ops) ->
        Fold.apply projection
          (List.filter (fun (x, _, _) -> Shard_group.shard_of group x = 0) ops))
      (Shard_group.committed_projection group);
    Alcotest.(check (option string))
      "the rebuild reaches the committed state" None
      (Fold.diff
         (Fold.of_events ~ts_ordered:false ~spec (History.to_list rebuild))
         projection);
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

(* Crash [victim] and recover it both ways, each into a fresh system:
   from the full log — the archived truncation prefixes plus the
   durable tail — and from checkpoint + tail.  Returns the durable
   text with both systems and results. *)
let recover_both proto w group victim =
  let segments = Shard_group.archived_segments group victim in
  let files = Shard_group.checkpoint_files group victim in
  let text = Shard_group.crash_shard group victim in
  let full = List.concat_map decode_records segments @ decode_records text in
  let order = order_of proto in
  let a = fresh_sys proto w and b = fresh_sys proto w in
  let full_r =
    Recovery.restore_checkpointed order a
      (Wal.encode_records ~label:"full" full)
    |> Result.map (fun r -> r.Recovery.shard)
  in
  let ckpt_r = Recovery.restore_checkpointed ~checkpoints:files order b text in
  (text, (a, full_r), (b, ckpt_r))

(* The records a checkpointed recovery of [text] may replay. *)
let tail_bound text cr =
  match cr.Recovery.source with
  | Recovery.From_checkpoint { covered } ->
    cr.Recovery.wal_records - (covered - Wal.base text)
  | Recovery.Full_replay -> cr.Recovery.wal_records

(* The rebuild transaction stands for the transactions it folded. *)
let counts_add_up fr cr =
  let ckpt = cr.Recovery.shard.Recovery.base in
  let full_n = fr.Recovery.base.Recovery.replayed in
  if ckpt.Recovery.folded + ckpt.Recovery.replayed = full_n then None
  else
    Some
      (Fmt.str
         "folded %d and replayed %d transactions on the checkpoint path, \
          replayed %d from the full log"
         ckpt.Recovery.folded ckpt.Recovery.replayed full_n)

(* checkpoint + tail must reach exactly the state a full-log replay
   reaches, for every protocol and both serialization orders. *)
let prop_ckpt_tail_equals_full =
  QCheck.Test.make ~count:12 ~name:"checkpoint + tail ≡ full-log replay"
    QCheck.(pair (int_bound 1_000) (int_bound 5))
    (fun (seed, pidx) ->
      let proto = List.nth protocols (pidx mod List.length protocols) in
      let group, w = run_traffic ~seed:(seed + 1) ~duration:150 proto in
      match recover_both proto w group (seed mod 3) with
      | _, (_, Error f), _ ->
        QCheck.Test.fail_reportf "full replay failed: %a" Recovery.pp_failure f
      | _, _, (_, Error f) ->
        QCheck.Test.fail_reportf "checkpointed replay failed: %a"
          Recovery.pp_failure f
      | text, (a, Ok fr), (b, Ok cr) -> (
        match counts_add_up fr cr with
        | Some msg -> QCheck.Test.fail_report msg
        | None ->
          if balances a w <> balances b w then
            QCheck.Test.fail_reportf "recovered states differ"
          else if cr.Recovery.replayed_records > tail_bound text cr then
            QCheck.Test.fail_reportf "replayed %d records, tail bound %d"
              cr.Recovery.replayed_records (tail_bound text cr)
          else true))

(* --- the state oracle over the whole catalog -------------------------- *)

(* One crash of one shard of a checkpointing group, recovered both
   ways.  Traffic runs the plan's 2PC fault at its chosen commit;
   shards it takes down recover from the decision log first.  The
   victim is the shard with the longest stream, its newest checkpoint
   damaged per the plan ([Ckpt_race] loses the marker of a checkpoint
   taken just before the crash).  [None] when the two recoveries agree
   on every object's state — compared through [Seq_spec.rebuild],
   unless either replay substituted a non-deterministic result — the
   counts add up, and the replay stays within the tail bound. *)
let oracle_traffic proto ~seed =
  let plan = Shard_plan.generate ~seed in
  let on_commit = Shard_harness.commit_with_fault plan ~injected:(ref false) in
  let group, w = run_traffic ~seed ~duration:150 ~every:8 ~on_commit proto in
  (plan, group, w)

let state_oracle (proto : Fault_harness.protocol) ~seed =
  let plan, group, w = oracle_traffic proto ~seed in
  let shards = [ 0; 1; 2 ] in
  let recovered_first =
    List.for_all
      (fun s ->
        (not (Shard_group.shard_crashed group s))
        || Result.is_ok
             (Shard_group.recover_shard group s
                (Shard_group.durable_shard group s)))
      shards
  in
  if not recovered_first then
    Some "a shard the 2PC fault took down did not recover"
  else begin
    let victim =
      List.fold_left
        (fun best s ->
          let count = Shard_group.record_count group in
          if count s > count best then s else best)
        0 shards
    in
    (match plan.Shard_plan.ckpt with
    | Shard_plan.Ckpt_race ->
      ignore (Shard_group.checkpoint_shard ~lose_marker:true group victim)
    | Shard_plan.Ckpt_pristine -> ()
    | Shard_plan.Ckpt_bit_flip _ | Shard_plan.Ckpt_torn _ ->
      ignore
        (Shard_group.corrupt_checkpoint group victim
           ~f:(Shard_plan.corrupt_ckpt plan)));
    match recover_both proto w group victim with
    | _, (_, Error f), _ ->
      Some (Fmt.str "full replay failed: %a" Recovery.pp_failure f)
    | _, _, (_, Error f) ->
      Some (Fmt.str "checkpointed replay failed: %a" Recovery.pp_failure f)
    | text, (a, Ok fr), (b, Ok cr) -> (
      let state sys =
        Fold.of_events
          ~ts_ordered:(order_of proto = Recovery.Timestamp_order)
          ~spec:(fun _ -> Some proto.Fault_harness.spec)
          (History.to_list (System.history sys))
      in
      match counts_add_up fr cr with
      | Some _ as failed -> failed
      | None ->
        if cr.Recovery.replayed_records > tail_bound text cr then
          Some
            (Fmt.str "replayed %d records, tail bound %d"
               cr.Recovery.replayed_records (tail_bound text cr))
        else if
          fr.Recovery.base.Recovery.substituted > 0
          || cr.Recovery.shard.Recovery.base.Recovery.substituted > 0
        then None
        else
          Option.map
            (fun msg -> "states differ: " ^ msg)
            (Fold.diff (state a) (state b)))
  end

let prop_state_oracle =
  QCheck.Test.make ~count:6
    ~name:"state oracle: checkpoint + tail ≡ full replay, every protocol"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      List.for_all
        (fun proto ->
          match state_oracle proto ~seed with
          | None -> true
          | Some msg ->
            QCheck.Test.fail_reportf "%s, seed %d: %s"
              proto.Fault_harness.name seed msg)
        Fault_harness.catalog)

(* --- incremental capture: the line cache against a fresh derivation -- *)

(* The rebuild transaction laid out from scratch: per object its steps,
   opened by an initiation under [`Static], then one commit per object,
   carrying [ts] under [`Hybrid]. *)
let rebuild_from_scratch policy ~name ~ts objects =
  let rb = Activity.update name and ts = Timestamp.v ts in
  List.concat_map
    (fun (x, steps) ->
      (match policy with `Static -> [ Event.Initiate (rb, x, ts) ] | _ -> [])
      @ List.concat_map
          (fun (op, v) ->
            [ Event.Invoke (rb, x, op); Event.Respond (rb, x, v) ])
          steps)
    objects
  @ List.map
      (fun (x, _) ->
        Event.Commit (rb, x, match policy with `Hybrid -> Some ts | _ -> None))
      objects

(* Capture [stream] and decode the file: [Ok] the capture when the
   decoded rebuild equals the one laid out from [Fold.rebuild
   reference] — a fold fed the same events to the same mark — and the
   capture's counts agree with the file, [Error] why not otherwise. *)
let check_capture ~policy ~mark ~name ~ts stream reference =
  match Checkpoint.capture stream ~mark ~name () with
  | Error msg -> Error ("capture: " ^ msg)
  | Ok c -> (
    match (Checkpoint.decode c.Checkpoint.file, Fold.rebuild reference) with
    | Error msg, _ -> Error ("decode: " ^ msg)
    | _, Error msg -> Error ("reference: " ^ msg)
    | Ok d, Ok objects ->
      let expected = rebuild_from_scratch policy ~name ~ts objects in
      if
        not
          (List.equal Event.equal expected
             (History.to_list (Checkpoint.rebuild d)))
      then
        Error
          (Fmt.str "%s: the decoded rebuild differs from the one derived from \
                    scratch (%d objects)"
             name (List.length objects))
      else if
        c.Checkpoint.objects <> List.length objects
        || c.Checkpoint.rebuild_ops <> Checkpoint.rebuild_ops d
        || c.Checkpoint.covered <> Checkpoint.covered d
      then Error (name ^ ": the capture's counts disagree with its file")
      else Ok c)

(* Replay one shard's record stream through a fresh stream, capturing
   where the group captured (at each [Checkpointed] marker), after
   every commit record, so that objects keep appearing between
   captures, and at the end; each time at the highest mark no later
   update commits at or below.  [None] when every capture passes
   {!check_capture}, its rebuild timestamp the largest one the capture
   folded. *)
let replay_captures (proto : Fault_harness.protocol) records =
  let policy = proto.Fault_harness.policy in
  let ts_ordered = policy <> `None_ in
  let spec _ = Some proto.Fault_harness.spec in
  let records = Array.of_list records in
  let n = Array.length records in
  let first_ts = Hashtbl.create 64 in
  Array.iter
    (function
      | Wal.Event e -> (
        let a = Activity.name (Event.activity e) in
        match Event.timestamp e with
        | Some ts when not (Hashtbl.mem first_ts a) ->
          Hashtbl.add first_ts a (Timestamp.to_int ts)
        | _ -> ())
      | Wal.Control _ -> ())
    records;
  let ts_of a = Option.value ~default:(-1) (Hashtbl.find_opt first_ts a) in
  let safe = Array.make (n + 1) max_int in
  for p = n - 1 downto 0 do
    safe.(p) <-
      (match records.(p) with
      | Wal.Event (Event.Commit (a, _, _))
        when (not (Activity.is_read_only a)) && ts_of (Activity.name a) >= 0 ->
        min safe.(p + 1) (ts_of (Activity.name a) - 1)
      | _ -> safe.(p + 1))
  done;
  let stream = Checkpoint.stream ~policy ~spec in
  let reference = Fold.create ~ts_ordered ~spec in
  let committed = Hashtbl.create 64 and aborted = Hashtbl.create 8 in
  let fed = ref 0 in
  let capture_at p =
    let chunk = Array.to_list (Array.sub records !fed (p - !fed)) in
    fed := p;
    Checkpoint.feed stream chunk;
    List.iter
      (function
        | Wal.Event e -> (
          Fold.feed reference e;
          match e with
          | Event.Commit (a, _, _) ->
            Hashtbl.replace committed (Activity.name a) ()
          | Event.Abort (a, _) -> Hashtbl.replace aborted (Activity.name a) ()
          | _ -> ())
        | Wal.Control _ -> ())
      chunk;
    let mark = safe.(p) in
    if ts_ordered then Fold.upto reference mark;
    let ts =
      Hashtbl.fold
        (fun a () acc ->
          let ts = ts_of a in
          if
            (not (Hashtbl.mem aborted a))
            && ((not ts_ordered) || (ts >= 0 && ts <= mark))
          then max acc ts
          else acc)
        committed 0
    in
    let name = Fmt.str "ckpt_at_%d" p in
    match check_capture ~policy ~mark ~name ~ts stream reference with
    | Ok _ -> None
    | Error msg -> Some msg
  in
  let points =
    List.filter
      (fun p ->
        p = n
        || (match records.(p) with
           | Wal.Control (Wal.Checkpointed _) -> true
           | _ -> false)
        ||
        match records.(p - 1) with
        | Wal.Event (Event.Commit _) -> true
        | _ -> false)
      (List.init n succ)
  in
  List.find_map capture_at points

let prop_incremental_capture =
  QCheck.Test.make ~count:4
    ~name:"incremental capture: every capture decodes to a fresh derivation"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      List.for_all
        (fun proto ->
          let _, group, _ = oracle_traffic proto ~seed in
          List.for_all
            (fun s ->
              let records =
                List.concat_map decode_records
                  (Shard_group.archived_segments group s)
                @ decode_records (Shard_group.durable_shard group s)
              in
              match replay_captures proto records with
              | None -> true
              | Some msg ->
                QCheck.Test.fail_reportf "%s, seed %d, shard %d: %s"
                  proto.Fault_harness.name seed s msg)
            [ 0; 1; 2 ])
        Fault_harness.catalog)

let account i = Object_id.v (Fmt.str "acct%d" i)

(* One committed update transaction's records: each step's invocation
   and response, then one commit per object. *)
let committed_txn name steps =
  let a = Activity.update name in
  List.concat_map
    (fun (x, op, v) ->
      [ Event.Invoke (a, x, op); Event.Respond (a, x, v) ])
    steps
  @ List.map
      (fun x -> Event.Commit (a, x, None))
      (List.sort_uniq Object_id.compare (List.map (fun (x, _, _) -> x) steps))
  |> List.map (fun e -> Wal.Event e)

let deposits name amounts =
  committed_txn name
    (List.map (fun (x, n) -> (x, Bank_account.deposit n, Value.ok)) amounts)

(* Accounts under commit order, fed one committed transaction at a time:
   funding, a capture with nothing new, a wave over some accounts, a
   new account in the middle of the order, an account drained back to
   its initial balance.  Each capture re-derives exactly the accounts
   the fold moved since the previous one. *)
let test_incremental_capture () =
  let spec _ = Some Bank_account.spec in
  let stream = Checkpoint.stream ~policy:`None_ ~spec in
  let reference = Fold.create ~ts_ordered:false ~spec in
  let step = ref 0 in
  let capture what records ~rederived ~objects =
    Checkpoint.feed stream records;
    List.iter
      (function Wal.Event e -> Fold.feed reference e | Wal.Control _ -> ())
      records;
    incr step;
    match
      check_capture ~policy:`None_ ~mark:(-1) ~name:(Fmt.str "ckpt_%d" !step)
        ~ts:0 stream reference
    with
    | Error msg -> Alcotest.fail (what ^ ": " ^ msg)
    | Ok c ->
      check_int (what ^ ": objects re-derived") rederived
        c.Checkpoint.rederived;
      check_int (what ^ ": state lines") objects c.Checkpoint.objects;
      c.Checkpoint.file
  in
  (* The state lines: every line after the skip set's, before the
     in-doubt set. *)
  let state_lines file =
    let lines = String.split_on_char '\n' file in
    let rec after_skip = function
      | l :: rest when String.starts_with ~prefix:"skip " l -> rest
      | _ :: rest -> after_skip rest
      | [] -> []
    in
    List.filter
      (fun l -> l <> "" && not (String.starts_with ~prefix:Wal.magic l))
      (after_skip lines)
  in
  let funded =
    capture "funding"
      (deposits "fund" (List.init 10 (fun i -> (account i, 100))))
      ~rederived:10 ~objects:10
  in
  let again = capture "nothing new" [] ~rederived:0 ~objects:10 in
  Alcotest.(check (list string))
    "an unmoved object's line is reused verbatim" (state_lines funded)
    (state_lines again);
  ignore
    (capture "a wave over 3 accounts"
       (deposits "wave" [ (account 1, 5); (account 4, 5); (account 7, 5) ])
       ~rederived:3 ~objects:10);
  ignore
    (capture "a new account mid-order"
       (deposits "open" [ (Object_id.v "acct45", 9) ])
       ~rederived:1 ~objects:11);
  let drained =
    capture "an account drained to its initial balance"
      (committed_txn "drain"
         [ (account 2, Bank_account.withdraw 100, Value.ok) ])
      ~rederived:1 ~objects:10
  in
  check_bool "the drained account writes no line" false
    (List.exists
       (fun l -> List.nth_opt (String.split_on_char ' ' l) 1 = Some "acct2")
       (state_lines drained));
  ignore (capture "nothing new again" [] ~rederived:0 ~objects:10)

(* --- decode: damage is an Error with a one-line reason, never a raise - *)

let test_decode_errors () =
  let spec _ = Some Bank_account.spec in
  let stream = Checkpoint.stream ~policy:`None_ ~spec in
  Checkpoint.feed stream
    (deposits "fund" (List.init 4 (fun i -> (account i, 10 + i))));
  let file =
    match
      Checkpoint.capture stream ~mark:(-1) ~name:"ckpt_1" ~label:"shard-0" ()
    with
    | Ok c -> c.Checkpoint.file
    | Error msg -> Alcotest.fail msg
  in
  (match Checkpoint.decode file with
  | Ok d -> check_int "the intact file decodes" 4 (Checkpoint.rebuild_ops d)
  | Error msg -> Alcotest.fail ("intact file: " ^ msg));
  let lines = String.split_on_char '\n' file in
  (* Lines 0-2 are the header, rebuild line and skip count (no skipped
     names here); the state lines follow. *)
  let first_state = 3 in
  let with_lines f = String.concat "\n" (f lines) in
  let replace i l =
    with_lines (List.mapi (fun j x -> if j = i then l else x))
  in
  let framed body = Fmt.str "%08x %s" (Wal.crc32 body) body in
  let nth i = List.nth lines i in
  let header_count k =
    replace 0
      (String.concat " "
         (List.mapi
            (fun j tok -> if j = 4 then string_of_int k else tok)
            (String.split_on_char ' ' (nth 0))))
  in
  let cases =
    [
      ( "a state line with a bad CRC",
        replace first_state
          (String.map (fun c -> if c = '0' then '1' else c) (nth first_state)),
        "checksum mismatch" );
      ( "a step that does not parse",
        replace first_state (framed "acct0 deposit(( ok"),
        "does not parse" );
      ( "a result that does not parse",
        replace first_state (framed "acct0 deposit(10) o-k"),
        "does not parse" );
      ( "an operation without its result",
        replace first_state (framed "acct0 deposit(10)"),
        "without its result" );
      ( "objects out of order",
        with_lines
          (List.mapi (fun j x ->
               if j = first_state then nth (first_state + 1)
               else if j = first_state + 1 then nth first_state
               else x)),
        "out of order or repeated" );
      ( "an object repeated",
        replace (first_state + 1) (nth first_state),
        "out of order or repeated" );
      ("a header counting one line too many", header_count 5, "holds 4");
      ("a header counting one line too few", header_count 3, "holds more");
      ( "a bad header",
        replace 0 "weihl-ckpt 2 @0 0 4",
        "bad or missing header" );
      ( "a bad rebuild line",
        replace 1 "rebuild eager 0 ckpt_1",
        "bad rebuild line" );
      ("a file cut short", String.sub file 0 40, "cut short");
    ]
  in
  List.iter
    (fun (what, text, reason) ->
      match Checkpoint.decode text with
      | Ok _ -> Alcotest.fail (what ^ ": decoded")
      | Error msg ->
        check_bool
          (Fmt.str "%s: %S names %S" what msg reason)
          true
          (Test_lint.contains msg reason);
        check_bool (what ^ ": one line") false (String.contains msg '\n'))
    cases;
  (* Every prefix and every flipped byte decodes or fails, never raises. *)
  String.iteri
    (fun i _ ->
      ignore (Checkpoint.decode (String.sub file 0 i));
      let b = Bytes.of_string file in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      ignore (Checkpoint.decode (Bytes.to_string b)))
    file

(* --- retention: a lost marker evicts nothing ------------------------ *)

(* Two marked checkpoints, one whose marker is lost, a third marked one,
   traffic between each, on shard 0; then the newest file is cut in
   half and the shard crashes.  Only marked files count toward the
   two-file retention window and the truncation horizon, so the second
   marked file is still there, and the truncated log still reaches its
   redo point: recovery falls back to it.  The same run with the marker
   kept falls back to the third file. *)
let test_lost_marker_keeps_marked_files () =
  List.iter
    (fun name ->
      let proto = Option.get (Fault_harness.find_protocol name) in
      List.iter
        (fun seed ->
          List.iter
            (fun lose ->
              let w = proto.Fault_harness.workload () in
              let group =
                Shard_harness.group ~seed ~shards:3
                  ~checkpoint:{ Shard_group.every = 1_000_000; archive = false }
                  proto w.Workload.objects
              in
              let traffic k =
                let config =
                  {
                    Sharded_driver.default_config with
                    arrivals = Clients 4;
                    duration = 120;
                    seed = (seed * 7) + k;
                    activity_base = k * 10_000;
                  }
                in
                ignore (Sharded_driver.run ~config group w)
              in
              traffic 0;
              ignore (Shard_group.checkpoint_shard group 0);
              traffic 1;
              let second = Shard_group.checkpoint_shard group 0 in
              traffic 2;
              let third =
                Shard_group.checkpoint_shard ~lose_marker:lose group 0
              in
              (* The older marked file recovery must fall back to. *)
              let older = if lose then second else third in
              traffic 3;
              ignore (Shard_group.checkpoint_shard group 0);
              ignore
                (Shard_group.corrupt_checkpoint group 0 ~f:(fun f ->
                     String.sub f 0 (String.length f / 2)));
              let text = Shard_group.crash_shard group 0 in
              let what = Fmt.str "%s seed %d lose_marker %b" name seed lose in
              match Shard_group.recover_shard group 0 text with
              | Error f ->
                Alcotest.fail (Fmt.str "%s: %a" what Recovery.pp_failure f)
              | Ok r -> (
                check_bool (what ^ ": fell back loudly") true
                  (r.Recovery.fallbacks <> []);
                match r.Recovery.source with
                | Recovery.From_checkpoint { covered } ->
                  check_int (what ^ ": the older marked file") older covered
                | Recovery.Full_replay ->
                  Alcotest.fail (what ^ ": expected the older marked file")))
            [ true; false ])
        [ 1; 2; 3; 4 ])
    [ "escrow"; "rw"; "hybrid" ]

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
    Alcotest.test_case "lost marker: marked files stay retained" `Quick
      test_lost_marker_keeps_marked_files;
    Alcotest.test_case "incremental capture re-derives only moved objects"
      `Quick test_incremental_capture;
    Alcotest.test_case "decode: damage is a one-line error" `Quick
      test_decode_errors;
    to_alcotest prop_ckpt_tail_equals_full;
    to_alcotest prop_state_oracle;
    to_alcotest prop_incremental_capture;
  ]
