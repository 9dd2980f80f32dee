open Weihl_event

type order = Commit_order | Timestamp_order

let order_of_policy : System.ts_policy -> order = function
  | `None_ -> Commit_order
  | `Static | `Hybrid -> Timestamp_order

(* Completed (op, result) pairs of one activity, in program order. *)
let completed_ops h a =
  let events = History.to_list (History.project_activity a h) in
  let rec pair = function
    | Event.Invoke (_, x, op) :: Event.Respond (_, x', res) :: rest
      when Object_id.equal x x' ->
      (x, op, res) :: pair rest
    | _ :: rest -> pair rest
    | [] -> []
  in
  pair events

let commit_position h a =
  let rec go i = function
    | [] -> None
    | Event.Commit (a', _, _) :: _ when Activity.equal a a' -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 (History.to_list h)

let committed_in_order order h =
  let committed = Activity.Set.elements (History.committed h) in
  let keyed =
    match order with
    | Commit_order ->
      List.filter_map
        (fun a -> Option.map (fun i -> (i, a)) (commit_position h a))
        committed
    | Timestamp_order ->
      List.filter_map
        (fun a ->
          Option.map
            (fun ts -> (Timestamp.to_int ts, a))
            (History.timestamp_of h a))
        committed
  in
  List.sort (fun (i, _) (j, _) -> Int.compare i j) keyed
  |> List.map (fun (_, a) -> (a, completed_ops h a))

type report = { replayed : int; substituted : int; dropped_records : int }

type failure =
  | Corrupt of Wal.error
  | Divergent of string
  | Checkpoint_invalid of string

let pp_failure ppf = function
  | Corrupt e -> Wal.pp_error ppf e
  | Divergent msg -> Fmt.string ppf msg
  | Checkpoint_invalid msg -> Fmt.pf ppf "checkpoint invalid: %s" msg

(* Serial replay with a pair of specification frontiers per object:

   - [f_log] follows the {e logged} results,
   - [f_obj] follows the results the rebuilt object actually returns.

   When the two results agree (the common case, and the only case for
   deterministic specifications) the frontiers stay identical.  When
   they disagree but both are permissible outcomes, the specification
   is non-deterministic and the rebuilt object merely made a different
   legal choice — e.g. a semiqueue whose original [deq] order depended
   on commit interleavings replay cannot reproduce.  That is a
   substitution, not a divergence: both executions are correct
   behaviours of the type.  Only a result the log rules out, or a
   logged result the specification rules out, is a divergence. *)
let replay_txns_ts ~init_ts ~commit_ts sys txns =
  let frontiers = ref Object_id.Map.empty in
  let frontier_pair obj =
    match Object_id.Map.find_opt obj !frontiers with
    | Some pair -> pair
    | None -> (
      match System.find_object sys obj with
      | None ->
        Fmt.invalid_arg "Recovery.replay: unknown object %a" Object_id.pp obj
      | Some o ->
        let f = Weihl_spec.Seq_spec.start o.Atomic_object.spec in
        (f, f))
  in
  let substituted = ref 0 in
  let rec loop count = function
    | [] -> Ok { replayed = count; substituted = !substituted; dropped_records = 0 }
    | (activity, ops) :: rest -> (
      let txn = System.begin_txn ?ts:(init_ts activity) sys activity in
      let rec run = function
        | [] ->
          (match commit_ts activity with
          | Some cts ->
            (* Reinstate the logged (2PC-agreed) commit timestamp: every
               site must keep answering the same timestamp for a
               committed transaction across crashes. *)
            System.prepare sys txn;
            System.commit_prepared ~commit_ts:cts sys txn
          | None -> System.commit sys txn);
          Ok ()
        | (obj, op, expected) :: more -> (
          match System.invoke sys txn obj op with
          | Atomic_object.Granted actual ->
            let f_log, f_obj = frontier_pair obj in
            let open Weihl_spec.Seq_spec in
            (match (advance f_log op expected, advance f_obj op actual) with
            | Some f_log', Some f_obj' ->
              if not (Value.equal actual expected) then incr substituted;
              frontiers := Object_id.Map.add obj (f_log', f_obj') !frontiers;
              run more
            | None, _ ->
              Error
                (Divergent
                   (Fmt.str
                      "recovery divergence: log says %a answered %a at %a, \
                       but the specification permits no such outcome"
                      Operation.pp op Value.pp expected Object_id.pp obj))
            | _, None ->
              Error
                (Divergent
                   (Fmt.str
                      "recovery divergence: %a at %a answered %a, log says %a"
                      Operation.pp op Object_id.pp obj Value.pp actual
                      Value.pp expected)))
          | Atomic_object.Wait _ ->
            Error
              (Divergent
                 (Fmt.str
                    "recovery stalled: %a at %a blocked during serial replay"
                    Operation.pp op Object_id.pp obj))
          | Atomic_object.Refused why ->
            Error (Divergent (Fmt.str "recovery refused: %s" why)))
      in
      match run ops with
      | Ok () -> loop (count + 1) rest
      | Error _ as e ->
        (* Leave the failed transaction aborted so the system stays
           consistent. *)
        (if Txn.is_active txn then System.abort sys txn);
        e)
  in
  loop 0 txns

let no_ts _ = None
let replay_txns sys txns = replay_txns_ts ~init_ts:no_ts ~commit_ts:no_ts sys txns

(* History-based replay reinstates the logged timestamps: the initiation
   timestamp from the activity's [<initiate(t)>] event and the commit
   timestamp from its [<commit(t)>] event, when present.  A recovered
   site must answer the same timestamps it answered before the crash —
   under hybrid atomicity those were agreed cross-site at commit, and
   re-deriving them locally would break the agreement. *)
let replay order sys h =
  let init_ts a =
    List.find_map
      (function
        | Event.Initiate (a', _, ts) when Activity.equal a a' -> Some ts
        | _ -> None)
      (History.to_list h)
  in
  let commit_ts a =
    List.find_map
      (function
        | Event.Commit (a', _, (Some _ as ts)) when Activity.equal a a' -> ts
        | _ -> None)
      (History.to_list h)
  in
  replay_txns_ts ~init_ts ~commit_ts sys (committed_in_order order h)

let restore order sys h =
  match replay order sys h with
  | Ok r -> Ok r.replayed
  | Error f -> Error (Fmt.str "%a" pp_failure f)

let restore_from_text order sys text =
  match Notation.history_of_string text with
  | Error e -> Error (Fmt.str "%a" Notation.pp_error e)
  | Ok h -> restore order sys h

let restore_durable order sys text =
  match Wal.decode text with
  | Error e -> Error (Corrupt e)
  | Ok (h, status) -> (
    let dropped = match status with Wal.Intact -> 0 | Wal.Torn n -> n in
    match replay order sys h with
    | Ok r -> Ok { r with dropped_records = dropped }
    | Error f -> Error f)

(* ------------------------------------------------------------------ *)
(* Sharded recovery: reinstate in-doubt (prepared, undecided)
   transactions from the WAL's control records. *)

type shard_report = {
  base : report;
  reinstated : int;
  resolved : int;
  in_doubt : (int * Txn.t) list;
}

(* Re-execute a prepared transaction's logged operations and park it in
   the [Prepared] state.  Serial context: only this transaction is
   active, so a [Wait] would mean the replayed committed state blocks an
   operation the original execution granted — a divergence. *)
let reinstate_prepared sys h gid activity =
  let ops = completed_ops h activity in
  let ts = History.timestamp_of h activity in
  let txn = System.begin_txn ?ts sys activity in
  let rec run = function
    | [] -> Ok txn
    | (obj, op, _logged) :: more -> (
      match System.invoke sys txn obj op with
      | Atomic_object.Granted _ -> run more
      | Atomic_object.Wait _ ->
        Error
          (Fmt.str "in-doubt transaction %d: %a at %a blocked during serial \
                    reinstatement" gid Operation.pp op Object_id.pp obj)
      | Atomic_object.Refused why ->
        Error (Fmt.str "in-doubt transaction %d: refused: %s" gid why))
  in
  match run ops with
  | Ok txn ->
    System.prepare sys txn;
    Ok txn
  | Error _ as e ->
    if Txn.is_active txn then System.abort sys txn;
    e

(* The sharded-recovery engine over an already-decoded record stream.
   [prelude] is a checkpoint's captured projection, replayed ahead of
   the stream's own committed transactions {e in the same}
   [replay_txns_ts] {e invocation} — the spec-validation frontier must
   carry the captured effects into the tail replay, or every tail
   answer gets checked against the initial state.  [skip] names the
   prelude's activities: their committed transactions are excluded from
   the tail replay and their prepared markers ignored (records of a
   checkpointed transaction may straddle the checkpoint's redo
   point). *)
let restore_records ?(resolve = fun _ -> `Unknown) ?skip ?prelude order sys
    records ~dropped =
  let skip_mem =
    match skip with
    | None -> fun _ -> false
    | Some names ->
      let tbl = Hashtbl.create (max 8 (List.length names)) in
      List.iter (fun n -> Hashtbl.replace tbl n ()) names;
      fun a -> Hashtbl.mem tbl (Activity.name a)
  in
  let events =
    List.filter_map
      (function Wal.Event e -> Some e | Wal.Control _ -> None)
      records
  in
  let h = History.of_list events in
  let prelude_txns, prelude_events =
    match prelude with
    | None -> ([], [])
    | Some ph -> (committed_in_order order ph, History.to_list ph)
  in
  (* Prepared records in WAL order, first occurrence per gid; decided
     records, last occurrence per gid (a re-delivered decision must
     agree, and the latest is as authoritative as any). *)
  let prepared = ref [] and decided = Hashtbl.create 8 in
  List.iter
    (function
      | Wal.Control (Wal.Prepared { gid; activity }) ->
        if not (List.mem_assoc gid !prepared) then
          prepared := (gid, activity) :: !prepared
      | Wal.Control (Wal.Decided { gid; verdict }) ->
        Hashtbl.replace decided gid verdict
      | Wal.Event _ | Wal.Control (Wal.Checkpointed _) -> ())
    records;
  let prepared = List.rev !prepared in
  (* Prelude activities and stream activities are disjoint (the [skip]
     filter below removes the overlap), so one concatenated search
     space serves both. *)
  let ts_events = prelude_events @ events in
  let init_ts a =
    List.find_map
      (function
        | Event.Initiate (a', _, ts) when Activity.equal a a' -> Some ts
        | _ -> None)
      ts_events
  in
  let commit_ts a =
    List.find_map
      (function
        | Event.Commit (a', _, (Some _ as ts)) when Activity.equal a a' -> ts
        | _ -> None)
      ts_events
  in
  let txns =
    let tail_txns =
      committed_in_order order h
      |> List.filter (fun (a, _) -> not (skip_mem a))
    in
    match (order, prelude) with
    | _, None -> tail_txns
    | Commit_order, Some _ ->
      (* Every captured transaction committed before every tail one —
         capture only takes transactions already committed at the
         snapshot — so concatenation is the global commit order. *)
      prelude_txns @ tail_txns
    | Timestamp_order, Some ph ->
      (* Concatenation is NOT enough here: a cross-shard transaction
         draws its timestamp where it initiates and may reach this
         shard only after the snapshot, so a tail timestamp can sit
         below captured ones.  Merge the two (individually sorted)
         runs into the global timestamp order. *)
      let key hist (a, _) =
        match History.timestamp_of hist a with
        | Some ts -> Timestamp.to_int ts
        | None -> max_int
      in
      let rec merge xs ys =
        match (xs, ys) with
        | [], l | l, [] -> l
        | x :: xs', y :: ys' ->
          if key ph x <= key h y then x :: merge xs' ys
          else y :: merge xs ys'
      in
      merge prelude_txns tail_txns
  in
  match replay_txns_ts ~init_ts ~commit_ts sys txns with
  | Error f -> Error f
  | Ok base ->
    let base = { base with dropped_records = dropped } in
    let committed = History.committed h and aborted = History.aborted h in
    let reinstated = ref 0 and resolved = ref 0 and in_doubt = ref [] in
    let rec go = function
      | [] ->
        Ok
          {
            base;
            reinstated = !reinstated;
            resolved = !resolved;
            in_doubt = List.rev !in_doubt;
          }
      | (gid, activity) :: rest ->
        (* A prepared transaction whose commit/abort made it into the
           log was already handled by the committed-projection replay
           (or discarded with the aborts); one the checkpoint captured
           was handled by the checkpoint replay. *)
        if
          skip_mem activity
          || Activity.Set.mem activity committed
          || Activity.Set.mem activity aborted
        then go rest
        else (
          match reinstate_prepared sys h gid activity with
          | Error m -> Error (Divergent m)
          | Ok txn ->
            incr reinstated;
            let verdict =
              match Hashtbl.find_opt decided gid with
              | Some v ->
                (v :> [ `Commit of Timestamp.t option | `Abort | `Unknown ])
              | None -> resolve gid
            in
            (match verdict with
            | `Commit commit_ts ->
              System.commit_prepared ?commit_ts sys txn;
              incr resolved
            | `Abort ->
              System.abort_prepared ~reason:"recovery decision" sys txn;
              incr resolved
            | `Unknown -> in_doubt := (gid, txn) :: !in_doubt);
            go rest)
    in
    go prepared

let dropped_of = function Wal.Intact -> 0 | Wal.Torn n -> n

let restore_shard ?resolve order sys text =
  match Wal.decode_records text with
  | Error e -> Error (Corrupt e)
  | Ok (records, status) ->
    restore_records ?resolve order sys records ~dropped:(dropped_of status)

(* ------------------------------------------------------------------ *)
(* Checkpoint-aware recovery *)

type source = Full_replay | From_checkpoint of { covered : int }

type checkpointed_report = {
  shard : shard_report;
  source : source;
  fallbacks : string list;
  wal_records : int;
  replayed_records : int;
}

let pp_source ppf = function
  | Full_replay -> Fmt.string ppf "full-log replay"
  | From_checkpoint { covered } -> Fmt.pf ppf "checkpoint @%d + tail" covered

let restore_checkpointed ?resolve ?(checkpoints = []) order sys text =
  match Wal.decode_records text with
  | Error e -> Error (Corrupt e)
  | Ok (records, status) ->
    let dropped = dropped_of status in
    let base = Wal.base text in
    let total = List.length records in
    (* Checkpointed markers newest first: only a marker durable in the
       WAL makes its file official — a file whose write raced the crash
       has no synced marker and is never consulted. *)
    let markers =
      List.filter_map
        (function
          | Wal.Control (Wal.Checkpointed { seq; digest }) -> Some (seq, digest)
          | _ -> None)
        records
      |> List.rev
    in
    let notes = ref [] in
    let note fmt = Fmt.kstr (fun m -> notes := m :: !notes) fmt in
    let rec pick = function
      | [] -> None
      | (seq, digest) :: older -> (
        if seq < base then begin
          note
            "checkpoint @%d lies behind the truncated log (first surviving \
             record %d): skipped"
            seq base;
          pick older
        end
        else
          match
            List.find_opt (fun file -> Checkpoint.digest file = digest)
            checkpoints
          with
          | None ->
            note
              "checkpoint @%d: no file matches digest %08x: falling back" seq
              digest;
            pick older
          | Some file -> (
            match Checkpoint.decode file with
            | Error why ->
              note "checkpoint @%d: %s: falling back" seq why;
              pick older
            | Ok c when Checkpoint.covered c <> seq ->
              note
                "checkpoint @%d: file covers @%d (stale): falling back" seq
                (Checkpoint.covered c);
              pick older
            | Ok c -> Some (seq, c)))
    in
    (match pick markers with
    | None ->
      if base > 0 then
        Error
          (Checkpoint_invalid
             (Fmt.str
                "log truncated at record %d but no usable checkpoint covers \
                 the missing prefix%a"
                base
                Fmt.(list ~sep:nop (any "; " ++ string))
                (List.rev !notes)))
      else begin
        if markers <> [] then note "no usable checkpoint: full-log replay";
        match restore_records ?resolve order sys records ~dropped with
        | Error f -> Error f
        | Ok shard ->
          Ok
            {
              shard;
              source = Full_replay;
              fallbacks = List.rev !notes;
              wal_records = total;
              replayed_records = total;
            }
      end
    | Some (covered, ckpt) -> (
      let tail = Wal.drop_n (covered - base) records in
      let skip = Checkpoint.activity_names ckpt in
      (* One restore pass replays the captured projection and the tail
         together, so the spec-validation frontier flows from the
         snapshot's last effect into the first tail transaction. *)
      match
        restore_records ?resolve ~skip
          ~prelude:(Checkpoint.history ckpt)
          order sys tail ~dropped
      with
      | Error f -> Error f
      | Ok shard ->
        (* Every transaction in-doubt at the snapshot must still be
           reachable from the tail (the redo point is capped at its
           first record); a violation means truncation dropped live
           state and recovery must not pretend otherwise. *)
        let tail_gids = Hashtbl.create 8 in
        List.iter
          (function
            | Wal.Control (Wal.Prepared { gid; _ }) ->
              Hashtbl.replace tail_gids gid ()
            | _ -> ())
          tail;
        let missing =
          List.filter
            (fun (gid, _) -> not (Hashtbl.mem tail_gids gid))
            (Checkpoint.in_doubt ckpt)
        in
        if missing <> [] then
          Error
            (Checkpoint_invalid
               (Fmt.str
                  "in-doubt transaction(s) %a recorded at the snapshot have \
                   no Prepared record in the log tail"
                  Fmt.(list ~sep:comma int)
                  (List.map fst missing)))
        else
          Ok
            {
              shard;
              source = From_checkpoint { covered };
              fallbacks = List.rev !notes;
              wal_records = total;
              replayed_records = List.length tail;
            }))
