open Weihl_event
module Cc = Weihl_cc
module Tpc = Weihl_dist.Tpc
module St = Weihl_obs.Shard_trace
module Json = Weihl_obs.Json

type invoke_result =
  | Granted of Value.t
  | Wait of Gtxn.t list
  | Refused of string

type commit_outcome =
  | Fast
  | Distributed of Tpc.decision * int list (* participant shards, in order *)

type checkpoint_config = {
  every : int;  (* auto-checkpoint a shard every [every] commits *)
  retain : int;  (* checkpoint files kept per shard *)
  archive : bool;  (* keep truncated WAL prefixes instead of dropping them *)
}

let default_checkpoint = { every = 100; retain = 2; archive = false }

type t = {
  policy : Cc.System.ts_policy;
  shards : Cc.System.t array;
  clock : Cc.Lamport_clock.t; (* the group's timestamp authority *)
  mutable next_gid : int;
  gtxns : (int, Gtxn.t) Hashtbl.t; (* live or unresolved *)
  local_index : (int, Gtxn.t) Hashtbl.t array; (* per shard: leg id -> gtxn *)
  decisions : (int, [ `Commit of int | `Abort ]) Hashtbl.t;
      (* the coordinator's durable decision log; absence = presumed abort *)
  mutable commit_seq : (int * Activity.t * Timestamp.t option) list;
      (* committed gtxns, newest first, with their replay-order timestamp *)
  journal : (int, (Object_id.t * Operation.t * Value.t) list) Hashtbl.t;
      (* per gtxn, granted ops newest first — global program order,
         which per-shard logs cannot reconstruct *)
  mutable controls : (int * Cc.Wal.control) list array;
      (* per shard, newest first: (event-log length at append, record) *)
  constructors :
    (string, Object_id.t * int * (Cc.Event_log.t -> Object_id.t -> Cc.Atomic_object.t))
    Hashtbl.t;
  metrics : Weihl_obs.Shard_metrics.t option;
  mutable tracer : St.t option;
  seed : int;
  mutable rounds : int;
  crashed : bool array;
  exec : Exec.t;
      (* where shard work runs: inline (domains = 1, the deterministic
         sequential semantics) or one worker domain per shard *)
  group_commit : bool;
      (* strict durability accounting: the durable image is the synced
         prefix, not everything appended *)
  sync_cost : unit -> unit; (* device sync latency, paid per WAL sync *)
  synced_events : int array; (* per shard: event-log prefix synced *)
  synced_ctrls : int array; (* per shard: control records synced *)
  checkpoint : checkpoint_config option; (* None: never auto-checkpoint *)
  ckpts : (int * string) list array;
      (* per shard, newest first: (covered, checkpoint file) — the
         shard's checkpoint directory, bounded by [retain] *)
  wal_base : int array;
      (* per shard: records truncated off the head of the durable WAL
         (behind the oldest retained checkpoint's redo point) *)
  archived : string list array;
      (* per shard, newest first: encoded WAL segments the truncation
         step archived instead of dropping (checkpoint.archive) *)
  ckpt_countdown : int array; (* commits until the next auto checkpoint *)
}

(* Stagger the first checkpoint across shards — a fleet that
   checkpoints in lock-step stalls every shard's commit path in the
   same window.  Periods after the first stay [every] apart, so the
   offsets persist as long as the shards commit at similar rates. *)
let jittered_countdown ~every ~shards s = every + (s * every / max 1 shards)

let create ?(policy = `None_) ?metrics ?(seed = 0) ?(domains = 1)
    ?(group_commit = false) ?(sync_cost = ignore) ?checkpoint ~shards () =
  if shards <= 0 then invalid_arg "Group.create: shards must be positive";
  (match checkpoint with
  | Some c when c.every <= 0 || c.retain <= 0 ->
    invalid_arg "Group.create: checkpoint every/retain must be positive"
  | _ -> ());
  (match metrics with
  | Some m when Weihl_obs.Shard_metrics.shard_count m <> shards ->
    invalid_arg "Group.create: metrics shard count mismatch"
  | _ -> ());
  {
    policy;
    shards = Array.init shards (fun _ -> Cc.System.create ~policy ());
    clock = Cc.Lamport_clock.create ();
    next_gid = 0;
    gtxns = Hashtbl.create 64;
    local_index = Array.init shards (fun _ -> Hashtbl.create 64);
    decisions = Hashtbl.create 64;
    commit_seq = [];
    journal = Hashtbl.create 64;
    controls = Array.make shards [];
    constructors = Hashtbl.create 16;
    metrics;
    tracer = None;
    seed;
    rounds = 0;
    crashed = Array.make shards false;
    exec = Exec.create ~domains ~shards ();
    group_commit;
    sync_cost;
    synced_events = Array.make shards 0;
    synced_ctrls = Array.make shards 0;
    checkpoint;
    ckpts = Array.make shards [];
    wal_base = Array.make shards 0;
    archived = Array.make shards [];
    ckpt_countdown =
      (match checkpoint with
      | None -> Array.make shards 0
      | Some { every; _ } ->
        Array.init shards (jittered_countdown ~every ~shards));
  }

(* Every touch of a shard's (non-thread-safe) [Cc.System.t] goes
   through here, so the system only ever runs on its owner domain.  At
   [domains = 1] this is a direct call — the pre-multicore sequential
   code path.  The coordinator may still *read* shard state directly
   (clocks, log lengths, prepared lists): a shard is quiescent between
   the coordinator's joins, and the join's mutex gives the
   happens-before edge. *)
let on_shard t s f = Exec.call t.exec ~shard:s f

let shutdown t = Exec.shutdown t.exec
let domain_count t = Exec.domain_count t.exec
let mailbox_depth t s = Exec.mailbox_depth t.exec ~shard:s
let mailbox_max_depth t s = Exec.mailbox_max_depth t.exec ~shard:s
let policy t = t.policy
let shard_count t = Array.length t.shards
let shard_of t x = Router.shard_of ~shards:(Array.length t.shards) x

let system t s =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.system: shard out of range";
  t.shards.(s)

let shard_crashed t s = t.crashed.(s)
let clock t = t.clock
let decision_of t gid = Hashtbl.find_opt t.decisions gid

let metrics_count f t s =
  match t.metrics with None -> () | Some m -> f m s

(* ------------------------------------------------------------------ *)
(* Cross-shard tracing *)

let install_probe t s =
  match t.tracer with
  | None -> ()
  | Some st ->
    Cc.System.set_probe t.shards.(s)
      ~now:(fun () -> St.now st)
      (St.shard_sink st s)

let set_tracer t st =
  if St.shard_count st <> Array.length t.shards then
    invalid_arg "Group.set_tracer: tracer shard count mismatch";
  t.tracer <- Some st;
  Array.iteri (fun s _ -> install_probe t s) t.shards

let clear_tracer t =
  (match t.tracer with
  | Some _ -> Array.iter Cc.System.clear_probe t.shards
  | None -> ());
  t.tracer <- None

let tracer t = t.tracer

let txn_span_name g = Fmt.str "txn %s" (Activity.name (Gtxn.activity g))

let ctx_args g =
  let base = [ ("gid", St.num (Gtxn.gid g)) ] in
  match Gtxn.trace_ctx g with
  | None -> base
  | Some { Gtxn.trace_id; parent_span } ->
    base
    @ [ ("trace_id", St.num trace_id); ("parent", St.num parent_span) ]

(* Close the coordinator-side transaction span.  Every global
   transaction gets exactly one E event on pid 0, whatever its fate. *)
let trace_end t g ~ts ~outcome =
  match t.tracer with
  | None -> ()
  | Some st ->
    St.end_span (St.coord st) ~name:(txn_span_name g) ~cat:"txn" ~ts
      ~tid:(Gtxn.gid g)
      ~args:(ctx_args g @ [ ("outcome", Json.Str outcome) ])

let add_object t x make =
  let s = shard_of t x in
  if Hashtbl.mem t.constructors (Object_id.name x) then
    invalid_arg (Fmt.str "Group.add_object: duplicate object %a" Object_id.pp x);
  Hashtbl.replace t.constructors (Object_id.name x) (x, s, make);
  on_shard t s (fun () ->
      Cc.System.add_object t.shards.(s) (make (Cc.System.log t.shards.(s)) x))

let objects t =
  Hashtbl.fold (fun _ (x, s, _) acc -> (x, s) :: acc) t.constructors []
  |> List.sort (fun (a, _) (b, _) -> Object_id.compare a b)

let begin_txn t activity =
  let init_ts =
    match t.policy with
    | `None_ -> None
    | `Static -> Some (Cc.Lamport_clock.next t.clock)
    | `Hybrid ->
      if Activity.is_read_only activity then
        Some (Cc.Lamport_clock.next t.clock)
      else None
  in
  let g = Gtxn.make ?init_ts ~gid:t.next_gid activity in
  t.next_gid <- t.next_gid + 1;
  Hashtbl.replace t.gtxns (Gtxn.gid g) g;
  (match t.tracer with
  | None -> ()
  | Some st ->
    let root = St.fresh_id st in
    Gtxn.set_trace_ctx g { Gtxn.trace_id = Gtxn.gid g; parent_span = root };
    St.begin_span (St.coord st) ~name:(txn_span_name g) ~cat:"txn"
      ~ts:(St.now st) ~tid:(Gtxn.gid g)
      ~args:
        (ctx_args g
        @ [ ("read_only", Json.Bool (Activity.is_read_only activity)) ]));
  g

let require_active g =
  if not (Gtxn.is_active g) then
    invalid_arg (Fmt.str "Group: transaction %a is not active" Gtxn.pp g)

let leg_for t g s =
  match Gtxn.leg g s with
  | Some txn -> txn
  | None ->
    let txn =
      on_shard t s (fun () ->
          Cc.System.begin_txn ?ts:(Gtxn.init_ts g) t.shards.(s) (Gtxn.activity g))
    in
    Gtxn.set_leg g s txn;
    Hashtbl.replace t.local_index.(s) (Cc.Txn.id txn) g;
    txn

let journal_append t g entry =
  let gid = Gtxn.gid g in
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.journal gid) in
  Hashtbl.replace t.journal gid (entry :: prev)

let invoke t g x op =
  require_active g;
  let s = shard_of t x in
  if t.crashed.(s) then Refused "shard down"
  else
    let txn = leg_for t g s in
    match on_shard t s (fun () -> Cc.System.invoke t.shards.(s) txn x op) with
    | Cc.Atomic_object.Granted v ->
      journal_append t g (x, op, v);
      Granted v
    | Cc.Atomic_object.Wait blockers ->
      metrics_count Weihl_obs.Shard_metrics.conflict_at t s;
      Wait
        (List.filter_map
           (fun b -> Hashtbl.find_opt t.local_index.(s) (Cc.Txn.id b))
           blockers)
    | Cc.Atomic_object.Refused why -> Refused why

let drop_leg t s txn = Hashtbl.remove t.local_index.(s) (Cc.Txn.id txn)

let abort ?reason t g =
  require_active g;
  List.iter
    (fun (s, txn) ->
      if (not t.crashed.(s)) && Cc.Txn.is_active txn then begin
        on_shard t s (fun () -> Cc.System.abort ?reason t.shards.(s) txn);
        metrics_count Weihl_obs.Shard_metrics.abort_at t s
      end;
      drop_leg t s txn)
    (Gtxn.legs g);
  Gtxn.set_status g Gtxn.Aborted;
  (match t.tracer with
  | None -> ()
  | Some st ->
    trace_end t g ~ts:(St.now st)
      ~outcome:(Option.value ~default:"abort" reason));
  Hashtbl.remove t.gtxns (Gtxn.gid g);
  Hashtbl.remove t.journal (Gtxn.gid g)

(* The timestamp by which a committed transaction is ordered in the
   merged replay: commit order needs none (dynamic), static replays in
   initiation order, hybrid in timestamp order (init for read-only,
   commit for updates). *)
let order_ts t g =
  match t.policy with
  | `None_ -> None
  | `Static -> Gtxn.init_ts g
  | `Hybrid ->
    if Gtxn.is_read_only g then Gtxn.init_ts g else Gtxn.commit_ts g

let record_commit t g =
  t.commit_seq <- (Gtxn.gid g, Gtxn.activity g, order_ts t g) :: t.commit_seq

let maybe_prune t g =
  match Gtxn.status g with
  | Gtxn.Active | Gtxn.In_doubt -> ()
  | Gtxn.Committed | Gtxn.Aborted ->
    let unresolved =
      List.exists
        (fun (s, txn) -> t.crashed.(s) || Cc.Txn.is_prepared txn)
        (Gtxn.legs g)
    in
    if not unresolved then begin
      List.iter (fun (s, txn) -> drop_leg t s txn) (Gtxn.legs g);
      Hashtbl.remove t.gtxns (Gtxn.gid g);
      if Gtxn.status g = Gtxn.Aborted then
        Hashtbl.remove t.journal (Gtxn.gid g)
    end

let append_control t s c =
  t.controls.(s) <-
    (Cc.Event_log.length (Cc.System.log t.shards.(s)), c) :: t.controls.(s)

(* ------------------------------------------------------------------ *)
(* Durability: WAL sync, fuzzy checkpoints, truncation *)

let shard_label s = Fmt.str "shard-%d" s

(* Microseconds of wall-clock time since [t0], a monotonic reading. *)
let us_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e3

(* Shard [s]'s full durable record stream, positions absolute from the
   first record the shard ever appended — truncation never renumbers,
   it only drops a prefix at encode time.  Under group commit the
   durable image is the synced prefix: records appended since the last
   sync are still in the volatile buffer and a crash loses them.  The
   marks are taken at sync time, so "first n events + first m controls"
   is exactly a prefix of the merged record stream.  Without group
   commit every append is durable (the classic synchronous-WAL
   model). *)
let shard_records t s =
  let sys = t.shards.(s) in
  let evs = on_shard t s (fun () -> History.to_list (Cc.System.history sys)) in
  let ctrls = List.rev t.controls.(s) in
  let evs, ctrls =
    if t.group_commit then
      ( Cc.Wal.take t.synced_events.(s) evs,
        Cc.Wal.take t.synced_ctrls.(s) ctrls )
    else (evs, ctrls)
  in
  let rec merge idx evs ctrls acc =
    match (evs, ctrls) with
    | _, (p, c) :: ctl when p <= idx -> merge idx evs ctl (Cc.Wal.Control c :: acc)
    | e :: etl, _ -> merge (idx + 1) etl ctrls (Cc.Wal.Event e :: acc)
    | [], (_, c) :: ctl -> merge idx [] ctl (Cc.Wal.Control c :: acc)
    | [], [] -> List.rev acc
  in
  merge 0 evs ctrls []

let durable_shard t s =
  let base = t.wal_base.(s) in
  Cc.Wal.encode_records ~label:(shard_label s) ~base
    (Cc.Wal.drop_n base (shard_records t s))

(* One WAL device sync per involved shard, all in flight at once: each
   sync's latency is paid on its shard's own domain, so the syncs
   overlap in wall-clock time.  [records] is the number of transactions
   whose records the shard's sync covers — the group commit batch size.
   Marks advance to the current end of the shard's record stream:
   everything appended so far becomes durable in one device operation. *)
let sync_shards t involved =
  let promises =
    List.map (fun (s, _) -> Exec.submit t.exec ~shard:s t.sync_cost) involved
  in
  List.iter Exec.await promises;
  List.iter
    (fun (s, records) ->
      t.synced_events.(s) <-
        Cc.Event_log.length (Cc.System.log t.shards.(s));
      t.synced_ctrls.(s) <- List.length t.controls.(s);
      (match t.metrics with
      | None -> ()
      | Some m -> Weihl_obs.Shard_metrics.wal_sync m ~records);
      match t.tracer with
      | None -> ()
      | Some st ->
        St.span (St.shard st s) ~name:"wal.sync" ~cat:"wal" ~ts:(St.now st)
          ~dur:0. ~tid:0
          ~args:[ ("batch", St.num records) ])
    involved

let checkpoint_retain t =
  match t.checkpoint with Some c -> c.retain | None -> default_checkpoint.retain

(* Write one fuzzy checkpoint of shard [s] without stopping traffic:
   capture the durable record stream mid-flight, encode it to a file,
   and append the [Checkpointed] marker that makes the file official
   once synced.  Truncation then drops the WAL prefix behind the
   *oldest retained* checkpoint's redo point — never the newest, so a
   damaged newest file still leaves an older checkpoint with its marker
   and a sufficient tail in the log.  [lose_marker] simulates the crash
   window where the file reached disk but the marker never did: the
   file exists, yet recovery must treat it as if the checkpoint never
   happened (no truncation either).  Returns the checkpoint's redo
   point. *)
let checkpoint_shard ?(lose_marker = false) t s =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.checkpoint_shard: shard out of range";
  if t.crashed.(s) then invalid_arg "Group.checkpoint_shard: shard is down";
  let t0 = Monotonic_clock.now () in
  let records = shard_records t s in
  let ts_ordered =
    Cc.Recovery.order_of_policy t.policy = Cc.Recovery.Timestamp_order
  in
  let ckpt =
    Cc.Checkpoint.capture ~ts_ordered ~label:(shard_label s) records
  in
  let file = Cc.Checkpoint.encode ckpt in
  let covered = Cc.Checkpoint.covered ckpt in
  t.ckpts.(s) <-
    Cc.Wal.take (checkpoint_retain t) ((covered, file) :: t.ckpts.(s));
  if not lose_marker then begin
    let digest = Cc.Checkpoint.digest file in
    append_control t s (Cc.Wal.Checkpointed { seq = covered; digest });
    sync_shards t [ (s, 1) ];
    (* Truncate (or archive) the prefix every retained checkpoint
       covers — but only once the retention window is full.  Truncating
       behind a lone checkpoint would make that one file a single point
       of failure: damage it and the log can no longer reach the
       truncation point from record zero. *)
    if List.length t.ckpts.(s) = checkpoint_retain t then begin
    let oldest =
      List.fold_left (fun _ (c, _) -> c) covered t.ckpts.(s)
    in
    if oldest > t.wal_base.(s) then begin
      (match t.checkpoint with
      | Some { archive = true; _ } ->
        let base = t.wal_base.(s) in
        let segment =
          Cc.Wal.encode_records ~label:(shard_label s) ~base
            (Cc.Wal.take (oldest - base) (Cc.Wal.drop_n base records))
        in
        t.archived.(s) <- segment :: t.archived.(s)
      | _ -> ());
      t.wal_base.(s) <- oldest
    end
    end
  end;
  let age = List.length records - covered in
  (match t.metrics with
  | None -> ()
  | Some m ->
    Weihl_obs.Shard_metrics.checkpoint_written m
      ~duration:(us_since t0) ~age);
  (match t.tracer with
  | None -> ()
  | Some st ->
    St.span (St.shard st s) ~name:"checkpoint" ~cat:"ckpt" ~ts:(St.now st)
      ~dur:0. ~tid:0
      ~args:[ ("covered", St.num covered); ("age", St.num age) ]);
  covered

(* The commit paths call this once per commit landing on shard [s];
   every [every]-th commit triggers an automatic fuzzy checkpoint. *)
let bump_checkpoint t s =
  match t.checkpoint with
  | None -> ()
  | Some { every; _ } ->
    if not t.crashed.(s) then begin
      t.ckpt_countdown.(s) <- t.ckpt_countdown.(s) - 1;
      if t.ckpt_countdown.(s) <= 0 then begin
        t.ckpt_countdown.(s) <- every;
        ignore (checkpoint_shard t s)
      end
    end

let checkpoint_files t s =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.checkpoint_files: shard out of range";
  List.map snd t.ckpts.(s)

let corrupt_checkpoint t s ~f =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.corrupt_checkpoint: shard out of range";
  match t.ckpts.(s) with
  | [] -> false
  | (covered, file) :: tl ->
    t.ckpts.(s) <- (covered, f file) :: tl;
    true

let wal_base t s =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.wal_base: shard out of range";
  t.wal_base.(s)

let archived_segments t s =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.archived_segments: shard out of range";
  List.rev t.archived.(s)

(* Single-shard fast path: no 2PC round, but hybrid updates still draw
   their commit timestamp from the group clock — local clocks drift
   independently, and hybrid atomicity needs the global timestamp order
   of committed updates consistent with [precedes] across shards. *)
let commit_fast t g s txn =
  let sys = t.shards.(s) in
  (match t.policy with
  | `Hybrid when not (Gtxn.is_read_only g) ->
    Cc.Lamport_clock.observe t.clock (Cc.Lamport_clock.now (Cc.System.clock sys));
    let cts = Cc.Lamport_clock.next t.clock in
    Gtxn.set_commit_ts g cts;
    on_shard t s (fun () ->
        Cc.System.prepare sys txn;
        Cc.System.commit_prepared ~commit_ts:cts sys txn)
  | `None_ | `Static | `Hybrid ->
    on_shard t s (fun () -> Cc.System.commit sys txn));
  (* Under group commit only synced records are durable: sync the
     commit record before acknowledging it. *)
  if t.group_commit then sync_shards t [ (s, 1) ];
  metrics_count Weihl_obs.Shard_metrics.local_commit t s;
  Gtxn.set_status g Gtxn.Committed;
  record_commit t g;
  (match t.tracer with
  | None -> ()
  | Some st ->
    St.instant (St.coord st) ~name:"commit.fast" ~cat:"tpc"
      ~ts:(St.now st) ~tid:(Gtxn.gid g) ~args:(ctx_args g);
    trace_end t g ~ts:(St.now st) ~outcome:"commit");
  drop_leg t s txn;
  Hashtbl.remove t.gtxns (Gtxn.gid g);
  bump_checkpoint t s

(* A crashed shard takes its volatile state down: every active global
   transaction with a leg there can no longer complete, so it aborts at
   its surviving shards.  Prepared legs elsewhere are untouched — their
   fate belongs to the decision log. *)
let sweep_crashed t s =
  let victims =
    Hashtbl.fold
      (fun _ g acc ->
        if Gtxn.is_active g && Gtxn.leg g s <> None then g :: acc else acc)
      t.gtxns []
  in
  List.iter (fun g -> abort ~reason:"shard crash" t g) victims

let commit_2pc ?(fault = Tpc.no_fault) ?(votes_no = []) t g legs =
  let gid = Gtxn.gid g in
  let part_shards = List.map fst legs in
  let registry =
    match t.metrics with
    | None -> None
    | Some m -> Some (Weihl_obs.Shard_metrics.registry m)
  in
  (* The 2PC round runs on its own Msim timeline; anchor it at the
     driver's virtual time so its spans land inside the transaction's
     window on the merged trace. *)
  let t0 = match t.tracer with Some st -> St.now st | None -> 0. in
  let round_now = ref 0 in
  let flights = ref [] in
  (* Durability markers: the WAL control record just became the point
     of no return at shard [s], at the round's current virtual time. *)
  let wal_mark s record =
    match t.tracer with
    | None -> ()
    | Some st ->
      St.span (St.shard st s) ~name:"wal.sync" ~cat:"wal"
        ~ts:(t0 +. float_of_int !round_now)
        ~dur:0. ~tid:gid
        ~args:(ctx_args g @ [ ("record", Json.Str record) ])
  in
  let tpc_tracer =
    Option.map
      (fun st ->
        let shard_arr = Array.of_list part_shards in
        let trace_of node =
          if node = 0 then St.coord st
          else St.shard st shard_arr.(node - 1)
        in
        {
          Tpc.on_message =
            (fun ~src ~dst ~sent ~at ~label ->
              round_now := at;
              (* Timers ([src = dst]) are local alarms, not flights. *)
              if src <> dst then begin
                flights := (label, sent, at) :: !flights;
                let args =
                  ctx_args g
                  @ [ ("src", St.num src); ("dst", St.num dst) ]
                in
                let src_tr = trace_of src and dst_tr = trace_of dst in
                ignore
                  (St.flow st ~name:label ~cat:"msg" ~args ~src:src_tr
                     ~src_ts:(t0 +. float_of_int sent)
                     ~src_tid:gid ~dst:dst_tr
                     ~dst_ts:(t0 +. float_of_int at)
                     ~dst_tid:gid);
                St.span dst_tr
                  ~name:(Fmt.str "flight %s" label)
                  ~cat:"flight"
                  ~ts:(t0 +. float_of_int sent)
                  ~dur:(float_of_int (at - sent))
                  ~tid:gid ~args
              end)
        })
      t.tracer
  in
  let participants =
    List.mapi
      (fun i (s, txn) ->
        {
          Tpc.clock =
            (fun () ->
              Timestamp.to_int (Cc.Lamport_clock.now (Cc.System.clock t.shards.(s))));
          prepare =
            (fun () ->
              if List.mem i votes_no then begin
                on_shard t s (fun () ->
                    Cc.System.abort ~reason:"vote no" t.shards.(s) txn);
                metrics_count Weihl_obs.Shard_metrics.abort_at t s;
                drop_leg t s txn;
                Tpc.No
              end
              else begin
                (* Vote durable before it leaves the site: the WAL's
                   Prepared record is the point of no return. *)
                on_shard t s (fun () -> Cc.System.prepare t.shards.(s) txn);
                append_control t s
                  (Cc.Wal.Prepared { gid; activity = Gtxn.activity g });
                if t.group_commit then sync_shards t [ (s, 1) ];
                wal_mark s "prepared";
                metrics_count Weihl_obs.Shard_metrics.prepare_at t s;
                Tpc.Yes
              end);
          learn =
            (function
            | `Commit ts ->
              let cts = Timestamp.v ts in
              append_control t s
                (Cc.Wal.Decided { gid; verdict = `Commit (Some cts) });
              wal_mark s "decided.commit";
              on_shard t s (fun () ->
                  Cc.System.commit_prepared ~commit_ts:cts t.shards.(s) txn);
              metrics_count Weihl_obs.Shard_metrics.tpc_commit_at t s;
              drop_leg t s txn
            | `Abort ->
              append_control t s (Cc.Wal.Decided { gid; verdict = `Abort });
              wal_mark s "decided.abort";
              on_shard t s (fun () ->
                  Cc.System.abort_prepared t.shards.(s) txn);
              metrics_count Weihl_obs.Shard_metrics.abort_at t s;
              drop_leg t s txn);
        })
      legs
  in
  (* The agreed timestamp must exceed every participant's clock reading
     (max-of-sites) and stay globally unique — route the proposal
     through the group clock. *)
  let choose_ts proposal =
    if proposal > 0 then
      Cc.Lamport_clock.observe t.clock (Timestamp.v (proposal - 1));
    Timestamp.to_int (Cc.Lamport_clock.next t.clock)
  in
  let on_decide d =
    Hashtbl.replace t.decisions gid d;
    match d with
    | `Commit ts ->
      Gtxn.set_commit_ts g (Timestamp.v ts);
      Gtxn.set_status g Gtxn.Committed;
      record_commit t g
    | `Abort -> Gtxn.set_status g Gtxn.Aborted
  in
  t.rounds <- t.rounds + 1;
  let seed = (t.seed * 1_000_003) + t.rounds in
  let decision =
    Tpc.Driver.commit ?metrics:registry ?tracer:tpc_tracer ~fault ~choose_ts
      ~on_decide ~seed participants
  in
  (* Post-round bookkeeping the simulated sites cannot do themselves. *)
  List.iteri
    (fun i (s, txn) ->
      match List.nth decision.Tpc.outcomes i with
      | Tpc.Crashed ->
        (* The site died mid-protocol: its volatile state is gone until
           the shard recovers from its WAL. *)
        t.crashed.(s) <- true
      | Tpc.Aborted ->
        (* Voted no or learned abort (handled in the callbacks) — or
           never engaged (presumed abort), leaving the leg active. *)
        if Cc.Txn.is_active txn then begin
          on_shard t s (fun () ->
              Cc.System.abort ~reason:"presumed abort" t.shards.(s) txn);
          metrics_count Weihl_obs.Shard_metrics.abort_at t s;
          drop_leg t s txn
        end
      | Tpc.Committed _ | Tpc.Blocked -> ())
    legs;
  (* No decision was reached (coordinator died first): the transaction
     is in-doubt iff some leg got as far as prepared. *)
  if not (Hashtbl.mem t.decisions gid) then
    if List.exists (fun (_, txn) -> Cc.Txn.is_prepared txn) legs then
      Gtxn.set_status g Gtxn.In_doubt
    else begin
      Gtxn.set_status g Gtxn.Aborted;
      List.iter
        (fun (s, txn) ->
          if (not t.crashed.(s)) && Cc.Txn.is_active txn then begin
            on_shard t s (fun () ->
                Cc.System.abort ~reason:"presumed abort" t.shards.(s) txn);
            drop_leg t s txn
          end)
        legs
    end;
  if Gtxn.status g = Gtxn.Aborted then Hashtbl.remove t.journal gid;
  (* Only now that [g]'s fate is settled: shards that died mid-round
     take every other active transaction with a leg there down too. *)
  List.iteri
    (fun i (s, _) ->
      if List.nth decision.Tpc.outcomes i = Tpc.Crashed then sweep_crashed t s)
    legs;
  (match t.metrics with
  | None -> ()
  | Some m ->
    Weihl_obs.Shard_metrics.tpc_round m ~committed:decision.Tpc.committed
      ~messages:decision.Tpc.decision_messages
      ~duration:decision.Tpc.decision_duration ~fanout:(List.length legs);
    Array.iteri
      (fun s sys ->
        if not t.crashed.(s) then
          Weihl_obs.Shard_metrics.set_in_doubt m s
            (List.length (Cc.System.prepared_txns sys)))
      t.shards);
  (* Phase spans on the coordinator timeline: prepare+voting runs until
     the first DECIDE leaves; the round's observable extent is the last
     real message delivery — quiescence time always includes the
     drained timeout alarms, which would pad every span by the full
     coordinator patience. *)
  (match t.tracer with
  | None -> ()
  | Some st ->
    let flights = !flights in
    let round_end =
      List.fold_left (fun acc (_, _, at) -> max acc at) 0 flights
    in
    let round_end =
      if round_end = 0 then decision.Tpc.decision_duration else round_end
    in
    let dur = float_of_int round_end in
    let decide_start =
      List.fold_left
        (fun acc (label, sent, _) ->
          if String.length label >= 6 && String.sub label 0 6 = "decide" then
            match acc with
            | None -> Some sent
            | Some m -> Some (min m sent)
          else acc)
        None flights
    in
    let coordt = St.coord st in
    let args = ctx_args g in
    (match decide_start with
    | Some d when d > 0 && float_of_int d <= dur ->
      St.span coordt ~name:"2pc.prepare" ~cat:"tpc.phase" ~ts:t0
        ~dur:(float_of_int d) ~tid:gid ~args;
      St.span coordt ~name:"2pc.decide" ~cat:"tpc.phase"
        ~ts:(t0 +. float_of_int d)
        ~dur:(dur -. float_of_int d)
        ~tid:gid ~args
    | _ ->
      St.span coordt ~name:"2pc.prepare" ~cat:"tpc.phase" ~ts:t0 ~dur
        ~tid:gid ~args);
    St.span coordt ~name:"2pc" ~cat:"tpc" ~ts:t0 ~dur ~tid:gid
      ~args:
        (args
        @ [
            ("fanout", St.num (List.length legs));
            ("committed", Json.Bool decision.Tpc.committed);
            ("messages", St.num decision.Tpc.decision_messages);
          ]);
    let outcome =
      match Gtxn.status g with
      | Gtxn.Committed -> "commit"
      | Gtxn.Aborted -> "tpc abort"
      | Gtxn.In_doubt -> "in-doubt"
      | Gtxn.Active -> "active"
    in
    trace_end t g ~ts:(t0 +. dur) ~outcome);
  maybe_prune t g;
  if decision.Tpc.committed then
    List.iter (fun s -> bump_checkpoint t s) part_shards;
  Distributed (decision, part_shards)

let commit ?fault ?votes_no t g =
  require_active g;
  match Gtxn.legs g with
  | [] ->
    Gtxn.set_status g Gtxn.Committed;
    record_commit t g;
    (match t.tracer with
    | None -> ()
    | Some st -> trace_end t g ~ts:(St.now st) ~outcome:"commit");
    Hashtbl.remove t.gtxns (Gtxn.gid g);
    Fast
  | [ (s, txn) ] ->
    commit_fast t g s txn;
    Fast
  | legs -> commit_2pc ?fault ?votes_no t g legs

(* ------------------------------------------------------------------ *)
(* In-doubt resolution *)

let resolve_gtxn t g verdict =
  let resolved = ref 0 in
  List.iter
    (fun (s, txn) ->
      if (not t.crashed.(s)) && Cc.Txn.is_prepared txn then begin
        incr resolved;
        match verdict with
        | `Commit ts ->
          let cts = Timestamp.v ts in
          append_control t s
            (Cc.Wal.Decided { gid = Gtxn.gid g; verdict = `Commit (Some cts) });
          on_shard t s (fun () ->
              Cc.System.commit_prepared ~commit_ts:cts t.shards.(s) txn);
          metrics_count Weihl_obs.Shard_metrics.tpc_commit_at t s;
          drop_leg t s txn
        | `Abort ->
          append_control t s
            (Cc.Wal.Decided { gid = Gtxn.gid g; verdict = `Abort });
          on_shard t s (fun () ->
              Cc.System.abort_prepared ~reason:"late decision" t.shards.(s) txn);
          metrics_count Weihl_obs.Shard_metrics.abort_at t s;
          drop_leg t s txn
      end)
    (Gtxn.legs g);
  (match Gtxn.status g with
  | Gtxn.In_doubt | Gtxn.Active ->
    (match verdict with
    | `Commit ts ->
      Gtxn.set_commit_ts g (Timestamp.v ts);
      Gtxn.set_status g Gtxn.Committed;
      record_commit t g
    | `Abort ->
      Gtxn.set_status g Gtxn.Aborted;
      Hashtbl.remove t.journal (Gtxn.gid g));
    (match t.tracer with
    | None -> ()
    | Some st ->
      St.instant (St.coord st) ~name:"resolved" ~cat:"resolve"
        ~ts:(St.now st) ~tid:(Gtxn.gid g)
        ~args:
          (ctx_args g
          @ [
              ( "verdict",
                Json.Str
                  (match verdict with
                  | `Commit _ -> "commit"
                  | `Abort -> "abort") );
            ]))
  | Gtxn.Committed | Gtxn.Aborted -> ());
  maybe_prune t g;
  !resolved

(* Resolve every reachable prepared leg from the coordinator's decision
   log; a gtxn with no decision record is presumed aborted.  This is
   the "participant re-contacts the coordinator" step that ends 2PC's
   blocking window once the coordinator is back. *)
let resolve_in_doubt t =
  let pending =
    Hashtbl.fold
      (fun _ g acc ->
        if
          List.exists
            (fun (s, txn) -> (not t.crashed.(s)) && Cc.Txn.is_prepared txn)
            (Gtxn.legs g)
        then g :: acc
        else acc)
      t.gtxns []
  in
  List.fold_left
    (fun n g ->
      let verdict =
        match Hashtbl.find_opt t.decisions (Gtxn.gid g) with
        | Some v -> v
        | None -> `Abort
      in
      n + resolve_gtxn t g verdict)
    0 pending

let in_doubt t =
  let acc = ref [] in
  Array.iteri
    (fun s sys ->
      if not t.crashed.(s) then
        List.iter
          (fun txn ->
            match Hashtbl.find_opt t.local_index.(s) (Cc.Txn.id txn) with
            | Some g -> acc := (Gtxn.gid g, s) :: !acc
            | None -> acc := (-1, s) :: !acc)
          (Cc.System.prepared_txns sys))
    t.shards;
  List.rev !acc

let in_doubt_count t = List.length (in_doubt t)

(* ------------------------------------------------------------------ *)
(* Crash and recovery *)

(* Take shard [s] down: its volatile state is lost, so every active
   global transaction with a leg there aborts at its surviving shards
   (prepared legs elsewhere stay — their fate belongs to the decision
   log).  Returns the WAL text as of the crash. *)
let crash_shard t s =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg "Group.crash_shard: shard out of range";
  let text = durable_shard t s in
  t.crashed.(s) <- true;
  sweep_crashed t s;
  text

let recover_shard ?resolve t s text =
  if not t.crashed.(s) then
    invalid_arg "Group.recover_shard: shard is not crashed";
  let t0 = Monotonic_clock.now () in
  let sys = Cc.System.create ~policy:t.policy () in
  Hashtbl.iter
    (fun _ (x, home, make) ->
      if home = s then Cc.System.add_object sys (make (Cc.System.log sys) x))
    t.constructors;
  let resolve =
    match resolve with
    | Some f -> f
    | None ->
      fun gid ->
        (match Hashtbl.find_opt t.decisions gid with
        | Some (`Commit ts) -> `Commit (Some (Timestamp.v ts))
        | Some `Abort -> `Abort
        | None -> `Abort (* presumed abort: the coordinator has no record *))
  in
  match
    Cc.Recovery.restore_checkpointed ~resolve
      ~checkpoints:(List.map snd t.ckpts.(s))
      (Cc.Recovery.order_of_policy t.policy) sys text
  with
  | Error e -> Error e
  | Ok report ->
    let shard_report = report.Cc.Recovery.shard in
    t.shards.(s) <- sys;
    install_probe t s;
    Hashtbl.reset t.local_index.(s);
    t.controls.(s) <- [];
    (* The group clock must dominate everything the recovered shard
       replayed, or future commit timestamps could collide. *)
    Cc.Lamport_clock.observe t.clock (Cc.Lamport_clock.now (Cc.System.clock sys));
    (* Re-link legs still in doubt, recreating their durable prepared
       marker in the new incarnation's control stream. *)
    List.iter
      (fun (gid, txn) ->
        append_control t s
          (Cc.Wal.Prepared { gid; activity = Cc.Txn.activity txn });
        let g =
          match Hashtbl.find_opt t.gtxns gid with
          | Some g -> g
          | None ->
            let g = Gtxn.make ~gid (Cc.Txn.activity txn) in
            Gtxn.set_status g Gtxn.In_doubt;
            Hashtbl.replace t.gtxns gid g;
            g
        in
        Gtxn.set_leg g s txn;
        if Gtxn.status g = Gtxn.Active then Gtxn.set_status g Gtxn.In_doubt;
        Hashtbl.replace t.local_index.(s) (Cc.Txn.id txn) g)
      shard_report.Cc.Recovery.in_doubt;
    (* Recovery rewrites the WAL (replayed log + re-created Prepared
       markers) durably before the shard returns to service.  The new
       incarnation starts from record zero with no checkpoints: the old
       files' positions refer to the pre-crash stream and must not leak
       into the next crash's recovery. *)
    t.synced_events.(s) <- Cc.Event_log.length (Cc.System.log sys);
    t.synced_ctrls.(s) <- List.length t.controls.(s);
    t.ckpts.(s) <- [];
    t.wal_base.(s) <- 0;
    t.archived.(s) <- [];
    (match t.checkpoint with
    | None -> ()
    | Some { every; _ } ->
      t.ckpt_countdown.(s) <-
        jittered_countdown ~every ~shards:(Array.length t.shards) s);
    t.crashed.(s) <- false;
    (* Transactions that were only waiting on this shard may now be
       fully resolved. *)
    let all = Hashtbl.fold (fun _ g acc -> g :: acc) t.gtxns [] in
    List.iter (fun g -> maybe_prune t g) all;
    (match t.metrics with
    | None -> ()
    | Some m ->
      Weihl_obs.Shard_metrics.set_in_doubt m s
        (List.length (Cc.System.prepared_txns sys));
      Weihl_obs.Shard_metrics.recovery_done m
        ~duration:(us_since t0)
        ~records:report.Cc.Recovery.replayed_records);
    Ok report

(* ------------------------------------------------------------------ *)
(* Cross-shard deadlock detection *)

let find_deadlock t =
  (* Merge the per-shard waits-for graphs through the leg index into a
     graph over global transactions, then look for a cycle. *)
  let edges = Hashtbl.create 16 in
  let nodes = ref [] in
  Array.iteri
    (fun s sys ->
      if not t.crashed.(s) then
        List.iter
          (fun (w, bs) ->
            match Hashtbl.find_opt t.local_index.(s) w with
            | None -> ()
            | Some gw ->
              let targets =
                List.filter_map
                  (fun b -> Hashtbl.find_opt t.local_index.(s) b)
                  bs
              in
              let gid = Gtxn.gid gw in
              if not (Hashtbl.mem edges gid) then nodes := gw :: !nodes;
              let prev = Option.value ~default:[] (Hashtbl.find_opt edges gid) in
              Hashtbl.replace edges gid (targets @ prev))
          (on_shard t s (fun () -> Cc.System.waits_snapshot sys)))
    t.shards;
  (* DFS with an explicit path; a back-edge into the path is a cycle. *)
  let color = Hashtbl.create 16 in
  let rec dfs path g =
    let gid = Gtxn.gid g in
    match Hashtbl.find_opt color gid with
    | Some `Done -> None
    | Some `Gray ->
      (* Cut the path at the first occurrence of [g]. *)
      let rec cut = function
        | [] -> []
        | x :: _ when Gtxn.equal x g -> [ x ]
        | x :: rest -> x :: cut rest
      in
      Some (List.rev (cut path))
    | None ->
      Hashtbl.replace color gid `Gray;
      let succs = Option.value ~default:[] (Hashtbl.find_opt edges gid) in
      let rec try_succs = function
        | [] ->
          Hashtbl.replace color gid `Done;
          None
        | s :: rest -> (
          match dfs (g :: path) s with
          | Some _ as c -> c
          | None -> try_succs rest)
      in
      try_succs succs
  in
  let rec scan = function
    | [] -> None
    | g :: rest -> (
      match dfs [] g with Some _ as c -> c | None -> scan rest)
  in
  scan (List.rev !nodes)

let victim cycle =
  match cycle with
  | [] -> invalid_arg "Group.victim: empty cycle"
  | g :: rest ->
    List.fold_left (fun acc g -> if Gtxn.gid g > Gtxn.gid acc then g else acc)
      g rest

(* ------------------------------------------------------------------ *)
(* The merged committed projection *)

let committed_projection_ts t =
  let seq = List.rev t.commit_seq in
  let ordered =
    match t.policy with
    | `None_ -> seq
    | `Static | `Hybrid ->
      List.stable_sort
        (fun (_, _, a) (_, _, b) ->
          match (a, b) with
          | Some a, Some b -> Timestamp.compare a b
          | None, Some _ -> -1
          | Some _, None -> 1
          | None, None -> 0)
        seq
  in
  List.map
    (fun (gid, activity, ts) ->
      match Hashtbl.find_opt t.journal gid with
      | Some ops -> (activity, ts, List.rev ops)
      | None -> (activity, ts, []))
    ordered

let committed_projection t =
  List.map (fun (activity, _, ops) -> (activity, ops)) (committed_projection_ts t)

let committed_count t = List.length t.commit_seq

let agreed_commit_ts t gid =
  match Hashtbl.find_opt t.decisions gid with
  | Some (`Commit ts) -> Some ts
  | Some `Abort | None -> None

let tpc_rounds t = t.rounds

(* ------------------------------------------------------------------ *)
(* Batched execution and group commit *)

(* Execute one operation per entry, batched: entries are grouped by
   home shard, one job per shard runs its sub-list in entry order, and
   the coordinator joins on all replies before folding them back into
   group state.  Per-shard execution order is deterministic (entry
   order), so results are identical at any domain count — only
   wall-clock timing varies. *)
let invoke_batch t entries =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let results = Array.make n (Refused "unprocessed") in
  let shards_n = Array.length t.shards in
  let per_shard = Array.make shards_n [] in
  Array.iteri
    (fun i (g, x, _op) ->
      require_active g;
      let s = shard_of t x in
      if t.crashed.(s) then results.(i) <- Refused "shard down"
      else per_shard.(s) <- i :: per_shard.(s))
    entries;
  let jobs =
    List.filter_map
      (fun s ->
        match List.rev per_shard.(s) with [] -> None | idxs -> Some (s, idxs))
      (List.init shards_n Fun.id)
  in
  (* One job per shard.  Leg lookups happen coordinator-side; the job
     creates missing legs (first contact) and returns them with the raw
     shard results. *)
  let promises =
    List.map
      (fun (s, idxs) ->
        let sys = t.shards.(s) in
        let prep =
          List.map
            (fun i ->
              let g, x, op = entries.(i) in
              (i, Gtxn.gid g, Gtxn.leg g s, Gtxn.init_ts g, Gtxn.activity g, x, op))
            idxs
        in
        ( s,
          Exec.submit t.exec ~shard:s (fun () ->
              let fresh = Hashtbl.create 8 in
              List.map
                (fun (i, gid, leg, init_ts, activity, x, op) ->
                  let txn =
                    match leg with
                    | Some txn -> txn
                    | None -> (
                      match Hashtbl.find_opt fresh gid with
                      | Some txn -> txn
                      | None ->
                        let txn = Cc.System.begin_txn ?ts:init_ts sys activity in
                        Hashtbl.replace fresh gid txn;
                        txn)
                  in
                  (i, txn, Cc.System.invoke sys txn x op))
                prep) ))
      jobs
  in
  (* Sample the mailbox depth gauges while the jobs are in flight. *)
  (match t.metrics with
  | None -> ()
  | Some m ->
    List.iter
      (fun (s, _) ->
        Weihl_obs.Shard_metrics.set_mailbox_depth m s (mailbox_depth t s))
      jobs);
  List.iter
    (fun (s, p) ->
      List.iter
        (fun (i, txn, raw) ->
          let g, x, op = entries.(i) in
          (match Gtxn.leg g s with
          | Some _ -> ()
          | None ->
            Gtxn.set_leg g s txn;
            Hashtbl.replace t.local_index.(s) (Cc.Txn.id txn) g);
          match raw with
          | Cc.Atomic_object.Granted v ->
            journal_append t g (x, op, v);
            results.(i) <- Granted v
          | Cc.Atomic_object.Wait blockers ->
            metrics_count Weihl_obs.Shard_metrics.conflict_at t s;
            results.(i) <-
              Wait
                (List.filter_map
                   (fun b -> Hashtbl.find_opt t.local_index.(s) (Cc.Txn.id b))
                   blockers)
          | Cc.Atomic_object.Refused why -> results.(i) <- Refused why)
        (Exec.await p))
    promises;
  Array.to_list results

(* Commit a batch of transactions with group commit and a batched,
   synchronous 2PC:

   - leg-free transactions commit trivially;
   - single-shard commits execute in one job per shard, then ONE sync
     per shard covers the whole batch's commit records;
   - multi-shard transactions prepare in the same per-shard jobs (vote
     markers appended), the wave-1 sync makes every vote durable before
     the coordinator decides, and a second per-shard job wave applies
     the decisions under Decided records followed by the wave-2 sync.

   Nothing is acknowledged — no status flips to Committed, nothing
   enters the committed projection — until the sync covering its
   records has returned.  [crash_before_sync] injects the classic
   group-commit fault: the listed shards die after appending their
   wave-1 records but before syncing them, so those records are lost
   and the transactions they belonged to are never acknowledged. *)
let commit_batch ?(crash_before_sync = []) t gs =
  List.iter require_active gs;
  let shards_n = Array.length t.shards in
  let crash_set s = List.mem s crash_before_sync in
  let trivial, singles, multis =
    List.fold_left
      (fun (tr, si, mu) g ->
        match Gtxn.legs g with
        | [] -> (g :: tr, si, mu)
        | [ (s, txn) ] -> (tr, (g, s, txn) :: si, mu)
        | legs -> (tr, si, (g, legs) :: mu))
      ([], [], []) gs
  in
  let trivial = List.rev trivial
  and singles = List.rev singles
  and multis = List.rev multis in
  (* Leg-free transactions have nothing to make durable. *)
  List.iter
    (fun g ->
      Gtxn.set_status g Gtxn.Committed;
      record_commit t g;
      Hashtbl.remove t.gtxns (Gtxn.gid g))
    trivial;
  (* Hybrid single-shard updates draw their commit timestamp from the
     group clock coordinator-side — the fast path's discipline — and
     the shard job runs prepare + commit_prepared at that timestamp. *)
  let singles =
    List.map
      (fun ((g, s, _txn) as item) ->
        let mode =
          match t.policy with
          | `Hybrid when not (Gtxn.is_read_only g) ->
            Cc.Lamport_clock.observe t.clock
              (Cc.Lamport_clock.now (Cc.System.clock t.shards.(s)));
            let cts = Cc.Lamport_clock.next t.clock in
            Gtxn.set_commit_ts g cts;
            `Commit_prepared cts
          | `None_ | `Static | `Hybrid -> `Commit
        in
        (item, mode))
      singles
  in
  (* Phase 1, one job per shard: single-shard commits execute and every
     multi-shard leg prepares, appending records to the volatile log
     tail in batch order. *)
  let phase1 = Array.make shards_n [] in
  let batch1 = Array.make shards_n 0 in
  List.iter
    (fun ((_g, s, txn), mode) ->
      let sys = t.shards.(s) in
      let thunk =
        match mode with
        | `Commit -> fun () -> Cc.System.commit sys txn
        | `Commit_prepared cts ->
          fun () ->
            Cc.System.prepare sys txn;
            Cc.System.commit_prepared ~commit_ts:cts sys txn
      in
      phase1.(s) <- thunk :: phase1.(s);
      batch1.(s) <- batch1.(s) + 1)
    singles;
  List.iter
    (fun (_g, legs) ->
      List.iter
        (fun (s, txn) ->
          let sys = t.shards.(s) in
          phase1.(s) <- (fun () -> Cc.System.prepare sys txn) :: phase1.(s);
          batch1.(s) <- batch1.(s) + 1)
        legs)
    multis;
  let run_phase work =
    let jobs =
      List.filter_map
        (fun s ->
          match List.rev work.(s) with
          | [] -> None
          | thunks ->
            Some
              (Exec.submit t.exec ~shard:s (fun () ->
                   List.iter (fun f -> f ()) thunks)))
        (List.init shards_n Fun.id)
    in
    List.iter Exec.await jobs
  in
  run_phase phase1;
  (* Durable vote markers for every prepared leg. *)
  List.iter
    (fun (g, legs) ->
      List.iter
        (fun (s, _txn) ->
          append_control t s
            (Cc.Wal.Prepared { gid = Gtxn.gid g; activity = Gtxn.activity g });
          metrics_count Weihl_obs.Shard_metrics.prepare_at t s)
        legs)
    multis;
  (* Group commit, wave 1: one sync per involved shard covers every
     commit record and vote appended above.  A fault-injected shard
     dies here instead — after append, before sync — losing its
     unsynced tail. *)
  let involved1 =
    List.filter_map
      (fun s ->
        if batch1.(s) > 0 && not (crash_set s) then Some (s, batch1.(s))
        else None)
      (List.init shards_n Fun.id)
  in
  sync_shards t involved1;
  let crashed_now =
    List.filter
      (fun s -> batch1.(s) > 0 && crash_set s)
      (List.init shards_n Fun.id)
  in
  List.iter (fun s -> t.crashed.(s) <- true) crashed_now;
  (* Acknowledge single-shard commits — only now that the covering sync
     returned.  A commit whose shard died before the sync was never
     durable: it is not acknowledged, full stop. *)
  List.iter
    (fun ((g, s, txn), _mode) ->
      if t.crashed.(s) then begin
        Gtxn.set_status g Gtxn.Aborted;
        Hashtbl.remove t.journal (Gtxn.gid g)
      end
      else begin
        metrics_count Weihl_obs.Shard_metrics.local_commit t s;
        Gtxn.set_status g Gtxn.Committed;
        record_commit t g
      end;
      drop_leg t s txn;
      Hashtbl.remove t.gtxns (Gtxn.gid g))
    singles;
  (* Decide the multis: a leg whose shard died before its vote was
     durable means abort (the coordinator never got a durable yes);
     otherwise commit at a timestamp past every participant's clock,
     drawn through the group clock. *)
  let decided =
    List.map
      (fun (g, legs) ->
        let gid = Gtxn.gid g in
        let doomed = List.exists (fun (s, _) -> t.crashed.(s)) legs in
        let verdict =
          if doomed then `Abort
          else begin
            List.iter
              (fun (s, _) ->
                Cc.Lamport_clock.observe t.clock
                  (Cc.Lamport_clock.now (Cc.System.clock t.shards.(s))))
              legs;
            `Commit (Timestamp.to_int (Cc.Lamport_clock.next t.clock))
          end
        in
        Hashtbl.replace t.decisions gid verdict;
        (match verdict with
        | `Commit ts ->
          Gtxn.set_commit_ts g (Timestamp.v ts);
          Gtxn.set_status g Gtxn.Committed;
          record_commit t g
        | `Abort ->
          Gtxn.set_status g Gtxn.Aborted;
          Hashtbl.remove t.journal gid);
        (g, legs, verdict))
      multis
  in
  (* Phase 2, one job per shard: apply the decisions under durable
     Decided records, then the wave-2 sync. *)
  let phase2 = Array.make shards_n [] in
  let batch2 = Array.make shards_n 0 in
  List.iter
    (fun (g, legs, verdict) ->
      let gid = Gtxn.gid g in
      List.iter
        (fun (s, txn) ->
          if not t.crashed.(s) then begin
            let sys = t.shards.(s) in
            (match verdict with
            | `Commit ts ->
              let cts = Timestamp.v ts in
              append_control t s
                (Cc.Wal.Decided { gid; verdict = `Commit (Some cts) });
              phase2.(s) <-
                (fun () -> Cc.System.commit_prepared ~commit_ts:cts sys txn)
                :: phase2.(s);
              metrics_count Weihl_obs.Shard_metrics.tpc_commit_at t s
            | `Abort ->
              append_control t s (Cc.Wal.Decided { gid; verdict = `Abort });
              phase2.(s) <-
                (fun () ->
                  Cc.System.abort_prepared ~reason:"batch abort" sys txn)
                :: phase2.(s);
              metrics_count Weihl_obs.Shard_metrics.abort_at t s);
            batch2.(s) <- batch2.(s) + 1
          end)
        legs)
    decided;
  run_phase phase2;
  let involved2 =
    List.filter_map
      (fun s -> if batch2.(s) > 0 then Some (s, batch2.(s)) else None)
      (List.init shards_n Fun.id)
  in
  sync_shards t involved2;
  List.iter
    (fun (g, legs, _verdict) ->
      List.iter
        (fun (s, txn) -> if not t.crashed.(s) then drop_leg t s txn)
        legs;
      (match t.metrics with
      | None -> ()
      | Some m ->
        Weihl_obs.Metrics.Histogram.observe
          (Weihl_obs.Shard_metrics.fanout m)
          (float_of_int (List.length legs)));
      maybe_prune t g)
    decided;
  (* A shard that died in this batch takes every other active
     transaction with a leg there down with it. *)
  List.iter (fun s -> sweep_crashed t s) crashed_now;
  (* Commit-count checkpoint scheduling, once the batch has settled. *)
  List.iter
    (fun ((g, s, _txn), _mode) ->
      if Gtxn.status g = Gtxn.Committed then bump_checkpoint t s)
    singles;
  List.iter
    (fun (_g, legs, verdict) ->
      match verdict with
      | `Commit _ -> List.iter (fun (s, _) -> bump_checkpoint t s) legs
      | `Abort -> ())
    decided;
  match t.metrics with
  | None -> ()
  | Some m ->
    Array.iteri
      (fun s sys ->
        if not t.crashed.(s) then
          Weihl_obs.Shard_metrics.set_in_doubt m s
            (List.length (Cc.System.prepared_txns sys)))
      t.shards
