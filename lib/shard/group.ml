open Weihl_event
module Cc = Weihl_cc
module Tpc = Weihl_dist.Tpc
module St = Weihl_obs.Shard_trace
module Json = Weihl_obs.Json

type invoke_result =
  | Granted of Value.t
  | Wait of Gtxn.t list
  | Refused of string

type checkpoint_config = {
  every : int;  (* auto-checkpoint a shard every [every] commits *)
  archive : bool;  (* keep truncated WAL prefixes instead of dropping them *)
}

let default_checkpoint = { every = 100; archive = false }

(* Checkpoint files whose marker was appended, kept per shard.
   Truncation runs behind the older of the two, so the newest is never
   the only path to the truncated prefix. *)
let checkpoint_retain = 2

(* A file in a shard's checkpoint directory.  One whose marker never
   reached the WAL ([lose_marker]) stays on disk but is not official:
   it counts toward no retention window and sets no truncation
   horizon. *)
type ckpt_file = { covered : int; file : string; marked : bool }

(* A directory, newest first, cut after its [checkpoint_retain]-th
   marked file. *)
let rec retain ?(marked = 0) = function
  | [] -> []
  | f :: older ->
    if not f.marked then f :: retain ~marked older
    else if marked + 1 = checkpoint_retain then [ f ]
    else f :: retain ~marked:(marked + 1) older

module Int_map = Map.Make (Int)

(* Leg id -> global transaction.  Leg ids count up from 0 per shard
   incarnation, so they are their own hash; the deadlock search does
   one lookup per waits-for edge. *)
module Leg_index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

(* A growable array: one column of the committed log. *)
module Column = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length c = c.len
  let get c i = c.data.(i)

  let push c x =
    if c.len = Array.length c.data then begin
      let data = Array.make (max 64 (2 * c.len)) x in
      Array.blit c.data 0 data 0 c.len;
      c.data <- data
    end;
    c.data.(c.len) <- x;
    c.len <- c.len + 1
end

(* Every committed global transaction in commit order, by column: per
   commit its activity, its replay-order timestamp (-1 for none) and
   the position of its first op; per op, in program order, the object,
   the operation and its result.  A few words per commit, where a list
   of tuples and a table entry cost several times that. *)
type committed = {
  activities : Activity.t Column.t;
  order_ts : int Column.t;
  first_op : int Column.t;
  objs : Object_id.t Column.t;
  ops : Operation.t Column.t;
  values : Value.t Column.t;
}

(* A shard's control records in append order, with each one's absolute
   position in the shard's merged record stream: the event-log length
   at append plus the number of controls before it.  Positions strictly
   increase, so a position search is a binary search. *)
type controls = { recs : Cc.Wal.control Column.t; at : int Column.t }

let new_controls () = { recs = Column.create (); at = Column.create () }

type t = {
  policy : Cc.System.ts_policy;
  shards : Cc.System.t array;
  clock : Cc.Lamport_clock.t; (* the group's timestamp authority *)
  mutable next_gid : int;
  gtxns : (int, Gtxn.t) Hashtbl.t; (* live or unresolved *)
  local_index : Gtxn.t Leg_index.t array; (* per shard: leg id -> gtxn *)
  waits : (Cc.Txn.t * Cc.Txn.t list) Int_map.t array;
      (* per shard, the coordinator's mirror of the shard's waits-for
         edges: waiter leg id -> (waiter leg, raw blocker legs), written
         from the [Wait] results [invoke_batch] folds *)
  mutable dfs_epoch : int; (* the last deadlock search's colour stamp *)
  decisions : (int, [ `Commit of int | `Abort ]) Hashtbl.t;
      (* the coordinator's durable decision log; absence = presumed abort *)
  committed : committed;
  journal : (int, (Object_id.t * Operation.t * Value.t) list) Hashtbl.t;
      (* per live gtxn, granted ops newest first — global program order,
         which per-shard logs cannot reconstruct; moved into [committed]
         at the commit verdict *)
  controls : controls array;
      (* per shard, the current incarnation's control records *)
  mutable entries_touched : int;
      (* log entries [records_from] has read: history cells walked plus
         control entries examined *)
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
         sequential semantics) or over the caller and worker domains *)
  group_commit : bool;
      (* strict durability accounting: the durable image is the synced
         prefix, not everything appended *)
  sync_cost : unit -> unit; (* device sync latency, paid per WAL sync *)
  synced_events : int array; (* per shard: event-log prefix synced *)
  synced_ctrls : int array; (* per shard: control records synced *)
  unsynced_ts : int array;
      (* per shard, under group commit: the lowest timestamp of a
         commit applied since the last sync (max_int: none) — a commit
         a checkpoint cannot read yet *)
  checkpoint : checkpoint_config option; (* None: never auto-checkpoint *)
  ckpts : ckpt_file list array;
      (* per shard, newest first: the shard's checkpoint directory, up
         to its [checkpoint_retain]-th marked file *)
  streams : Cc.Checkpoint.stream array;
      (* per shard: the current incarnation's record stream as far as
         checkpoints have folded it *)
  ckpt_seq : int array;
      (* per shard, across incarnations: checkpoints taken, which names
         each rebuild transaction uniquely *)
  mutable ckpt_taken : int;
  mutable ckpt_work : int;
      (* records checkpoint captures read plus rebuild operations they
         wrote *)
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

(* A shard incarnation's checkpoint stream: its objects'
   specifications come from the incarnation's system. *)
let new_stream policy sys =
  Cc.Checkpoint.stream ~policy ~spec:(fun x ->
      Option.map
        (fun o -> o.Cc.Atomic_object.spec)
        (Cc.System.find_object sys x))

let create ?(policy = `None_) ?metrics ?(seed = 0) ?(domains = 1)
    ?(group_commit = false) ?(sync_cost = ignore) ?checkpoint ~shards () =
  if shards <= 0 then invalid_arg "Group.create: shards must be positive";
  (match checkpoint with
  | Some c when c.every <= 0 ->
    invalid_arg "Group.create: checkpoint every must be positive"
  | _ -> ());
  (match metrics with
  | Some m when Weihl_obs.Shard_metrics.shard_count m <> shards ->
    invalid_arg "Group.create: metrics shard count mismatch"
  | _ -> ());
  let systems = Array.init shards (fun _ -> Cc.System.create ~policy ()) in
  {
    policy;
    shards = systems;
    clock = Cc.Lamport_clock.create ();
    next_gid = 0;
    gtxns = Hashtbl.create 64;
    local_index = Array.init shards (fun _ -> Leg_index.create 64);
    waits = Array.make shards Int_map.empty;
    dfs_epoch = 0;
    decisions = Hashtbl.create 64;
    committed =
      {
        activities = Column.create ();
        order_ts = Column.create ();
        first_op = Column.create ();
        objs = Column.create ();
        ops = Column.create ();
        values = Column.create ();
      };
    journal = Hashtbl.create 64;
    controls = Array.init shards (fun _ -> new_controls ());
    entries_touched = 0;
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
    unsynced_ts = Array.make shards max_int;
    checkpoint;
    ckpts = Array.make shards [];
    streams = Array.map (new_stream policy) systems;
    ckpt_seq = Array.make shards 0;
    ckpt_taken = 0;
    ckpt_work = 0;
    wal_base = Array.make shards 0;
    archived = Array.make shards [];
    ckpt_countdown =
      (match checkpoint with
      | None -> Array.make shards 0
      | Some { every; _ } ->
        Array.init shards (jittered_countdown ~every ~shards));
  }

(* Every touch of a shard's (non-thread-safe) [Cc.System.t] goes
   through here or through an [Exec.run_phase], so the system only ever
   runs on its owner domain.  At [domains = 1], and for the shards the
   calling domain owns, this is a direct call.  The coordinator may
   still *read* shard state directly (clocks, log lengths, prepared
   lists): a shard is quiescent between the coordinator's joins, and
   the join's mutex gives the happens-before edge. *)
let on_shard t s f = Exec.call t.exec ~shard:s f

let shutdown t = Exec.shutdown t.exec
let domain_count t = Exec.domain_count t.exec
let jobs_posted t = Exec.jobs_posted t.exec
let mailbox_depth t s = Exec.mailbox_depth t.exec ~shard:s
let mailbox_max_depth t s = Exec.mailbox_max_depth t.exec ~shard:s
let policy t = t.policy
let shard_count t = Array.length t.shards
let shard_of t x = Router.shard_of ~shards:(Array.length t.shards) x

let check_shard t s fn =
  if s < 0 || s >= Array.length t.shards then
    invalid_arg (fn ^ ": shard out of range")

let system t s =
  check_shard t s "Group.system";
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
let trace_end t g ~outcome =
  match t.tracer with
  | None -> ()
  | Some st ->
    St.end_span (St.coord st) ~name:(txn_span_name g) ~cat:"txn"
      ~ts:(St.now st)
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

let has_object t x = Hashtbl.mem t.constructors (Object_id.name x)

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

(* Activities are sequential: while an invocation of a transaction
   waits, the transaction may retry that invocation and nothing else —
   no other operation and no commit, or its history would hold an
   invocation that is never answered. *)
let still_waiting fn g =
  match Gtxn.waiting g with
  | [] -> ()
  | (x, op) :: _ ->
    invalid_arg
      (Fmt.str "%s: transaction %a still waits for %a at %a" fn Gtxn.pp g
         Operation.pp op Object_id.pp x)

let rec waits_on x op = function
  | [] -> false
  | (x', op') :: rest ->
    (Object_id.equal x x' && Operation.equal op op') || waits_on x op rest

let rec answer x op = function
  | [] -> []
  | ((x', op') as w) :: rest ->
    if Object_id.equal x x' && Operation.equal op op' then rest
    else w :: answer x op rest

let require_ready fn g =
  require_active g;
  still_waiting fn g

let journal_append t g entry =
  let gid = Gtxn.gid g in
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.journal gid) in
  Hashtbl.replace t.journal gid (entry :: prev)

(* The leg no longer waits.  The mirror is touched only when it holds
   some waiter, which keeps wait-free workloads off the map. *)
let forget_wait t s txn =
  let w = t.waits.(s) in
  if not (Int_map.is_empty w) then t.waits.(s) <- Int_map.remove (Cc.Txn.id txn) w

let drop_leg t s txn =
  Leg_index.remove t.local_index.(s) (Cc.Txn.id txn);
  forget_wait t s txn

(* [g]'s invocation [x, op], run by its leg [txn] on shard [s], was
   granted or refused: it waits no more. *)
let answered t s txn g x op =
  forget_wait t s txn;
  match Gtxn.waiting g with
  | [] -> ()
  | ws -> Gtxn.set_waiting g (answer x op ws)

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

(* The commit enters the committed log, taking its journal with it. *)
let record_commit t g =
  let c = t.committed and gid = Gtxn.gid g in
  Column.push c.activities (Gtxn.activity g);
  Column.push c.order_ts
    (match order_ts t g with Some ts -> Timestamp.to_int ts | None -> -1);
  Column.push c.first_op (Column.length c.objs);
  match Hashtbl.find_opt t.journal gid with
  | None -> ()
  | Some newest_first ->
    Hashtbl.remove t.journal gid;
    List.iter
      (fun (x, op, v) ->
        Column.push c.objs x;
        Column.push c.ops op;
        Column.push c.values v)
      (List.rev newest_first)

let append_control t s c =
  let cs = t.controls.(s) in
  Column.push cs.at
    (Cc.Event_log.length (Cc.System.log t.shards.(s)) + Column.length cs.recs);
  Column.push cs.recs c

(* ------------------------------------------------------------------ *)
(* Leg steps: the commit discipline, written once for the commit wave
   and for in-doubt resolution *)

(* A leg that is still active aborts at its shard. *)
let abort_leg ?reason t s txn =
  on_shard t s (fun () -> Cc.System.abort ?reason t.shards.(s) txn);
  metrics_count Weihl_obs.Shard_metrics.abort_at t s;
  drop_leg t s txn

(* The leg at shard [s] has prepared: its [Prepared] record is the
   point of no return, appended before the yes vote leaves the site. *)
let prepared_record g =
  Cc.Wal.Prepared { gid = Gtxn.gid g; activity = Gtxn.activity g }

(* The global transaction takes its verdict: a commit enters the
   committed projection at its agreed timestamp, an abort drops its
   journal. *)
let record_verdict t g = function
  | `Commit ts ->
    Gtxn.set_commit_ts g (Timestamp.v ts);
    Gtxn.set_status g Gtxn.Committed;
    record_commit t g
  | `Abort ->
    Gtxn.set_status g Gtxn.Aborted;
    Hashtbl.remove t.journal (Gtxn.gid g)

(* A settled transaction leaves the table once no leg is prepared or
   on a crashed shard.  One still in doubt then lost its last prepared
   legs to crash recovery, which resolved them from the decision log:
   it takes the same verdict, presumed abort when none is recorded. *)
let maybe_prune t g =
  match Gtxn.status g with
  | Gtxn.Active -> ()
  | (Gtxn.In_doubt | Gtxn.Committed | Gtxn.Aborted) as status ->
    let unresolved =
      List.exists
        (fun (s, txn) -> t.crashed.(s) || Cc.Txn.is_prepared txn)
        (Gtxn.legs g)
    in
    if not unresolved then begin
      if status = Gtxn.In_doubt then
        record_verdict t g
          (Option.value ~default:`Abort
             (Hashtbl.find_opt t.decisions (Gtxn.gid g)));
      List.iter (fun (s, txn) -> drop_leg t s txn) (Gtxn.legs g);
      Hashtbl.remove t.gtxns (Gtxn.gid g)
    end

(* A prepared leg learns its verdict: the [Decided] record goes to the
   WAL before the shard applies it.  Returns the step to run on the
   shard, so a wave can queue it and in-doubt resolution can run it
   now.  Under group commit only a wave syncs what it applies, so a
   commit resolution applies holds the checkpoint mark below its
   timestamps until the shard's next sync. *)
let learn_verdict ?reason t g s txn verdict =
  let gid = Gtxn.gid g and sys = t.shards.(s) in
  drop_leg t s txn;
  match verdict with
  | `Commit ts ->
    let cts = Timestamp.v ts in
    if t.group_commit then
      t.unsynced_ts.(s) <-
        min t.unsynced_ts.(s)
          (Option.fold ~none:ts ~some:Timestamp.to_int (Gtxn.init_ts g));
    append_control t s (Cc.Wal.Decided { gid; verdict = `Commit (Some cts) });
    metrics_count Weihl_obs.Shard_metrics.tpc_commit_at t s;
    fun () -> Cc.System.commit_prepared ~commit_ts:cts sys txn
  | `Abort ->
    append_control t s (Cc.Wal.Decided { gid; verdict = `Abort });
    metrics_count Weihl_obs.Shard_metrics.abort_at t s;
    fun () -> Cc.System.abort_prepared ?reason sys txn

(* The in-doubt gauge: prepared, undecided legs on every live shard. *)
let refresh_in_doubt t =
  match t.metrics with
  | None -> ()
  | Some m ->
    Array.iteri
      (fun s sys ->
        if not t.crashed.(s) then
          Weihl_obs.Shard_metrics.set_in_doubt m s
            (List.length (Cc.System.prepared_txns sys)))
      t.shards

let abort ?reason t g =
  require_active g;
  List.iter
    (fun (s, txn) ->
      if (not t.crashed.(s)) && Cc.Txn.is_active txn then
        abort_leg ?reason t s txn
      else drop_leg t s txn)
    (Gtxn.legs g);
  record_verdict t g `Abort;
  trace_end t g ~outcome:(Option.value ~default:"abort" reason);
  Hashtbl.remove t.gtxns (Gtxn.gid g)

(* ------------------------------------------------------------------ *)
(* Durability: WAL sync, fuzzy checkpoints, truncation *)

let shard_label s = Fmt.str "shard-%d" s

(* Microseconds of wall-clock time since [t0], a monotonic reading. *)
let us_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e3

(* Shard [s]'s durable record stream is its events interleaved with its
   control records, positions absolute from the first record the
   incarnation appended — truncation never renumbers, it only drops a
   prefix at encode time.  Under group commit the durable image is the
   synced prefix: records appended since the last sync are still in the
   volatile buffer and a crash loses them.  The marks are taken at sync
   time, so "first n events + first m controls" is exactly a prefix of
   the merged stream.  Without group commit every append is durable
   (the classic synchronous-WAL model). *)
let record_count t s =
  check_shard t s "Group.record_count";
  if t.group_commit then t.synced_events.(s) + t.synced_ctrls.(s)
  else
    Cc.Event_log.length (Cc.System.log t.shards.(s))
    + Column.length t.controls.(s).recs

(* The first control at or after position [pos] (the control count if
   none), each probe counted. *)
let first_control_at t cs pos =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      t.entries_touched <- t.entries_touched + 1;
      let mid = (lo + hi) / 2 in
      if Column.get cs.at mid < pos then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Column.length cs.recs)

(* The controls in [pos, upto) come from the position column; the
   records before [pos] are [k0] controls and [pos - k0] events, so the
   events in range are a slice of the shard's history, read from its
   newest end.  The two then merge by position.  Unsynced controls need
   no filter: each sits at or past the synced prefix's end, so none
   falls below [upto]. *)
let records_from t s ~pos ~max =
  check_shard t s "Group.records_from";
  if pos < 0 || max < 0 then
    invalid_arg "Group.records_from: negative argument";
  let count = record_count t s in
  let upto = if max > count - pos then count else pos + max in
  if pos >= upto then []
  else begin
    let cs = t.controls.(s) in
    let k0 = first_control_at t cs pos in
    let k1 = first_control_at t cs upto in
    let e0 = pos - k0 and e1 = upto - k1 in
    let events =
      if e0 = e1 then []
      else begin
        let len, events =
          on_shard t s (fun () ->
              let h = Cc.System.history t.shards.(s) in
              (History.length h, History.slice h ~from:e0 ~upto:e1))
        in
        t.entries_touched <- t.entries_touched + len - e0;
        events
      end
    in
    let rec merge p k events acc =
      if k < k1 && Column.get cs.at k = p then begin
        t.entries_touched <- t.entries_touched + 1;
        let c = Cc.Wal.Control (Column.get cs.recs k) in
        merge (p + 1) (k + 1) events (c :: acc)
      end
      else
        match events with
        | e :: rest -> merge (p + 1) k rest (Cc.Wal.Event e :: acc)
        | [] -> List.rev acc
    in
    merge pos k0 events []
  end

let entries_touched t = t.entries_touched

let control_log t s =
  check_shard t s "Group.control_log";
  let cs = t.controls.(s) in
  List.init (Column.length cs.recs) (fun k ->
      (Column.get cs.at k - k, Column.get cs.recs k))

let synced_marks t s =
  check_shard t s "Group.synced_marks";
  if t.group_commit then Some (t.synced_events.(s), t.synced_ctrls.(s))
  else None

let durable_shard t s =
  let base = t.wal_base.(s) in
  Cc.Wal.encode_records ~label:(shard_label s) ~base
    (records_from t s ~pos:base ~max:max_int)

(* Shard [s]'s device sync has returned: the marks advance to the
   current end of its record stream, so everything appended so far is
   durable.  [records] is the number of transactions the sync covered —
   the group commit batch size.  Coordinator-side, after the join. *)
let mark_synced t (s, records) =
  t.synced_events.(s) <- Cc.Event_log.length (Cc.System.log t.shards.(s));
  t.synced_ctrls.(s) <- Column.length t.controls.(s).recs;
  t.unsynced_ts.(s) <- max_int;
  (match t.metrics with
  | None -> ()
  | Some m -> Weihl_obs.Shard_metrics.wal_sync m ~records);
  match t.tracer with
  | None -> ()
  | Some st ->
    St.span (St.shard st s) ~name:"wal.sync" ~cat:"wal" ~ts:(St.now st)
      ~dur:0. ~tid:0
      ~args:[ ("batch", St.num records) ]

(* One WAL device sync per involved shard, all in one phase: each
   sync's latency is paid on its shard's owner domain, so the syncs
   overlap in wall-clock time. *)
let sync_shards t involved =
  Exec.run_phase t.exec (List.map (fun (s, _) -> (s, t.sync_cost)) involved);
  List.iter (mark_synced t) involved

(* The mark a timestamp-ordered checkpoint folds to: below every
   initiation timestamp a live transaction holds on any shard,
   read-only ones included (a late reader below the mark would find its
   versions folded away), and below every decided commit a leg has not
   applied — or, under group commit, not synced — yet; the clock
   reading when nothing is live.  Prepared legs count through their own
   timestamps too: recovery re-creates their global transaction without
   one. *)
let low_water_mark t =
  let lo = ref (Timestamp.to_int (Cc.Lamport_clock.now t.clock) + 1) in
  let see = Option.iter (fun ts -> lo := min !lo (Timestamp.to_int ts)) in
  Hashtbl.iter
    (fun gid g ->
      if Gtxn.status g <> Gtxn.Aborted then begin
        see (Gtxn.init_ts g);
        match Hashtbl.find_opt t.decisions gid with
        | Some (`Commit ts) -> lo := min !lo ts
        | Some `Abort | None -> ()
      end)
    t.gtxns;
  Array.iteri
    (fun s sys ->
      if not t.crashed.(s) then begin
        lo := min !lo t.unsynced_ts.(s);
        List.iter
          (fun txn -> see (Cc.Txn.init_ts txn))
          (Cc.System.prepared_txns sys)
      end)
    t.shards;
  !lo - 1

(* An update that is still live may yet commit at its initiation
   timestamp (static atomicity draws it at [begin_txn]).  Prepared legs
   on live shards count whether or not a global transaction still
   tracks them.  Only [`Static] updates carry an initiation timestamp,
   so the walk is skipped under the other policies. *)
let oldest_live_update t =
  match t.policy with
  | `None_ | `Hybrid -> None
  | `Static ->
    let lo = ref max_int in
    let see = function
      | Some ts -> lo := min !lo (Timestamp.to_int ts)
      | None -> ()
    in
    Hashtbl.iter
      (fun _ g ->
        match Gtxn.status g with
        | (Gtxn.Active | Gtxn.In_doubt) when not (Gtxn.is_read_only g) ->
          see (Gtxn.init_ts g)
        | _ -> ())
      t.gtxns;
    Array.iteri
      (fun s sys ->
        if not t.crashed.(s) then
          List.iter
            (fun txn ->
              if not (Cc.Txn.is_read_only txn) then see (Cc.Txn.init_ts txn))
            (Cc.System.prepared_txns sys))
      t.shards;
    if !lo = max_int then None else Some !lo

(* The mark a segment reaching the end of shard [s]'s durable stream
   certifies for snapshot reads: the group clock reading — every commit
   at or below it has appended its records — clamped below three kinds
   of commit the stream does not hold yet:
   - a live update's initiation timestamp: under [`Static] an update
     may commit at it long after the clock has passed;
   - a prepared leg on [s] whose recorded decision is a commit: it
     commits at its agreed timestamp only when resolution reaches it;
   - under group commit, a commit [s] applied since its last sync
     (in-doubt resolution applies without syncing): its records are
     not durable, so no segment carries them yet. *)
let serving_mark t s =
  let w = Timestamp.to_int (Cc.Lamport_clock.now t.clock) in
  let w =
    match oldest_live_update t with Some ts -> min w (ts - 1) | None -> w
  in
  List.fold_left
    (fun w txn ->
      match Leg_index.find_opt t.local_index.(s) (Cc.Txn.id txn) with
      | Some g -> (
        match Hashtbl.find_opt t.decisions (Gtxn.gid g) with
        | Some (`Commit ts) -> min w (ts - 1)
        | Some `Abort | None -> w)
      | None -> w)
    (min w (t.unsynced_ts.(s) - 1))
    (Cc.System.prepared_txns t.shards.(s))

(* Write one state checkpoint of shard [s] without stopping traffic:
   feed the shard's fold the durable records since the last checkpoint,
   fold up to the low-water mark, encode the rebuild transaction to a
   file, and append the [Checkpointed] marker that makes the file
   official once synced.  Truncation then drops the WAL prefix behind
   every retained marked checkpoint's redo point — never just the
   newest, so a damaged newest file still leaves an older checkpoint
   with its marker and a sufficient tail in the log.  [lose_marker]
   simulates the crash window where the file reached disk but the
   marker never did: the file exists, yet recovery must treat it as if
   the checkpoint never happened, and so do retention and truncation.
   Returns the checkpoint's redo point. *)
let checkpoint_shard ?(lose_marker = false) t s =
  check_shard t s "Group.checkpoint_shard";
  if t.crashed.(s) then invalid_arg "Group.checkpoint_shard: shard is down";
  let t0 = Monotonic_clock.now () in
  let count = record_count t s in
  let stream = t.streams.(s) in
  let fed = Cc.Checkpoint.fed stream in
  Cc.Checkpoint.feed stream (records_from t s ~pos:fed ~max:(count - fed));
  t.ckpt_seq.(s) <- t.ckpt_seq.(s) + 1;
  let mark =
    match t.policy with `None_ -> -1 | `Static | `Hybrid -> low_water_mark t
  in
  let ckpt =
    match
      Cc.Checkpoint.capture stream ~mark
        ~name:(Fmt.str "ckpt%d_%d" s t.ckpt_seq.(s))
        ~label:(shard_label s) ()
    with
    | Ok c -> c
    | Error msg ->
      failwith (Fmt.str "Group.checkpoint_shard: shard %d: %s" s msg)
  in
  t.ckpt_taken <- t.ckpt_taken + 1;
  t.ckpt_work <- t.ckpt_work + count - fed + ckpt.rebuild_ops;
  let file = ckpt.file and covered = ckpt.covered in
  t.ckpts.(s) <-
    retain ({ covered; file; marked = not lose_marker } :: t.ckpts.(s));
  if not lose_marker then begin
    let digest = Cc.Checkpoint.digest file in
    append_control t s (Cc.Wal.Checkpointed { seq = covered; digest });
    sync_shards t [ (s, 1) ];
    (* Truncate (or archive) the prefix every retained marked
       checkpoint covers — but only once the retention window is full.
       Truncating behind a lone checkpoint would make that one file a
       single point of failure: damage it and the log can no longer
       reach the truncation point from record zero.  The prefix ends at
       the least retained redo point. *)
    let marked = List.filter (fun f -> f.marked) t.ckpts.(s) in
    let horizon =
      List.fold_left (fun acc f -> min acc f.covered) covered marked
    in
    if List.length marked = checkpoint_retain && horizon > t.wal_base.(s)
    then begin
      (match t.checkpoint with
      | Some { archive = true; _ } ->
        let base = t.wal_base.(s) in
        let segment =
          Cc.Wal.encode_records ~label:(shard_label s) ~base
            (records_from t s ~pos:base ~max:(horizon - base))
        in
        t.archived.(s) <- segment :: t.archived.(s)
      | _ -> ());
      t.wal_base.(s) <- horizon
    end
  end;
  let age = count - covered in
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
      ~args:
        [
          ("covered", St.num covered);
          ("age", St.num age);
          ("rederived", St.num ckpt.rederived);
          ("objects", St.num ckpt.objects);
          ("bytes", St.num (String.length file));
        ]);
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
  check_shard t s "Group.checkpoint_files";
  List.map (fun c -> c.file) t.ckpts.(s)

let checkpoint_work t = (t.ckpt_taken, t.ckpt_work)

let corrupt_checkpoint t s ~f =
  check_shard t s "Group.corrupt_checkpoint";
  match t.ckpts.(s) with
  | [] -> false
  | c :: tl ->
    t.ckpts.(s) <- { c with file = f c.file } :: tl;
    true

let wal_base t s =
  check_shard t s "Group.wal_base";
  t.wal_base.(s)

let archived_segments t s =
  check_shard t s "Group.archived_segments";
  List.rev t.archived.(s)

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

(* ------------------------------------------------------------------ *)
(* In-doubt resolution *)

let resolve_gtxn t g verdict =
  let resolved = ref 0 in
  List.iter
    (fun (s, txn) ->
      if (not t.crashed.(s)) && Cc.Txn.is_prepared txn then begin
        incr resolved;
        on_shard t s (learn_verdict ~reason:"late decision" t g s txn verdict)
      end)
    (Gtxn.legs g);
  (match Gtxn.status g with
  | Gtxn.In_doubt | Gtxn.Active ->
    record_verdict t g verdict;
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
            match Leg_index.find_opt t.local_index.(s) (Cc.Txn.id txn) with
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
  check_shard t s "Group.crash_shard";
  let text = durable_shard t s in
  t.crashed.(s) <- true;
  sweep_crashed t s;
  text

(* The coordinator knows who voted yes.  A leg on [s] that had
   prepared, of a transaction decided commit, must come back from the
   log committed or in doubt.  If neither, the log lost its [Prepared]
   record: a damaged last line reads as a torn tail, which no CRC
   check can tell from a crash mid-write.  Aborted and undecided
   transactions are harmless to lose under presumed abort. *)
let check_decided_commits t s sys (report : Cc.Recovery.checkpointed_report) =
  let committed = lazy (History.committed (Cc.System.history sys)) in
  let lost gid g =
    match (Gtxn.leg g s, Hashtbl.find_opt t.decisions gid) with
    | Some txn, Some (`Commit _) ->
      Cc.Txn.is_prepared txn
      && (not (List.mem_assoc gid report.shard.Cc.Recovery.in_doubt))
      && not (Activity.Set.mem (Gtxn.activity g) (Lazy.force committed))
    | _ -> false
  in
  match
    Hashtbl.fold
      (fun gid g acc -> if lost gid g then min gid acc else acc)
      t.gtxns max_int
  with
  | gid when gid = max_int -> Ok report
  | gid ->
    Error
      (Cc.Recovery.Corrupt
         {
           record = t.wal_base.(s) + report.wal_records;
           reason =
             Fmt.str
               "g%d voted yes here and was decided commit, but the log \
                neither commits it nor holds it prepared"
               gid;
         })

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
    Result.bind
      (Cc.Recovery.restore_checkpointed ~resolve
         ~checkpoints:(checkpoint_files t s)
         (Cc.Recovery.order_of_policy t.policy) sys text)
      (check_decided_commits t s sys)
  with
  | Error e -> Error e
  | Ok report ->
    let shard_report = report.Cc.Recovery.shard in
    t.shards.(s) <- sys;
    install_probe t s;
    Leg_index.reset t.local_index.(s);
    t.waits.(s) <- Int_map.empty;
    t.controls.(s) <- new_controls ();
    (* The group clock must dominate everything the recovered shard
       replayed, or future commit timestamps could collide. *)
    Cc.Lamport_clock.observe t.clock (Cc.Lamport_clock.now (Cc.System.clock sys));
    (* Every leg of the crashed incarnation goes: replay has settled it,
       and its [Txn.t] id may name another transaction in the new one.
       Then re-link the legs still in doubt, recreating their durable
       prepared marker in the new incarnation's control stream. *)
    Hashtbl.iter (fun _ g -> Gtxn.remove_leg g s) t.gtxns;
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
        Leg_index.replace t.local_index.(s) (Cc.Txn.id txn) g)
      shard_report.Cc.Recovery.in_doubt;
    (* Recovery rewrites the WAL (replayed log + re-created Prepared
       markers) durably before the shard returns to service.  The new
       incarnation starts from record zero with no checkpoints and an
       empty checkpoint stream: the old files' positions refer to the
       pre-crash stream and must not leak into the next crash's
       recovery. *)
    t.synced_events.(s) <- Cc.Event_log.length (Cc.System.log sys);
    t.synced_ctrls.(s) <- Column.length t.controls.(s).recs;
    t.unsynced_ts.(s) <- max_int;
    t.ckpts.(s) <- [];
    t.streams.(s) <- new_stream t.policy sys;
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
    refresh_in_doubt t;
    (match t.metrics with
    | None -> ()
    | Some m ->
      Weihl_obs.Shard_metrics.recovery_done m
        ~duration:(us_since t0)
        ~records:report.Cc.Recovery.replayed_records);
    Ok report

(* ------------------------------------------------------------------ *)
(* Cross-shard deadlock detection *)

(* The global transaction behind a leg on shard [s], while the leg is
   active and indexed: the filter the merged snapshot of every shard's
   waits-for graph applied. *)
let lift t s leg =
  if Cc.Txn.is_active leg then Leg_index.find_opt t.local_index.(s) (Cc.Txn.id leg)
  else None

(* The raw blockers of a leg on shard [s] while it waits.  A waiting
   leg is always indexed: a leg enters the mirror only once indexed,
   and [drop_leg] and recovery take it out of both. *)
let blockers_of t s leg =
  if t.crashed.(s) || not (Cc.Txn.is_active leg) then []
  else
    match Int_map.find_opt (Cc.Txn.id leg) t.waits.(s) with
    | Some (_, blockers) -> blockers
    | None -> []

(* A DFS over the waits-for mirror, lifted to global transactions; no
   shard is asked anything.  It visits nodes in the order the merge of
   the shards' snapshots produced, so the cycle it finds is the same:
   roots by shard ascending, then waiter leg id ascending; a node's
   successors leg by leg in descending shard order, each leg's blockers
   in the shard's order.  Colours are stamped with this search's epoch:
   [gray] while on the path, [black] once exhausted. *)
let find_deadlock t =
  let gray = t.dfs_epoch + 1 and black = t.dfs_epoch + 2 in
  t.dfs_epoch <- black;
  let exception Cycle of Gtxn.t list in
  let rec visit path g =
    let mark = Gtxn.mark g in
    if mark = gray then begin
      (* A back-edge: cut the path at [g]. *)
      let rec cut = function
        | [] -> []
        | x :: _ when x == g -> [ x ]
        | x :: rest -> x :: cut rest
      in
      raise (Cycle (List.rev (cut path)))
    end
    else if mark <> black then begin
      Gtxn.set_mark g gray;
      let path = g :: path in
      List.iter
        (fun (s, leg) -> visit_all path s (blockers_of t s leg))
        (List.sort (fun (a, _) (b, _) -> Int.compare b a) (Gtxn.legs g));
      Gtxn.set_mark g black
    end
  and visit_all path s = function
    | [] -> ()
    | b :: rest ->
      (match lift t s b with Some gb -> visit path gb | None -> ());
      visit_all path s rest
  in
  match
    Array.iteri
      (fun s waiters ->
        if not t.crashed.(s) then
          Int_map.iter
            (fun _ (w, _) ->
              match lift t s w with Some g -> visit [] g | None -> ())
            waiters)
      t.waits
  with
  | () -> None
  | exception Cycle cycle -> Some cycle

let victim cycle =
  match cycle with
  | [] -> invalid_arg "Group.victim: empty cycle"
  | g :: rest ->
    List.fold_left (fun acc g -> if Gtxn.gid g > Gtxn.gid acc then g else acc)
      g rest

(* ------------------------------------------------------------------ *)
(* The merged committed projection *)

let committed_projection t =
  let c = t.committed in
  let n = Column.length c.activities in
  let order = List.init n Fun.id in
  let order =
    match t.policy with
    | `None_ -> order
    | `Static | `Hybrid ->
      (* -1, no timestamp, sorts first *)
      List.stable_sort
        (fun a b -> Int.compare (Column.get c.order_ts a) (Column.get c.order_ts b))
        order
  in
  List.map
    (fun i ->
      let first = Column.get c.first_op i in
      let last =
        if i + 1 < n then Column.get c.first_op (i + 1) else Column.length c.objs
      in
      ( Column.get c.activities i,
        List.init (last - first) (fun k ->
            let j = first + k in
            (Column.get c.objs j, Column.get c.ops j, Column.get c.values j)) ))
    order

let committed_count t = Column.length t.committed.activities

let agreed_commit_ts t gid =
  match Hashtbl.find_opt t.decisions gid with
  | Some (`Commit ts) -> Some ts
  | Some `Abort | None -> None

let tpc_rounds t = t.rounds

(* ------------------------------------------------------------------ *)
(* Batched execution and group commit *)

(* Execute one operation per entry, batched: entries are grouped by
   home shard, one phase runs each shard's sub-list in entry order (one
   job per worker domain), and the coordinator joins before folding the
   results back into group state.  Per-shard execution order is
   deterministic (entry order), so results are identical at any domain
   count — only wall-clock timing varies. *)
let invoke_batch t entries =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let results = Array.make n (Refused "unprocessed") in
  let shards_n = Array.length t.shards in
  let per_shard = Array.make shards_n [] in
  Array.iteri
    (fun i (g, x, op) ->
      require_active g;
      (match Gtxn.waiting g with
      | [] -> ()
      | ws -> if not (waits_on x op ws) then still_waiting "Group.invoke_batch" g);
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
  (* Each entry's leg (created on first contact) and raw shard result,
     written by its shard's owner. *)
  let raw = Array.make n None in
  (* Leg lookups happen coordinator-side; the shard's thunk creates
     missing legs. *)
  let step (s, idxs) =
    let sys = t.shards.(s) in
    let prep =
      List.map
        (fun i ->
          let g, x, op = entries.(i) in
          (i, Gtxn.gid g, Gtxn.leg g s, Gtxn.init_ts g, Gtxn.activity g, x, op))
        idxs
    in
    ( s,
      fun () ->
        let fresh = Hashtbl.create 8 in
        List.iter
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
            raw.(i) <- Some (txn, Cc.System.invoke sys txn x op))
          prep )
  in
  (* Sample the mailbox depth gauges while the jobs are in flight. *)
  let on_posted () =
    match t.metrics with
    | None -> ()
    | Some m ->
      List.iter
        (fun (s, _) ->
          Weihl_obs.Shard_metrics.set_mailbox_depth m s (mailbox_depth t s))
        jobs
  in
  Exec.run_phase ~on_posted t.exec (List.map step jobs);
  List.iter
    (fun (s, idxs) ->
      List.iter
        (fun i ->
          let txn, r = Option.get raw.(i) in
          let g, x, op = entries.(i) in
          (match Gtxn.leg g s with
          | Some _ -> ()
          | None ->
            Gtxn.set_leg g s txn;
            Leg_index.replace t.local_index.(s) (Cc.Txn.id txn) g);
          match r with
          | Cc.Atomic_object.Granted v ->
            answered t s txn g x op;
            journal_append t g (x, op, v);
            results.(i) <- Granted v
          | Cc.Atomic_object.Wait blockers ->
            (* Raw blockers: one opened in this batch may not be indexed
               yet; the deadlock search lifts them when it walks. *)
            if not (waits_on x op (Gtxn.waiting g)) then
              Gtxn.set_waiting g ((x, op) :: Gtxn.waiting g);
            t.waits.(s) <- Int_map.add (Cc.Txn.id txn) (txn, blockers) t.waits.(s);
            metrics_count Weihl_obs.Shard_metrics.conflict_at t s;
            results.(i) <-
              Wait
                (List.filter_map
                   (fun b -> Leg_index.find_opt t.local_index.(s) (Cc.Txn.id b))
                   blockers)
          | Cc.Atomic_object.Refused why ->
            answered t s txn g x op;
            results.(i) <- Refused why)
        idxs)
    jobs;
  Array.to_list results

let invoke t g x op = List.hd (invoke_batch t [ (g, x, op) ])

(* ------------------------------------------------------------------ *)
(* The commit wave: the one commit scheduler *)

let shard_clock t s =
  Timestamp.to_int (Cc.Lamport_clock.now (Cc.System.clock t.shards.(s)))

(* The agreed commit timestamp exceeds every participant's clock
   reading ([proposal] is one past the largest) and stays globally
   unique: it is drawn through the group clock. *)
let choose_ts t proposal =
  Cc.Lamport_clock.observe t.clock (Timestamp.v (proposal - 1));
  Timestamp.to_int (Cc.Lamport_clock.next t.clock)

(* The coordinator's decision enters its durable log before any leg
   learns it. *)
let decide t g verdict =
  Hashtbl.replace t.decisions (Gtxn.gid g) verdict;
  record_verdict t g verdict

(* A faulted commit's round, per leg in [Gtxn.legs] order: the vote its
   site cast ([None]: never asked, or dead before voting), the verdict
   it learned, and where the round left it. *)
type fate = {
  votes : Tpc.vote option array;
  learned : [ `Commit of int | `Abort ] option array;
  outcomes : Tpc.site_status array;
}

(* Run a faulted commit's message round as a model.  Its sites read
   their shard's clock live but only record their vote and the verdict
   they learn; the coordinator decides through the group's own
   [choose_ts] and decision log.  The waves then apply the recorded
   fates, which is exact: [Cc.System.prepare] neither reads nor ticks
   the shard clock, the coordinator decides only once every vote is in
   (so every clock reading precedes every learn), and with one leg per
   shard each shard still writes Prepared, then Decided, then the
   commit or abort. *)
let model_round t g legs (fault, votes_no) =
  let n = List.length legs in
  let votes = Array.make n None and learned = Array.make n None in
  let site i (s, _) =
    {
      Tpc.clock = (fun () -> shard_clock t s);
      prepare =
        (fun () ->
          let v = if List.mem i votes_no then Tpc.No else Tpc.Yes in
          votes.(i) <- Some v;
          v);
      learn = (fun v -> learned.(i) <- Some v);
    }
  in
  let d =
    Tpc.Driver.commit ~fault ~choose_ts:(choose_ts t) ~on_decide:(decide t g)
      ~seed:((t.seed * 1_000_003) + t.rounds)
      (List.mapi site legs)
  in
  { votes; learned; outcomes = Array.of_list d.Tpc.outcomes }

(* Record one multi-shard decision: [tpc_round] in the metrics and,
   under a tracer, one flow per 2PC message whose effect the wave
   applied, each stamped at the coordinator's current virtual time — a
   prepare to each leg that voted and its vote back, and the verdict to
   each leg that learned it.  [None] is the coordinator, [Some s] shard
   [s]. *)
let report_round t g legs fate =
  match (t.metrics, t.tracer) with
  | None, None -> ()
  | metrics, tracer ->
    let messages = ref 0 in
    let send name src dst =
      incr messages;
      Option.iter
        (fun st ->
          let ts = St.now st and gid = Gtxn.gid g in
          let timeline = Option.fold ~none:(St.coord st) ~some:(St.shard st) in
          ignore
            (St.flow st ~name ~cat:"msg" ~args:(ctx_args g)
               ~src:(timeline src) ~src_ts:ts ~src_tid:gid
               ~dst:(timeline dst) ~dst_ts:ts ~dst_tid:gid))
        tracer
    in
    List.iteri
      (fun i (s, _) ->
        let vote, learned =
          match fate with
          | Some f -> (f.votes.(i), f.learned.(i))
          | None when t.crashed.(s) -> (None, None)
          | None -> (Some Tpc.Yes, Hashtbl.find_opt t.decisions (Gtxn.gid g))
        in
        Option.iter
          (fun v ->
            send "prepare" None (Some s);
            send (if v = Tpc.Yes then "vote.yes" else "vote.no") (Some s) None)
          vote;
        Option.iter
          (function
            | `Commit _ -> send "decide.commit" None (Some s)
            | `Abort -> send "decide.abort" None (Some s))
          learned)
      legs;
    Option.iter
      (fun m ->
        Weihl_obs.Shard_metrics.tpc_round m
          ~committed:(Gtxn.status g = Gtxn.Committed)
          ~messages:!messages ~fanout:(List.length legs))
      metrics

(* Commit a batch of transactions with group commit and a batched,
   synchronous 2PC:

   - leg-free transactions commit trivially;
   - single-shard commits execute in one phase, and ONE sync per shard
     covers the whole batch's commit records;
   - multi-shard transactions prepare in the same phase (vote markers
     appended), the wave-1 sync makes every vote durable before the
     coordinator decides, and a second phase applies the decisions
     under Decided records followed by the wave-2 sync.

   Each wave is one [Exec.run_phase]: one job per worker domain runs
   its shards' steps, and each shard's sync rides at the end of its own
   steps, so the sync adds no round trip.  The synced marks, metrics
   and trace markers follow on the coordinator after the join.

   Under group commit nothing is acknowledged — no status flips to
   Committed, nothing enters the committed projection — until the sync
   covering its records has returned.  [crash_before_sync] injects the
   classic group-commit fault: the listed shards die after appending
   their wave-1 records but before syncing them, so those records are
   lost and the transactions they belonged to are never acknowledged.

   [faulted] injects a 2PC fault into every multi-shard transaction of
   the batch ([commit] passes it for one): each first runs its round as
   a model ([model_round]), and the waves apply the fate it records —
   wave 1 prepares the legs that voted yes and aborts those that voted
   no, the legs whose site died take their shard down, and wave 2
   applies the verdicts the legs learned. *)
let commit_wave ?faulted ?(crash_before_sync = []) t gs =
  List.iter (require_ready "Group.commit_batch") gs;
  let shards_n = Array.length t.shards in
  let crash_set s = List.mem s crash_before_sync in
  (* Every multi-shard transaction is one 2PC decision, counted as a
     round; a faulted one runs its model round here. *)
  let trivial, singles, multis =
    List.fold_left
      (fun (tr, si, mu) g ->
        match Gtxn.legs g with
        | [] -> (g :: tr, si, mu)
        | [ (s, txn) ] -> (tr, (g, s, txn) :: si, mu)
        | legs ->
          t.rounds <- t.rounds + 1;
          let fate =
            match faulted with
            | None -> None
            | Some f -> Some (model_round t g legs f)
          in
          (tr, si, (g, legs, fate) :: mu))
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
      trace_end t g ~outcome:"commit";
      Hashtbl.remove t.gtxns (Gtxn.gid g))
    trivial;
  (* A wave queues shard steps per shard, counting the records each
     shard's sync will cover. *)
  let enqueue work count s step =
    work.(s) <- step :: work.(s);
    count.(s) <- count.(s) + 1
  in
  (* The shards a wave appended to, with their record counts, less
     those dying before the sync. *)
  let involved batch =
    List.filter_map
      (fun s ->
        if batch.(s) > 0 && not (crash_set s) then Some (s, batch.(s))
        else None)
      (List.init shards_n Fun.id)
  in
  (* One phase runs every shard's steps; under group commit each
     involved shard's sync follows its steps on its owner domain. *)
  let run_wave work batch =
    let synced = if t.group_commit then involved batch else [] in
    List.iter (fun (s, _) -> work.(s) <- t.sync_cost :: work.(s)) synced;
    Exec.run_phase t.exec
      (List.filter_map
         (fun s ->
           match List.rev work.(s) with
           | [] -> None
           | steps -> Some (s, fun () -> List.iter (fun f -> f ()) steps))
         (List.init shards_n Fun.id));
    List.iter (mark_synced t) synced
  in
  (* Wave 1: single-shard commits execute and every multi-shard leg
     that votes yes prepares and appends its [Prepared] marker, all in
     batch order on the volatile log tail; then one sync per involved
     shard covers every commit record and vote.  A fault-injected shard
     dies instead — after append, before sync — losing its unsynced
     tail.  A single-shard commit runs no coordination round, but a
     hybrid update still draws its commit timestamp from the group
     clock, coordinator-side: local clocks drift independently, and
     hybrid atomicity needs the global timestamp order of committed
     updates consistent with [precedes] across shards. *)
  let phase1 = Array.make shards_n [] in
  let batch1 = Array.make shards_n 0 in
  List.iter
    (fun (g, s, txn) ->
      let sys = t.shards.(s) in
      match t.policy with
      | `Hybrid when not (Gtxn.is_read_only g) ->
        Cc.Lamport_clock.observe t.clock
          (Cc.Lamport_clock.now (Cc.System.clock sys));
        let cts = Cc.Lamport_clock.next t.clock in
        Gtxn.set_commit_ts g cts;
        enqueue phase1 batch1 s (fun () ->
            Cc.System.prepare sys txn;
            Cc.System.commit_prepared ~commit_ts:cts sys txn)
      | `None_ | `Static | `Hybrid ->
        enqueue phase1 batch1 s (fun () -> Cc.System.commit sys txn))
    singles;
  List.iter
    (fun (g, legs, fate) ->
      List.iteri
        (fun i (s, txn) ->
          match fate with
          | Some { votes; _ } when votes.(i) <> Some Tpc.Yes ->
            if votes.(i) = Some Tpc.No then abort_leg ~reason:"vote no" t s txn
          | _ ->
            let sys = t.shards.(s) in
            metrics_count Weihl_obs.Shard_metrics.prepare_at t s;
            enqueue phase1 batch1 s (fun () ->
                Cc.System.prepare sys txn;
                append_control t s (prepared_record g)))
        legs)
    multis;
  run_wave phase1 batch1;
  (* The shards that died: those the group-commit fault hit, and those
     whose site a faulted round saw crash. *)
  let crashed_now =
    List.filter
      (fun s -> batch1.(s) > 0 && crash_set s)
      (List.init shards_n Fun.id)
    @ List.concat_map
        (fun (_g, legs, fate) ->
          match fate with
          | None -> []
          | Some f ->
            List.filteri (fun i _ -> f.outcomes.(i) = Tpc.Crashed) legs
            |> List.map fst)
        multis
  in
  List.iter (fun s -> t.crashed.(s) <- true) crashed_now;
  (* Acknowledge single-shard commits — only now that the covering sync
     returned.  A commit whose shard died before the sync was never
     durable: it is not acknowledged, full stop. *)
  List.iter
    (fun (g, s, txn) ->
      if t.crashed.(s) then begin
        record_verdict t g `Abort;
        trace_end t g ~outcome:"crash before sync"
      end
      else begin
        metrics_count Weihl_obs.Shard_metrics.local_commit t s;
        Gtxn.set_status g Gtxn.Committed;
        record_commit t g;
        match t.tracer with
        | None -> ()
        | Some st ->
          St.instant (St.coord st) ~name:"commit.fast" ~cat:"tpc"
            ~ts:(St.now st) ~tid:(Gtxn.gid g) ~args:(ctx_args g);
          trace_end t g ~outcome:"commit"
      end;
      drop_leg t s txn;
      Hashtbl.remove t.gtxns (Gtxn.gid g))
    singles;
  (* Decide the multis a model round did not: a leg whose shard died
     before its vote was durable means abort (the coordinator never got
     a durable yes); otherwise commit at a timestamp past every
     participant's clock. *)
  List.iter
    (fun (g, legs, fate) ->
      match fate with
      | Some _ -> ()
      | None ->
        decide t g
          (if List.exists (fun (s, _) -> t.crashed.(s)) legs then `Abort
           else
             `Commit
               (choose_ts t
                  (1
                  + List.fold_left
                      (fun acc (s, _) -> max acc (shard_clock t s))
                      0 legs))))
    multis;
  (* Wave 2: every live leg learns its verdict — the decision, or what
     its faulted round taught it — then the wave-2 sync. *)
  let phase2 = Array.make shards_n [] in
  let batch2 = Array.make shards_n 0 in
  List.iter
    (fun (g, legs, fate) ->
      let learn s txn verdict =
        if not t.crashed.(s) then
          enqueue phase2 batch2 s
            (learn_verdict ~reason:"batch abort" t g s txn verdict)
      in
      match fate with
      | None ->
        let verdict = Hashtbl.find t.decisions (Gtxn.gid g) in
        List.iter (fun (s, txn) -> learn s txn verdict) legs
      | Some f ->
        List.iteri
          (fun i (s, txn) -> Option.iter (learn s txn) f.learned.(i))
          legs)
    multis;
  run_wave phase2 batch2;
  List.iter
    (fun (g, legs, fate) ->
      (* A faulted round may leave a live leg its coordinator never
         engaged: it presumes abort.  With no decision recorded the
         transaction is in doubt iff some leg prepared. *)
      if Option.is_some fate then begin
        List.iter
          (fun (s, txn) ->
            if (not t.crashed.(s)) && Cc.Txn.is_active txn then
              abort_leg ~reason:"presumed abort" t s txn)
          legs;
        if not (Hashtbl.mem t.decisions (Gtxn.gid g)) then
          if List.exists (fun (_, txn) -> Cc.Txn.is_prepared txn) legs then
            Gtxn.set_status g Gtxn.In_doubt
          else record_verdict t g `Abort
      end;
      report_round t g legs fate;
      trace_end t g
        ~outcome:
          (match Gtxn.status g with
          | Gtxn.Committed -> "commit"
          | Gtxn.In_doubt -> "in-doubt"
          | Gtxn.Aborted | Gtxn.Active -> "batch abort");
      maybe_prune t g)
    multis;
  (* A shard that died in this batch takes every other active
     transaction with a leg there down with it. *)
  List.iter (fun s -> sweep_crashed t s) crashed_now;
  (* Commit-count checkpoint scheduling, once the batch has settled. *)
  List.iter
    (fun (g, s, _txn) ->
      if Gtxn.status g = Gtxn.Committed then bump_checkpoint t s)
    singles;
  List.iter
    (fun (g, legs, _fate) ->
      if Gtxn.status g = Gtxn.Committed then
        List.iter (fun (s, _) -> bump_checkpoint t s) legs)
    multis;
  (* Only multi-shard transactions pass through the prepared state. *)
  if multis <> [] then refresh_in_doubt t

let commit_batch ?crash_before_sync t gs =
  commit_wave ?crash_before_sync t gs

let commit ?fault ?votes_no t g =
  match (fault, votes_no) with
  | None, None -> commit_wave t [ g ]
  | _ ->
    commit_wave
      ~faulted:
        ( Option.value ~default:Tpc.no_fault fault,
          Option.value ~default:[] votes_no )
      t [ g ]
