open Weihl_event
module Cc = Weihl_cc
module Msim = Weihl_dist.Msim
module Group = Weihl_shard.Group
module Sm = Weihl_obs.Shard_metrics
module St = Weihl_obs.Shard_trace

type stale_policy = [ `Bounce | `Wait of int ]

(* The wire protocol of the shipping channel.  Node 0 is the primary
   feed; node [r + 1] is replica [r].  Segments carry the epoch of the
   primary incarnation that cut them: a promotion bumps the epoch, so
   segments from a fenced incarnation are refused on arrival. *)
type msg =
  | Segment of { shard : int; epoch : int; watermark : int; text : string }
  | Ack of { replica : int; shard : int; epoch : int; pos : int }
  | Resync of { replica : int; shard : int; epoch : int; from_pos : int }

(* Per-replica, per-shard apply state.  [events_rev] is the replica's
   durable local log (survives a replica crash); [hwm] is segment
   metadata and does not (a restarted replica serves nothing until a
   fresh segment re-establishes the mark). *)
type rstate = {
  mutable pos : int;  (** next expected absolute record position *)
  mutable events_rev : Event.t list;  (** applied events, newest first *)
  mutable hwm : int;  (** high-water mark; -1 = no mark this epoch *)
  mutable repoch : int;
  mutable applied_segments : int;
}

type serve = Served_replica of int | Served_primary

type read_outcome = {
  read_ts : int;
  values : (Object_id.t * Operation.t * Value.t) list;
  serve : serve;
  bounced : bool;
  waited : int;
}

type promotion = {
  shard : int;
  promoted : int;
  promoted_pos : int;
  caught_up : int;
  new_epoch : int;
  verified : string option;
}

type t = {
  group : Group.t;
  make_object : Cc.Event_log.t -> Object_id.t -> Cc.Atomic_object.t;
  replicas : int;
  stale : stale_policy;
  segment_records : int;
  mutable sim : msg Msim.t;
  states : rstate array array;  (** [replica].[shard] *)
  acked : int array array;  (** [replica].[shard] feed-side resume point *)
  epochs : int array;  (** per shard *)
  down : bool array;  (** per replica *)
  lag : int array;  (** per replica: pump rounds left to skip *)
  crash_texts : string option array;  (** durable WAL held for failover *)
  mutable damage_pending : int;
  mutable rr : int;
  mutable read_seq : int;
  mutable n_promotions : int;
  mutable n_resyncs : int;
  mutable n_fenced : int;
  mutable n_damaged : int;
  mutable n_shipped : int;
  mutable n_stale_bounced : int;
  n_reads_at : int array;
  mutable n_reads_primary : int;
  mutable n_reads_waited : int;
  metrics : Sm.t option;
}

let group t = t.group
let replica_count t = t.replicas

let fresh_state epoch =
  { pos = 0; events_rev = []; hwm = -1; repoch = epoch; applied_segments = 0 }

let state t ~replica ~shard =
  if replica < 0 || replica >= t.replicas then
    invalid_arg "Tier: replica out of range";
  t.states.(replica).(shard)

(* ------------------------------------------------------------------ *)
(* The feed side *)

(* The watermark certifying a segment that reaches the feed's end: the
   group clock reading — every commit with a timestamp at or below it
   has already appended its records (timestamps are drawn monotonically
   and records append synchronously in the sequential mode) — clamped
   below any in-doubt leg on this shard whose recorded decision is a
   commit.  Such a leg will commit with its agreed timestamp only when
   resolution reaches it; until then a read above that timestamp must
   not be declared servable, or it would miss the late commit. *)
let watermark t s =
  let w = Timestamp.to_int (Cc.Lamport_clock.now (Group.clock t.group)) in
  List.fold_left
    (fun w (gid, s') ->
      if s' = s && gid >= 0 then
        match Group.decision_of t.group gid with
        | Some (`Commit ts) -> min w (ts - 1)
        | Some `Abort | None -> w
      else w)
    w (Group.in_doubt t.group)

(* Flip one byte of a segment in flight — fault injection; the CRC (or
   the header check) must catch it on arrival. *)
let corrupt_text text =
  if String.length text = 0 then text
  else begin
    let b = Bytes.of_string text in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    Bytes.to_string b
  end

(* Cut and send one segment to replica [i] for shard [s], resuming from
   the feed's acked position.  Unacked data is simply re-sent each
   round; the replica trims overlaps, so lost segments and lost acks
   both heal without extra bookkeeping.  The watermark rides only on
   segments that reach the feed's current end — a capped mid-stream
   slice proves nothing about commits beyond its last record. *)
let send_to t i s =
  if not (Group.shard_crashed t.group s) then begin
    let w = watermark t s in
    let records = Group.shard_records t.group s in
    let len = List.length records in
    let from = min t.acked.(i).(s) len in
    let slice = Cc.Wal.take t.segment_records (Cc.Wal.drop_n from records) in
    let reaches_end = from + List.length slice = len in
    let text = Cc.Wal.segment ~label:(Group.shard_label s) ~base:from slice in
    let text =
      if t.damage_pending > 0 then begin
        t.damage_pending <- t.damage_pending - 1;
        corrupt_text text
      end
      else text
    in
    t.n_shipped <- t.n_shipped + 1;
    Msim.send t.sim ~src:0 ~dst:(i + 1)
      (Segment
         {
           shard = s;
           epoch = t.epochs.(s);
           watermark = (if reaches_end then w else -1);
           text;
         })
  end

let on_primary t = function
  | Ack { replica; shard; epoch; pos } ->
    if epoch = t.epochs.(shard) then
      t.acked.(replica).(shard) <- max t.acked.(replica).(shard) pos
  | Resync { replica; shard; epoch; from_pos = _ } ->
    (* The resume point is the acked position, which the replica's
       request can only confirm (its applied position never runs behind
       its own acks).  Answer with an immediate retransmit. *)
    if epoch = t.epochs.(shard) then send_to t replica shard
  | Segment _ -> ()

(* ------------------------------------------------------------------ *)
(* The replica side *)

let trace_apply t ~replica ~shard ~records ~hwm =
  match Group.tracer t.group with
  | None -> ()
  | Some st ->
    St.span (St.coord st) ~name:"replica.apply" ~cat:"replication"
      ~ts:(St.now st) ~dur:0. ~tid:(100 + replica)
      ~args:
        [
          ("shard", St.num shard);
          ("records", St.num records);
          ("hwm", St.num hwm);
        ]

let apply_records st records =
  List.iter
    (function
      | Cc.Wal.Event e -> st.events_rev <- e :: st.events_rev
      | Cc.Wal.Control _ -> ())
    records;
  st.pos <- st.pos + List.length records

let request_resync t i s st =
  t.n_resyncs <- t.n_resyncs + 1;
  (match t.metrics with None -> () | Some m -> Sm.replica_resync m);
  Msim.send t.sim ~src:(i + 1) ~dst:0
    (Resync { replica = i; shard = s; epoch = st.repoch; from_pos = st.pos })

let ack t i s st =
  Msim.send t.sim ~src:(i + 1) ~dst:0
    (Ack { replica = i; shard = s; epoch = st.repoch; pos = st.pos })

let on_replica t i = function
  | Segment { shard = s; epoch; watermark; text } ->
    let st = t.states.(i).(s) in
    if epoch < st.repoch then t.n_fenced <- t.n_fenced + 1
    else begin
      (* A segment from a newer incarnation: the old stream is gone —
         adopt the epoch and resync from zero. *)
      if epoch > st.repoch then begin
        st.repoch <- epoch;
        st.pos <- 0;
        st.events_rev <- [];
        st.hwm <- -1;
        st.applied_segments <- 0
      end;
      let advance_hwm ~upto =
        (* [upto] is the feed's end at cut time: once the replica holds
           that prefix, the watermark's certificate transfers to it. *)
        if watermark >= 0 && upto <= st.pos && watermark > st.hwm then
          st.hwm <- watermark
      in
      let applied n upto =
        st.applied_segments <- st.applied_segments + 1;
        advance_hwm ~upto;
        (match t.metrics with
        | None -> ()
        | Some m -> Sm.replica_applied m ~replica:i ~records:n);
        trace_apply t ~replica:i ~shard:s ~records:n ~hwm:st.hwm;
        ack t i s st
      in
      match Cc.Wal.decode_segment ~expected_base:st.pos text with
      | Ok records ->
        apply_records st records;
        applied (List.length records) st.pos
      | Error _ -> (
        (* Not an exact splice.  An intact segment may still be a pure
           duplicate or an overlap to trim; anything else — a gap ahead
           of us, a torn tail, a checksum or header failure — is never
           applied, even in part: resync from the applied position. *)
        match Cc.Wal.decode_records text with
        | Ok (records, Cc.Wal.Intact) ->
          let b = Cc.Wal.base text in
          let e = b + List.length records in
          if b > st.pos then request_resync t i s st
          else if e <= st.pos then begin
            (* Duplicate of an already-applied slice; its watermark is
               still a valid certificate for the prefix it covered. *)
            advance_hwm ~upto:e;
            ack t i s st
          end
          else begin
            apply_records st (Cc.Wal.drop_n (st.pos - b) records);
            applied (e - b) st.pos
          end
        | Ok (_, Cc.Wal.Torn _) | Error _ ->
          t.n_damaged <- t.n_damaged + 1;
          request_resync t i s st)
    end
  | Ack _ | Resync _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ?(faults = Msim.no_faults) ?(stale = `Wait 4) ?(segment_records = 64)
    ?(seed = 1) ?metrics ~replicas ~make_object group =
  if replicas <= 0 then invalid_arg "Tier.create: replicas must be positive";
  if Group.domain_count group > 1 then
    invalid_arg
      "Tier.create: the replica tier requires the sequential (domains = 1) \
       execution mode";
  let shards = Group.shard_count group in
  let handler = ref (fun _ ~node:_ _ -> ()) in
  let sim =
    Msim.create ~faults ~seed:((seed * 53) + 17) ~nodes:(replicas + 1)
      ~handler:(fun sim ~node msg -> !handler sim ~node msg)
      ()
  in
  let t =
    {
      group;
      make_object;
      replicas;
      stale;
      segment_records;
      sim;
      states =
        Array.init replicas (fun _ -> Array.init shards (fun _ -> fresh_state 0));
      acked = Array.make_matrix replicas shards 0;
      epochs = Array.make shards 0;
      down = Array.make replicas false;
      lag = Array.make replicas 0;
      crash_texts = Array.make shards None;
      damage_pending = 0;
      rr = 0;
      read_seq = 0;
      n_promotions = 0;
      n_resyncs = 0;
      n_fenced = 0;
      n_damaged = 0;
      n_shipped = 0;
      n_stale_bounced = 0;
      n_reads_at = Array.make replicas 0;
      n_reads_primary = 0;
      n_reads_waited = 0;
      metrics;
    }
  in
  (handler :=
     fun _sim ~node msg ->
       if node = 0 then on_primary t msg
       else if not t.down.(node - 1) then on_replica t (node - 1) msg);
  t

(* ------------------------------------------------------------------ *)
(* Pumping *)

let feed_pos t ~shard =
  if Group.shard_crashed t.group shard then 0
  else List.length (Group.shard_records t.group shard)

let applied_pos t ~replica ~shard = (state t ~replica ~shard).pos
let hwm t ~replica ~shard = (state t ~replica ~shard).hwm
let epoch t ~shard = t.epochs.(shard)

let lag_records t ~replica =
  let shards = Group.shard_count t.group in
  let total = ref 0 in
  for s = 0 to shards - 1 do
    if not (Group.shard_crashed t.group s) then
      total := !total + max 0 (feed_pos t ~shard:s - t.states.(replica).(s).pos)
  done;
  !total

let update_lag_metrics t =
  match t.metrics with
  | None -> ()
  | Some m ->
    let shards = Group.shard_count t.group in
    let clock = Timestamp.to_int (Cc.Lamport_clock.now (Group.clock t.group)) in
    for i = 0 to t.replicas - 1 do
      (* Timestamp-domain staleness: how far the group clock has run
         past the replica's oldest live-shard mark.  A markless shard
         counts as the full clock — nothing is servable there. *)
      let vtime = ref 0 in
      for s = 0 to shards - 1 do
        if not (Group.shard_crashed t.group s) then begin
          let h = t.states.(i).(s).hwm in
          let behind = if h < 0 then clock else max 0 (clock - h) in
          if behind > !vtime then vtime := behind
        end
      done;
      Sm.set_replica_lag m ~replica:i
        ~records:(lag_records t ~replica:i)
        ~vtime:!vtime
    done

let pump t =
  let shards = Group.shard_count t.group in
  for i = 0 to t.replicas - 1 do
    if t.lag.(i) > 0 then t.lag.(i) <- t.lag.(i) - 1
    else if not t.down.(i) then
      for s = 0 to shards - 1 do
        send_to t i s
      done
  done;
  Msim.run ~until:(Msim.now t.sim + 10_000) t.sim;
  update_lag_metrics t

let caught_up t =
  let shards = Group.shard_count t.group in
  let ok = ref true in
  for i = 0 to t.replicas - 1 do
    if (not t.down.(i)) && not (Msim.partitioned t.sim 0 (i + 1)) then
      for s = 0 to shards - 1 do
        if
          (not (Group.shard_crashed t.group s))
          && (t.states.(i).(s).pos < feed_pos t ~shard:s
             || t.states.(i).(s).repoch < t.epochs.(s))
        then ok := false
      done
  done;
  !ok

let sync t =
  (* The progress snapshot covers replica state, remaining lag, and
     the channel itself: a round whose only effect was delivering (or
     dropping, or queueing past the pump's horizon — visible as time
     advancing) messages still counts, because the retransmit it set
     up lands next round.  The no-progress exit then only fires for
     replicas nothing can reach at all. *)
  let progress () =
    ( Array.to_list t.lag,
      Msim.now t.sim,
      Msim.messages_delivered t.sim + Msim.messages_dropped t.sim,
      Array.to_list t.states
      |> List.concat_map Array.to_list
      |> List.map (fun st -> (st.pos, st.repoch, st.hwm)) )
  in
  let rec go last n =
    if (not (caught_up t)) && n > 0 then begin
      pump t;
      let now = progress () in
      if now <> last then go now (n - 1)
    end
  in
  (* The round budget is the real terminator: enough rounds to ship
     every live feed from zero at one segment per round, tripled for
     fault-churn (resyncs, reordering), plus the lag budgets. *)
  let feed_rounds =
    let shards = Group.shard_count t.group in
    let total = ref 0 in
    for s = 0 to shards - 1 do
      total := !total + feed_pos t ~shard:s
    done;
    (3 * !total / t.segment_records) + 8
  in
  go (progress ()) (64 + feed_rounds + Array.fold_left ( + ) 0 t.lag)

(* ------------------------------------------------------------------ *)
(* Replica faults *)

let set_lag t ~replica n =
  if replica < 0 || replica >= t.replicas then
    invalid_arg "Tier.set_lag: replica out of range";
  t.lag.(replica) <- max 0 n

let crash_replica t i =
  if i < 0 || i >= t.replicas then
    invalid_arg "Tier.crash_replica: replica out of range";
  t.down.(i) <- true;
  (* The mark is volatile; the applied log is the replica's durable
     store and survives into the restart. *)
  Array.iter (fun st -> st.hwm <- -1) t.states.(i)

let restart_replica t i =
  if i < 0 || i >= t.replicas then
    invalid_arg "Tier.restart_replica: replica out of range";
  t.down.(i) <- false

let replica_down t i = t.down.(i)
let partition_replica t i = Msim.partition t.sim 0 (i + 1)
let heal_replica t i = Msim.heal t.sim 0 (i + 1)

let damage_next_segments t n = t.damage_pending <- t.damage_pending + max 0 n

(* ------------------------------------------------------------------ *)
(* Snapshot reads *)

(* Build a fresh system holding every registered object and replay the
   committed updates with serialization timestamp <= [upto] out of the
   given event streams (one per touched shard, concatenated — the
   per-shard streams are independent, and the replay orders the merged
   transaction list by timestamp).  Logged timestamps are reinstated,
   so the read executed on top observes exactly the as-of state. *)
let snapshot t ~upto events =
  let sys = Cc.System.create ~policy:(Group.policy t.group) () in
  List.iter
    (fun (x, _) -> Cc.System.add_object sys (t.make_object (Cc.System.log sys) x))
    (Group.objects t.group);
  let keep (txn : Projection.txn) =
    match txn.Projection.ts with
    | Some ts -> Timestamp.to_int ts <= upto
    | None -> false
  in
  let h = Projection.updates_history ~keep events in
  match Cc.Recovery.replay Cc.Recovery.Timestamp_order sys h with
  | Ok _ -> Ok sys
  | Error f -> Error (Fmt.str "snapshot replay: %a" Cc.Recovery.pp_failure f)

let exec_read t sys ~ts steps =
  t.read_seq <- t.read_seq + 1;
  let a = Activity.read_only (Fmt.str "tier_read%d" t.read_seq) in
  let txn = Cc.System.begin_txn ~ts:(Timestamp.v ts) sys a in
  let rec go acc = function
    | [] ->
      Cc.System.commit sys txn;
      Ok (List.rev acc)
    | (x, op) :: more -> (
      match Cc.System.invoke sys txn x op with
      | Cc.Atomic_object.Granted v -> go ((x, op, v) :: acc) more
      | Cc.Atomic_object.Wait _ ->
        Cc.System.abort sys txn;
        Error "snapshot read blocked (impossible on an immutable snapshot)"
      | Cc.Atomic_object.Refused why ->
        Cc.System.abort sys txn;
        Error ("snapshot read refused: " ^ why))
  in
  go [] steps

let replica_events t ~replica ~shard =
  List.rev (state t ~replica ~shard).events_rev

let touched_shards t steps =
  List.sort_uniq compare (List.map (fun (x, _) -> Group.shard_of t.group x) steps)

let serve_replica t i ~ts ~shards steps =
  let events =
    List.concat_map (fun s -> List.rev t.states.(i).(s).events_rev) shards
  in
  match snapshot t ~upto:ts events with
  | Error _ as e -> e
  | Ok sys -> exec_read t sys ~ts steps

let serve_primary t ~ts ~shards steps =
  if List.exists (fun s -> Group.shard_crashed t.group s) shards then
    Error "unavailable: primary shard down and no replica can serve"
  else
    let events =
      List.concat_map
        (fun s -> History.to_list (Cc.System.history (Group.system t.group s)))
        shards
    in
    match snapshot t ~upto:ts events with
    | Error _ as e -> e
    | Ok sys -> exec_read t sys ~ts steps

let can_serve t i ~ts ~shards =
  (not t.down.(i)) && List.for_all (fun s -> t.states.(i).(s).hwm >= ts) shards

let read ?replica t steps =
  (match Group.policy t.group with
  | `None_ ->
    invalid_arg "Tier.read: snapshot reads need a timestamp policy"
  | `Static | `Hybrid -> ());
  let ts = Timestamp.to_int (Cc.Lamport_clock.next (Group.clock t.group)) in
  let shards = touched_shards t steps in
  let i =
    match replica with
    | Some i ->
      if i < 0 || i >= t.replicas then invalid_arg "Tier.read: replica out of range";
      i
    | None ->
      t.rr <- (t.rr + 1) mod t.replicas;
      t.rr
  in
  let budget = match t.stale with `Bounce -> 0 | `Wait n -> max 0 n in
  let rec wait waited =
    if can_serve t i ~ts ~shards then (true, waited)
    else if waited >= budget then (false, waited)
    else begin
      pump t;
      wait (waited + 1)
    end
  in
  let servable, waited = wait 0 in
  t.n_reads_waited <- t.n_reads_waited + waited;
  if servable then
    match serve_replica t i ~ts ~shards steps with
    | Ok values ->
      t.n_reads_at.(i) <- t.n_reads_at.(i) + 1;
      (match t.metrics with None -> () | Some m -> Sm.replica_read m ~replica:i);
      Ok { read_ts = ts; values; serve = Served_replica i; bounced = false; waited }
    | Error _ as e -> e
  else begin
    (* Below the mark (or the replica is down): detected staleness —
       bounce to the primary, never serve the early state. *)
    t.n_stale_bounced <- t.n_stale_bounced + 1;
    (match t.metrics with None -> () | Some m -> Sm.stale_bounce m);
    match serve_primary t ~ts ~shards steps with
    | Ok values ->
      t.n_reads_primary <- t.n_reads_primary + 1;
      Ok { read_ts = ts; values; serve = Served_primary; bounced = true; waited }
    | Error _ as e -> e
  end

(* ------------------------------------------------------------------ *)
(* Failover *)

let crash_primary t s =
  if not (Group.shard_crashed t.group s) then
    t.crash_texts.(s) <- Some (Group.crash_shard t.group s)

(* The zero-lost-commits check behind a promotion: every transaction
   the caught-up replica saw commit must exist, with the same
   timestamp, in the recovered primary's history.  (The recovered side
   may hold strictly more: in-doubt legs later resolved to commit.) *)
let verify_promotion t s ~replica_evs =
  let order = Cc.Recovery.order_of_policy (Group.policy t.group) in
  let recovered =
    Projection.committed order
      (History.to_list (Cc.System.history (Group.system t.group s)))
  in
  let have =
    List.map
      (fun (txn : Projection.txn) -> (Activity.name txn.Projection.activity, txn.Projection.ts))
      recovered
  in
  let missing =
    List.filter
      (fun (txn : Projection.txn) ->
        not
          (List.exists
             (fun (n, ts) ->
               String.equal n (Activity.name txn.Projection.activity)
               && Option.equal
                    (fun a b -> Timestamp.compare a b = 0)
                    ts txn.Projection.ts)
             have))
      (Projection.committed order replica_evs)
  in
  match missing with
  | [] -> None
  | txn :: _ ->
    Some
      (Fmt.str "lost committed transaction %a after promotion"
         Projection.pp_txn txn)

let fail_over t s =
  crash_primary t s;
  let text =
    match t.crash_texts.(s) with
    | Some text -> Some text
    | None ->
      (* Crashed by someone else — a faulty 2PC round, say; the durable
         WAL is still readable. *)
      if Group.shard_crashed t.group s then Some (Group.durable_shard t.group s)
      else None
  in
  match text with
  | None -> Error "fail_over: no durable WAL for the crashed primary"
  | Some text -> (
    (* Fence the old incarnation first: anything it still has in
       flight arrives with a stale epoch and is refused. *)
    t.epochs.(s) <- t.epochs.(s) + 1;
    let new_epoch = t.epochs.(s) in
    (* Most-advanced live replica by applied log position. *)
    let promoted = ref 0 and best = ref (-1) in
    for i = 0 to t.replicas - 1 do
      if (not t.down.(i)) && t.states.(i).(s).pos > !best then begin
        best := t.states.(i).(s).pos;
        promoted := i
      end
    done;
    let promoted = !promoted in
    let st = t.states.(promoted).(s) in
    let promoted_pos = st.pos in
    (* Catch the promoted replica up from the durable tail; behind a
       checkpoint-truncated log the prefix is gone and the check below
       simply covers the shorter view. *)
    let caught_up =
      match Cc.Wal.records_from ~pos:st.pos text with
      | Ok records ->
        apply_records st records;
        List.length records
      | Error _ -> 0
    in
    let replica_evs = List.rev st.events_rev in
    match Group.recover_shard t.group s text with
    | Error f -> Error (Fmt.str "fail_over: %a" Cc.Recovery.pp_failure f)
    | Ok _ ->
      let verified = verify_promotion t s ~replica_evs in
      (* Re-point the feed: the new incarnation's stream starts at
         record zero on the new epoch, and every replica — promoted
         one included — resyncs onto it. *)
      for i = 0 to t.replicas - 1 do
        t.states.(i).(s) <- fresh_state new_epoch;
        t.acked.(i).(s) <- 0
      done;
      t.crash_texts.(s) <- None;
      t.n_promotions <- t.n_promotions + 1;
      (match t.metrics with None -> () | Some m -> Sm.promotion m);
      Ok
        {
          shard = s;
          promoted;
          promoted_pos;
          caught_up;
          new_epoch;
          verified;
        })

(* ------------------------------------------------------------------ *)
(* Introspection *)

let promotions t = t.n_promotions
let resyncs t = t.n_resyncs
let fenced_segments t = t.n_fenced
let damaged_segments t = t.n_damaged
let segments_shipped t = t.n_shipped
let stale_bounced t = t.n_stale_bounced
let reads_at t ~replica = t.n_reads_at.(replica)
let reads_primary t = t.n_reads_primary
let reads_waited t = t.n_reads_waited
let channel_now t = Msim.now t.sim
let channel_dropped t = Msim.messages_dropped t.sim
let channel_duplicated t = Msim.messages_duplicated t.sim
let channel_reordered t = Msim.messages_reordered t.sim

let render t =
  let buf = Buffer.create 512 in
  let shards = Group.shard_count t.group in
  Buffer.add_string buf
    "replica  state  applied  lag(rec)  min-hwm  reads  resyncs\n";
  for i = 0 to t.replicas - 1 do
    let applied = Array.fold_left (fun a st -> a + st.pos) 0 t.states.(i) in
    let min_hwm =
      Array.fold_left (fun a st -> min a st.hwm) max_int t.states.(i)
    in
    Buffer.add_string buf
      (Fmt.str "%7d  %5s  %7d  %8d  %7d  %5d  %7d\n" i
         (if t.down.(i) then "down"
          else if Msim.partitioned t.sim 0 (i + 1) then "part"
          else "up")
         applied
         (lag_records t ~replica:i)
         (if min_hwm = max_int then -1 else min_hwm)
         t.n_reads_at.(i) 0)
  done;
  Buffer.add_string buf
    (Fmt.str
       "epochs: %a\n\
        reads: %d replica / %d primary (%d bounced stale, %d waits)\n\
        channel: %d segment(s) shipped, %d resync(s), %d damaged, %d fenced\n\
        msim: %d delivered, %d dropped, %d duplicated, %d reordered, t=%d\n\
        promotions: %d\n"
       Fmt.(array ~sep:(any " ") int)
       t.epochs
       (Array.fold_left ( + ) 0 t.n_reads_at)
       t.n_reads_primary t.n_stale_bounced t.n_reads_waited t.n_shipped
       t.n_resyncs t.n_damaged t.n_fenced
       (Msim.messages_delivered t.sim)
       (Msim.messages_dropped t.sim)
       (Msim.messages_duplicated t.sim)
       (Msim.messages_reordered t.sim)
       (Msim.now t.sim) t.n_promotions);
  ignore shards;
  Buffer.contents buf
