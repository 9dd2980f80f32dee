open Weihl_event
module Cc = Weihl_cc
module Msim = Weihl_dist.Msim
module Group = Weihl_shard.Group
module Seq_spec = Weihl_spec.Seq_spec
module Sm = Weihl_obs.Shard_metrics
module St = Weihl_obs.Shard_trace

type stale_policy = [ `Bounce | `Wait of int ]

(* The wire protocol of the shipping channel.  Node 0 is the primary
   feed; node [r + 1] is replica [r].  Segments carry the epoch of the
   primary incarnation that cut them: a promotion bumps the epoch, so
   segments from a fenced incarnation are refused on arrival.  [upto],
   the position after a segment's last record, rides beside its text:
   a text cut just after a newline, or with a damaged header (which
   carries no CRC), can read as another intact segment, so the base
   and record count the replica reads off it are checked against
   [upto]. *)
type msg =
  | Segment of {
      shard : int;
      epoch : int;
      watermark : int;
      upto : int;
      text : string;
    }
  | Ack of { replica : int; shard : int; epoch : int; pos : int }
  | Resync of { replica : int; shard : int; epoch : int; from_pos : int }

(* A run of applied record lines: [text] from byte [off] on.  An
   exactly spliced segment is kept as the very string the pump cut —
   shared by every replica it was sent to — past its header line. *)
type lines = { text : string; off : int }

(* Per-replica, per-shard apply state.  [log_rev] is the replica's
   durable local log, the record lines it applied (survives a replica
   crash), and [fold] the committed state folded from its first
   [folded_pos] records; the newest [unfolded] runs of the log hold the
   records applied since, for the next read to catch the fold up on.
   [hwm] is the last mark a segment carried or a read certified; it
   does not survive a crash, and a restarted replica serves again once
   the primary certifies its mark anew. *)
type rstate = {
  mutable pos : int;  (** next expected absolute record position *)
  mutable log_rev : lines list;  (** applied record lines, newest first *)
  mutable fold : Cc.Fold.t;
  mutable folded_pos : int;  (** records the fold has been fed *)
  mutable unfolded : int;  (** newest runs of [log_rev] past [folded_pos] *)
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
  spec : Object_id.t -> Seq_spec.t option;
      (** each registered object's specification; [None] if unknown *)
  replicas : int;
  stale : stale_policy;
  mutable sim : msg Msim.t;
  states : rstate array array;  (** [replica].[shard] *)
  acked : int array array;  (** [replica].[shard] feed-side resume point *)
  epochs : int array;  (** per shard *)
  down : bool array;  (** per replica *)
  lag : int array;  (** per replica: pump rounds left to skip *)
  crash_texts : string option array;  (** durable WAL held for failover *)
  mutable damage_pending : int;
  mutable rr : int;
  mutable n_promotions : int;
  n_resyncs_at : int array;  (** per replica: resync requests sent *)
  mutable n_fenced : int;
  mutable n_damaged : int;
  mutable n_shipped : int;
  mutable n_stale_bounced : int;
  n_reads_at : int array;
  mutable n_reads_primary : int;
  mutable n_reads_waited : int;
  mutable n_entries_consulted : int;
  metrics : Sm.t option;
}

let group t = t.group
let replica_count t = t.replicas

let fresh_state spec epoch =
  {
    pos = 0;
    log_rev = [];
    fold = Cc.Fold.create ~ts_ordered:true ~spec;
    folded_pos = 0;
    unfolded = 0;
    hwm = -1;
    repoch = epoch;
    applied_segments = 0;
  }

let state t ~replica ~shard =
  if replica < 0 || replica >= t.replicas then
    invalid_arg "Tier: replica out of range";
  t.states.(replica).(shard)

(* ------------------------------------------------------------------ *)
(* The feed side *)

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

(* Records per shipped segment at most. *)
let segment_records = 64

(* A segment as cut, before it is sent: the watermark it carries, the
   position after its last record, and its text. *)
type cut = { mark : int; upto : int; text : string }

(* Cut shard [s]'s segment resuming at position [from].  The watermark,
   {!Group.serving_mark}, rides only on segments that reach the feed's
   current end — a capped mid-stream slice proves nothing about commits
   beyond its last record. *)
let cut t s ~from =
  let count = Group.record_count t.group s in
  let from = min from count in
  let slice = Group.records_from t.group s ~pos:from ~max:segment_records in
  let upto = from + List.length slice in
  {
    mark = (if upto = count then Group.serving_mark t.group s else -1);
    upto;
    text = Cc.Wal.segment ~label:(Group.shard_label s) ~base:from slice;
  }

(* Send a cut to replica [i].  Damage injection corrupts only the copy
   sent. *)
let send_cut t i s { mark; upto; text } =
  let text =
    if t.damage_pending > 0 then begin
      t.damage_pending <- t.damage_pending - 1;
      corrupt_text text
    end
    else text
  in
  t.n_shipped <- t.n_shipped + 1;
  Msim.send t.sim ~src:0 ~dst:(i + 1)
    (Segment { shard = s; epoch = t.epochs.(s); watermark = mark; upto; text })

(* Cut and send one segment to replica [i] for shard [s], resuming from
   the feed's acked position.  Unacked data is simply re-sent each
   round; the replica trims overlaps, so lost segments and lost acks
   both heal without extra bookkeeping. *)
let send_to t i s =
  if not (Group.shard_crashed t.group s) then
    send_cut t i s (cut t s ~from:t.acked.(i).(s))

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

let trace_apply t ~replica ~shard ~records ~bytes ~hwm =
  match Group.tracer t.group with
  | None -> ()
  | Some st ->
    St.span (St.coord st) ~name:"replica.apply" ~cat:"replication"
      ~ts:(St.now st) ~dur:0. ~tid:(100 + replica)
      ~args:
        [
          ("shard", St.num shard);
          ("records", St.num records);
          ("bytes", St.num bytes);
          ("hwm", St.num hwm);
        ]

(* The byte just past the [n]th newline at or after [from]. *)
let skip_lines text ~from n =
  let rec go i n =
    if n = 0 then i else go (String.index_from text i '\n' + 1) (n - 1)
  in
  go from n

(* Append [n > 0] records, whose lines are [lines], to the replica's
   log.  The fold is not fed here: a replica nobody reads pays nothing
   for it, and a read catches it up ([catch_up]). *)
let apply st lines n =
  st.log_rev <- lines :: st.log_rev;
  st.unfolded <- st.unfolded + 1;
  st.pos <- st.pos + n

let request_resync t i s st =
  t.n_resyncs_at.(i) <- t.n_resyncs_at.(i) + 1;
  (match t.metrics with None -> () | Some m -> Sm.replica_resync m);
  Msim.send t.sim ~src:(i + 1) ~dst:0
    (Resync { replica = i; shard = s; epoch = st.repoch; from_pos = st.pos })

let damaged t i s st =
  t.n_damaged <- t.n_damaged + 1;
  request_resync t i s st

let ack t i s st =
  Msim.send t.sim ~src:(i + 1) ~dst:0
    (Ack { replica = i; shard = s; epoch = st.repoch; pos = st.pos })

let on_replica t i = function
  | Segment { shard = s; epoch; watermark; upto; text } ->
    let st = t.states.(i).(s) in
    if epoch < st.repoch then t.n_fenced <- t.n_fenced + 1
    else begin
      (* A segment from a newer incarnation: the old stream is gone —
         adopt the epoch and resync from zero, log and fold with it. *)
      if epoch > st.repoch then t.states.(i).(s) <- fresh_state t.spec epoch;
      let st = t.states.(i).(s) in
      let advance_hwm () =
        (* A segment with a watermark ends at the feed's end at cut
           time: once the replica holds that prefix, the watermark's
           certificate transfers to it, and every commit at or below it
           can be folded. *)
        if watermark >= 0 && upto <= st.pos && watermark > st.hwm then
          st.hwm <- watermark
      in
      let applied n =
        st.applied_segments <- st.applied_segments + 1;
        advance_hwm ();
        (match t.metrics with
        | None -> ()
        | Some m -> Sm.replica_applied m ~replica:i ~records:n);
        trace_apply t ~replica:i ~shard:s ~records:n
          ~bytes:(String.length text) ~hwm:st.hwm;
        ack t i s st
      in
      (* One scan checks the header, the base and every line, and
         decodes nothing: the fold parses each record when a read first
         needs it ([catch_up]).  The base and count it reads must land
         on [upto]: a text cut just after a newline reads as a shorter
         segment, and one whose header newline flipped as an empty one
         at base 0.  An intact segment splices exactly, is a
         pure duplicate, or overlaps the applied prefix and is trimmed;
         anything else — a gap ahead of us, a torn tail, a checksum or
         header failure — is never applied, even in part: resync from
         the applied position. *)
      match Cc.Wal.check_segment text with
      | Ok (b, n) when b + n <> upto -> damaged t i s st
      | Ok (b, n) when b = st.pos ->
        if n > 0 then apply st { text; off = skip_lines text ~from:0 1 } n;
        applied n
      | Ok (b, _) when b > st.pos -> request_resync t i s st
      | Ok _ when upto <= st.pos ->
        (* Duplicate of an already-applied slice; its watermark is still
           a valid certificate for the prefix it covered. *)
        advance_hwm ();
        ack t i s st
      | Ok (b, n) ->
        (* Keep a copy of the new tail only, not the whole text. *)
        let off = skip_lines text ~from:0 (1 + st.pos - b) in
        apply st
          { text = String.sub text off (String.length text - off); off = 0 }
          (upto - st.pos);
        applied n
      | Error _ -> damaged t i s st
    end
  | Ack _ | Resync _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ?(faults = Msim.no_faults) ?(stale = `Wait 4) ?(seed = 1) ?metrics
    ~replicas ~make_object group =
  if replicas <= 0 then invalid_arg "Tier.create: replicas must be positive";
  if Group.domain_count group > 1 then
    invalid_arg
      "Tier.create: the replica tier requires the sequential (domains = 1) \
       execution mode";
  let shards = Group.shard_count group in
  (* Each object is built once, on first use, for its specification. *)
  let specs = Hashtbl.create 64 in
  let spec x =
    let name = Object_id.name x in
    match Hashtbl.find_opt specs name with
    | Some _ as found -> found
    | None ->
      if not (Group.has_object group x) then None
      else begin
        let o = make_object (Cc.Event_log.create ()) x in
        Hashtbl.replace specs name o.Cc.Atomic_object.spec;
        Some o.Cc.Atomic_object.spec
      end
  in
  let handler = ref (fun _ ~node:_ _ -> ()) in
  let sim =
    Msim.create ~faults ~seed:((seed * 53) + 17) ~nodes:(replicas + 1)
      ~handler:(fun sim ~node msg -> !handler sim ~node msg)
      ()
  in
  let t =
    {
      group;
      spec;
      replicas;
      stale;
      sim;
      states =
        Array.init replicas (fun _ ->
            Array.init shards (fun _ -> fresh_state spec 0));
      acked = Array.make_matrix replicas shards 0;
      epochs = Array.make shards 0;
      down = Array.make replicas false;
      lag = Array.make replicas 0;
      crash_texts = Array.make shards None;
      damage_pending = 0;
      rr = 0;
      n_promotions = 0;
      n_resyncs_at = Array.make replicas 0;
      n_fenced = 0;
      n_damaged = 0;
      n_shipped = 0;
      n_stale_bounced = 0;
      n_reads_at = Array.make replicas 0;
      n_reads_primary = 0;
      n_reads_waited = 0;
      n_entries_consulted = 0;
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
  else Group.record_count t.group shard

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

(* Nothing moves the feed while a round's segments are sent, so each
   shard is cut once per resume position and every replica resuming
   there gets the same text. *)
let pump t =
  let shards = Group.shard_count t.group in
  let cuts = Array.make shards [] in
  for i = 0 to t.replicas - 1 do
    if t.lag.(i) > 0 then t.lag.(i) <- t.lag.(i) - 1
    else if not t.down.(i) then
      for s = 0 to shards - 1 do
        if not (Group.shard_crashed t.group s) then begin
          let from = t.acked.(i).(s) in
          let c =
            match List.assoc_opt from cuts.(s) with
            | Some c -> c
            | None ->
              let c = cut t s ~from in
              cuts.(s) <- (from, c) :: cuts.(s);
              c
          in
          send_cut t i s c
        end
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
    (3 * !total / segment_records) + 8
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

let send_segment ?(alter = Fun.id) t ~replica ~shard ~from =
  let c = cut t shard ~from in
  send_cut t replica shard { c with text = alter c.text };
  Msim.run ~until:(Msim.now t.sim + 10_000) t.sim

(* ------------------------------------------------------------------ *)
(* Snapshot reads *)

(* The replica's durable log: every applied record line under a header
   at base 0 — a gapless stream from position 0. *)
let log_text st =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Cc.Wal.encode_records []);
  List.iter
    (fun { text; off } -> Buffer.add_substring b text off (String.length text - off))
    (List.rev st.log_rev);
  Buffer.contents b

let log_events st =
  match Cc.Wal.decode (log_text st) with
  | Ok (h, Cc.Wal.Intact) -> History.to_list h
  | Ok (_, Cc.Wal.Torn _) | Error _ ->
    failwith "Tier: a replica's applied log no longer decodes"

let replica_log t ~replica ~shard = log_text (state t ~replica ~shard)
let replica_events t ~replica ~shard = log_events (state t ~replica ~shard)

let touched_shards t steps =
  List.sort_uniq compare (List.map (fun (x, _) -> Group.shard_of t.group x) steps)

(* Answer each step from the frontier of its object in its shard's
   fold: the first permissible outcome, which is what [Hybrid] and
   [Multiversion] return for a read-only invocation of a read-only
   operation.  A step whose outcome would change the state has no place
   in a read and is refused; one that leaves it as it is — whatever its
   operation — is answered. *)
let answer t fold_of steps =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (x, op) :: more -> (
      t.n_entries_consulted <- t.n_entries_consulted + 1;
      match Cc.Fold.frontier (fold_of (Group.shard_of t.group x)) x with
      | None -> Error (Fmt.str "unknown object %a" Object_id.pp x)
      | Some f -> (
        match Seq_spec.outcomes f op with
        | [] ->
          Error
            (Fmt.str "read refused: %a has no permissible outcome at %a"
               Operation.pp op Object_id.pp x)
        | (v, _) :: _ ->
          if Seq_spec.advance_changes f op v = Some true then
            Error
              (Fmt.str "read refused: %a would change %a" Operation.pp op
                 Object_id.pp x)
          else go ((x, op, v) :: acc) more))
  in
  go [] steps

(* Feed the fold the records applied since it last caught up — the
   newest [unfolded] runs of the log, oldest first, each parsed where it
   lies — then fold up to the high-water mark.  Each record is parsed
   and fed once, by the first read that needs it. *)
let catch_up t st =
  let feed = function
    | Cc.Wal.Event e ->
      t.n_entries_consulted <- t.n_entries_consulted + 1;
      Cc.Fold.feed st.fold e
    | Cc.Wal.Control _ -> ()
  in
  let rec runs k = function
    | { text; off } :: older when k > 0 -> (
      runs (k - 1) older;
      match Cc.Wal.iter_records ~pos:off ~seq:st.folded_pos feed text with
      | Ok n -> st.folded_pos <- st.folded_pos + n
      | Error _ -> failwith "Tier: a replica's applied log no longer decodes")
    | _ -> ()
  in
  runs st.unfolded st.log_rev;
  st.unfolded <- 0;
  Cc.Fold.upto st.fold st.hwm

(* Served from the replica's folds, caught up first, to the certified
   mark: [ts] itself, since no serving mark runs past the clock [ts] was
   drawn from.  A fold above [ts] would hold commits the read must not
   see. *)
let serve_replica t i ~ts ~shards steps =
  List.iter (fun s -> catch_up t t.states.(i).(s)) shards;
  let fold s = t.states.(i).(s).fold in
  match List.find_map (fun s -> Cc.Fold.broken (fold s)) shards with
  | Some msg -> Error ("replica state broken: " ^ msg)
  | None ->
    if List.exists (fun s -> Cc.Fold.mark (fold s) > ts) shards then
      Error (Fmt.str "replica %d has folded past the read's timestamp %d" i ts)
    else answer t fold steps

(* Served from the primary: the same fold, from scratch, over each
   touched shard's history up to [ts] — O(log), but only bounced reads
   come here.  A live update initiated below [ts] may still commit
   there, and a prepared leg on a touched shard whose decision log says
   commit below [ts] will, once resolution reaches it; until then no
   state as of [ts] is final. *)
let serve_primary t ~ts ~shards steps =
  let decided_below (gid, s) =
    match Group.decision_of t.group gid with
    | Some (`Commit c) when c < ts && List.mem s shards -> Some c
    | _ -> None
  in
  if List.exists (fun s -> Group.shard_crashed t.group s) shards then
    Error "unavailable: primary shard down and no replica can serve"
  else
    match
      ( Group.oldest_live_update t.group,
        List.find_map decided_below (Group.in_doubt t.group) )
    with
    | Some t0, _ when t0 < ts ->
      Error
        (Fmt.str "unavailable: an update initiated at ts %d is still live below \
                  the read's ts %d" t0 ts)
    | _, Some c ->
      Error
        (Fmt.str "unavailable: a commit decided at ts %d is still in doubt \
                  below the read's ts %d" c ts)
    | _ -> (
      let folds =
        List.map
          (fun s ->
            let f = Cc.Fold.create ~ts_ordered:true ~spec:t.spec in
            History.iter
              (fun e ->
                t.n_entries_consulted <- t.n_entries_consulted + 1;
                Cc.Fold.feed f e)
              (Cc.System.history (Group.system t.group s));
            Cc.Fold.upto f ts;
            (s, f))
          shards
      in
      match List.find_map (fun (_, f) -> Cc.Fold.broken f) folds with
      | Some msg -> Error ("replica state broken: " ^ msg)
      | None -> answer t (fun s -> List.assoc s folds) steps)

(* The primary certifies replica [i]'s mark on shard [s] for a read at
   [ts] when the replica is up and holds the live shard's whole durable
   feed on its current epoch, and the shard's serving mark is at least
   [ts].  An empty segment cut now would carry that mark, and nothing
   moves between the read's draw and this check, so the mark rises to
   it with no segment shipped.  This is the one serving predicate. *)
let certify t i ~ts s =
  let st = t.states.(i).(s) in
  (not t.down.(i))
  && (not (Group.shard_crashed t.group s))
  && st.repoch = t.epochs.(s)
  && st.pos = Group.record_count t.group s
  &&
  let mark = Group.serving_mark t.group s in
  if mark >= ts then st.hwm <- max st.hwm mark;
  mark >= ts

(* Draw the read's timestamp, certify or wait or bounce, serve. *)
let route ?replica t steps =
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
    if List.for_all (certify t i ~ts) shards then (true, waited)
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
    (* Not certified (behind the feed, below the mark, or down):
       detected staleness — bounce to the primary, never serve the
       early state. *)
    t.n_stale_bounced <- t.n_stale_bounced + 1;
    (match t.metrics with None -> () | Some m -> Sm.stale_bounce m);
    match serve_primary t ~ts ~shards steps with
    | Ok values ->
      t.n_reads_primary <- t.n_reads_primary + 1;
      Ok { read_ts = ts; values; serve = Served_primary; bounced = true; waited }
    | Error _ as e -> e
  end

let read ?replica t steps =
  (match Group.policy t.group with
  | `None_ ->
    invalid_arg "Tier.read: snapshot reads need a timestamp policy"
  | `Static | `Hybrid -> ());
  match List.find_opt (fun (x, _) -> Option.is_none (t.spec x)) steps with
  | Some (x, _) -> Error (Fmt.str "unknown object %a" Object_id.pp x)
  | None -> route ?replica t steps

(* ------------------------------------------------------------------ *)
(* Failover *)

let crash_primary t s =
  if not (Group.shard_crashed t.group s) then
    t.crash_texts.(s) <- Some (Group.crash_shard t.group s)

(* The zero-lost-commits check behind a promotion, on state: each
   object's state folded from the caught-up replica's log must equal its
   state folded from the recovered primary's history.  Names cannot be
   looked up — a recovery from a checkpoint lists one rebuild
   transaction in place of the transactions it folded — but states can.
   The recovered side also commits the in-doubt legs recovery resolved
   from the decision log; the replica saw those prepared and not
   committed, so they stay out of the comparison.  Both logs cover the
   same records only when the catch-up reached the durable end. *)
let verify_promotion t s ~replica_records ~complete =
  if not complete then
    Some "the promoted replica could not catch up from the durable WAL"
  else
    let events =
      List.filter_map
        (function Cc.Wal.Event e -> Some e | Cc.Wal.Control _ -> None)
        replica_records
    in
    let h = History.of_list events in
    let in_doubt =
      List.filter_map
        (function
          | Cc.Wal.Control (Cc.Wal.Prepared { activity; _ })
            when not
                   (Activity.Set.mem activity (History.committed h)
                   || Activity.Set.mem activity (History.aborted h)) ->
            Some (Activity.name activity)
          | _ -> None)
        replica_records
    in
    let ts_ordered = Group.policy t.group <> `None_ in
    let recovered =
      History.to_list (Cc.System.history (Group.system t.group s))
      |> List.filter (fun e ->
             not (List.mem (Activity.name (Event.activity e)) in_doubt))
    in
    Option.map
      (fun msg -> "state lost across promotion: " ^ msg)
      (Cc.Fold.diff
         (Cc.Fold.of_events ~ts_ordered ~spec:t.spec events)
         (Cc.Fold.of_events ~ts_ordered ~spec:t.spec recovered))

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
    let caught_up, complete =
      match Cc.Wal.records_from ~pos:st.pos text with
      | Ok records ->
        let n = List.length records in
        if n > 0 then begin
          (* The tail's lines, past the header and the records below
             the replica's position; a torn tail's lines stay out. *)
          let off = skip_lines text ~from:0 (1 + st.pos - Cc.Wal.base text) in
          let stop = skip_lines text ~from:off n in
          apply st { text = String.sub text off (stop - off); off = 0 } n
        end;
        (n, true)
      | Error _ -> (0, false)
    in
    let replica_records =
      match Cc.Wal.decode_records (log_text st) with
      | Ok (records, Cc.Wal.Intact) -> records
      | Ok (_, Cc.Wal.Torn _) | Error _ ->
        failwith "Tier: a replica's applied log no longer decodes"
    in
    match Group.recover_shard t.group s text with
    | Error f -> Error (Fmt.str "fail_over: %a" Cc.Recovery.pp_failure f)
    | Ok _ ->
      let verified = verify_promotion t s ~replica_records ~complete in
      (* Re-point the feed: the new incarnation's stream starts at
         record zero on the new epoch, and every replica — promoted
         one included — resyncs onto it. *)
      for i = 0 to t.replicas - 1 do
        t.states.(i).(s) <- fresh_state t.spec new_epoch;
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
let resyncs t = Array.fold_left ( + ) 0 t.n_resyncs_at
let fenced_segments t = t.n_fenced
let damaged_segments t = t.n_damaged
let segments_shipped t = t.n_shipped
let stale_bounced t = t.n_stale_bounced
let reads_at t ~replica = t.n_reads_at.(replica)
let reads_primary t = t.n_reads_primary
let reads_waited t = t.n_reads_waited
let entries_consulted t = t.n_entries_consulted
let channel_dropped t = Msim.messages_dropped t.sim
let channel_duplicated t = Msim.messages_duplicated t.sim
let channel_reordered t = Msim.messages_reordered t.sim

let render t =
  let buf = Buffer.create 512 in
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
         t.n_reads_at.(i) t.n_resyncs_at.(i))
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
       (resyncs t) t.n_damaged t.n_fenced
       (Msim.messages_delivered t.sim)
       (Msim.messages_dropped t.sim)
       (Msim.messages_duplicated t.sim)
       (Msim.messages_reordered t.sim)
       (Msim.now t.sim) t.n_promotions);
  Buffer.contents buf
