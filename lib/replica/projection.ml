open Weihl_event
module Cc = Weihl_cc
module Seq_spec = Weihl_spec.Seq_spec

type txn = {
  activity : Activity.t;
  ts : Timestamp.t option;
  ops : (Object_id.t * Operation.t * Value.t) list;
}

let committed order events =
  let h = History.of_list events in
  Cc.Recovery.committed_in_order order h
  |> List.map (fun (activity, ops) ->
         let ts =
           match order with
           | Cc.Recovery.Commit_order -> None
           | Cc.Recovery.Timestamp_order -> History.timestamp_of h activity
         in
         { activity; ts; ops })

let as_of t txns =
  List.filter
    (fun txn ->
      match txn.ts with Some ts -> Timestamp.to_int ts <= t | None -> false)
    txns

(* The snapshot sub-history: every event of a kept committed update
   transaction, in stream order.  Replaying it with [Recovery.replay]
   reinstates the logged initiation and commit timestamps, so a
   timestamped read executed on top sits correctly relative to the
   updates it must observe. *)
let updates_history ~keep events =
  let kept =
    committed Cc.Recovery.Timestamp_order events
    |> List.filter (fun txn ->
           (not (Activity.is_read_only txn.activity)) && keep txn)
    |> List.fold_left
         (fun acc txn -> Activity.Set.add txn.activity acc)
         Activity.Set.empty
  in
  History.of_list
    (List.filter (fun e -> Activity.Set.mem (Event.activity e) kept) events)

let equal_txn a b =
  Activity.equal a.activity b.activity
  && Option.equal (fun x y -> Timestamp.compare x y = 0) a.ts b.ts
  && List.length a.ops = List.length b.ops
  && List.for_all2
       (fun (x, op, v) (x', op', v') ->
         Object_id.equal x x' && Operation.equal op op' && Value.equal v v')
       a.ops b.ops

let pp_txn ppf t =
  Fmt.pf ppf "%a%a(%d op(s))" Activity.pp t.activity
    Fmt.(option (any "@" ++ Timestamp.pp ++ any " "))
    t.ts (List.length t.ops)

let diff xs ys =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: _, [] -> Some (Fmt.str "txn %d missing: %a" i pp_txn x)
    | [], y :: _ -> Some (Fmt.str "txn %d extra: %a" i pp_txn y)
    | x :: xs, y :: ys ->
      if equal_txn x y then go (i + 1) xs ys
      else Some (Fmt.str "txn %d differs: %a vs %a" i pp_txn x pp_txn y)
  in
  go 0 xs ys

(* ------------------------------------------------------------------ *)
(* The committed projection, folded as the stream arrives *)

module Fold = struct
  module Names = Hashtbl.Make (String)

  (* An update activity whose commit has not arrived: its completed
     operations (newest first), its latest event — an invocation pairs
     with a response that directly follows it — and its first logged
     timestamp (-1 before one). *)
  type pending_txn = {
    mutable ops_rev : (Object_id.t * Operation.t * Value.t) list;
    mutable last : Event.t;
    mutable first_ts : int;
  }

  type t = {
    spec : Object_id.t -> Seq_spec.t option;
    pending : pending_txn Names.t;  (** by activity name *)
    mutable staged : (int * (Object_id.t * Operation.t * Value.t) list) list;
        (** committed above the mark, highest timestamp first *)
    frontiers : Seq_spec.frontier ref Names.t;  (** by object name *)
    mutable mark : int;
    mutable broken : string option;
  }

  let create ~spec =
    {
      spec;
      pending = Names.create 16;
      staged = [];
      frontiers = Names.create 64;
      mark = -1;
      broken = None;
    }

  let mark t = t.mark
  let broken t = t.broken
  let break t msg = if t.broken = None then t.broken <- Some msg

  (* Newest arrivals mostly carry the highest timestamp: insert from the
     front. *)
  let rec insert ((ts, _) as txn) = function
    | ((ts', _) as hd) :: tl when ts' > ts -> hd :: insert txn tl
    | l -> txn :: l

  (* [Recovery.completed_ops] pairs an invocation with the activity's
     next event when that is a response on the same object; the
     transaction's timestamp is its first timestamped event, as
     [History.timestamp_of] reads it. *)
  let feed t e =
    let a = Event.activity e in
    if not (Activity.is_read_only a) then
      let name = Activity.name a in
      match (e, Names.find_opt t.pending name) with
      | (Event.Invoke _ | Event.Respond _ | Event.Initiate _), None ->
        let p = { ops_rev = []; last = e; first_ts = -1 } in
        (match e with
        | Event.Initiate (_, _, ts) -> p.first_ts <- Timestamp.to_int ts
        | _ -> ());
        Names.replace t.pending name p
      | Event.Respond (_, x, v), Some p ->
        (match p.last with
        | Event.Invoke (_, x', op) when Object_id.equal x x' ->
          p.ops_rev <- (x, op, v) :: p.ops_rev
        | _ -> ());
        p.last <- e
      | Event.Initiate (_, _, ts), Some p ->
        if p.first_ts < 0 then p.first_ts <- Timestamp.to_int ts;
        p.last <- e
      | Event.Invoke _, Some p -> p.last <- e
      | Event.Abort _, Some _ -> Names.remove t.pending name
      | Event.Commit (_, _, cts), Some p ->
        (* The first commit stages the transaction; the commits at its
           other objects find nothing pending. *)
        Names.remove t.pending name;
        let ts =
          if p.first_ts >= 0 then p.first_ts
          else match cts with Some ts -> Timestamp.to_int ts | None -> -1
        in
        if ts >= 0 then
          if ts <= t.mark then
            break t
              (Fmt.str
                 "replica state broken: %s committed at ts %d, at or below \
                  the folded mark %d"
                 name ts t.mark)
          else t.staged <- insert (ts, List.rev p.ops_rev) t.staged
      | (Event.Abort _ | Event.Commit _), None -> ()

  (* The object's frontier cell, made at its specification's start on
     first use; [None] for an unknown object. *)
  let cell t x =
    let name = Object_id.name x in
    match Names.find_opt t.frontiers name with
    | Some _ as found -> found
    | None ->
      Option.map
        (fun spec ->
          let r = ref (Seq_spec.start spec) in
          Names.replace t.frontiers name r;
          r)
        (t.spec x)

  let frontier t x = Option.map ( ! ) (cell t x)

  let fold_op t (x, op, v) =
    match cell t x with
    | None ->
      break t (Fmt.str "replica state broken: unknown object %a" Object_id.pp x)
    | Some r -> (
      match Seq_spec.advance !r op v with
      | Some f -> r := f
      | None ->
        break t
          (Fmt.str
             "replica state broken: the log says %a answered %a at %a, but \
              the specification permits no such outcome"
             Operation.pp op Value.pp v Object_id.pp x))

  (* The staged transactions at or below [h] sit at the tail, highest
     first: fold them lowest first. *)
  let upto t h =
    if h > t.mark then begin
      let rec split = function
        | ((ts, _) as hd) :: tl when ts > h ->
          let above, ready = split tl in
          (hd :: above, ready)
        | ready -> ([], ready)
      in
      let above, ready = split t.staged in
      t.staged <- above;
      if t.broken = None then
        List.iter (fun (_, ops) -> List.iter (fold_op t) ops) (List.rev ready);
      t.mark <- h
    end
end
