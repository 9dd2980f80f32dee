open Weihl_event
module Cc = Weihl_cc

type status = Active | In_doubt | Committed | Aborted

type trace_ctx = { trace_id : int; parent_span : int }

type t = {
  gid : int;
  activity : Activity.t;
  init_ts : Timestamp.t option;
  mutable status : status;
  mutable legs : (int * Cc.Txn.t) list; (* shard -> local leg, oldest first *)
  mutable commit_ts : Timestamp.t option;
  mutable waiting : (Object_id.t * Operation.t) list;
  mutable trace_ctx : trace_ctx option;
  mutable mark : int; (* colour stamp for graph walks *)
}

let make ?init_ts ~gid activity =
  {
    gid;
    activity;
    init_ts;
    status = Active;
    legs = [];
    commit_ts = None;
    waiting = [];
    trace_ctx = None;
    mark = 0;
  }

let trace_ctx t = t.trace_ctx
let set_trace_ctx t ctx = t.trace_ctx <- Some ctx

let gid t = t.gid
let activity t = t.activity
let is_read_only t = Activity.is_read_only t.activity
let init_ts t = t.init_ts
let status t = t.status
let is_active t = t.status = Active
let set_status t s = t.status <- s
let commit_ts t = t.commit_ts
let set_commit_ts t ts = t.commit_ts <- Some ts
let waiting t = t.waiting
let set_waiting t w = t.waiting <- w
let legs t = List.rev t.legs
let shards t = List.rev_map fst t.legs
let leg t s = List.assoc_opt s t.legs

let set_leg t s txn =
  t.legs <- (s, txn) :: List.remove_assoc s t.legs

let remove_leg t s = t.legs <- List.remove_assoc s t.legs

let mark t = t.mark
let set_mark t m = t.mark <- m
let fanout t = List.length t.legs
let equal a b = Int.equal a.gid b.gid
let compare a b = Int.compare a.gid b.gid
let pp ppf t = Fmt.pf ppf "%a#g%d" Activity.pp t.activity t.gid
