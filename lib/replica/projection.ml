open Weihl_event
module Cc = Weihl_cc

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
