open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec

type t = {
  mutable committed : Seq_spec.frontier;
  buffers : (int, Txn.t * (Operation.t * Value.t) list) Hashtbl.t;
      (* per-txn intentions, newest first *)
}

let create spec =
  { committed = Seq_spec.start spec; buffers = Hashtbl.create 8 }

let buffer t txn =
  match Hashtbl.find_opt t.buffers (Txn.id txn) with
  | Some (_, ops) -> List.rev ops
  | None -> []

let replay frontier ops =
  List.fold_left
    (fun f (op, res) ->
      match f with
      | None -> None
      | Some f -> Seq_spec.advance f op res)
    (Some frontier) ops

let view t txn =
  match replay t.committed (buffer t txn) with
  | Some f -> f
  | None ->
    (* Intentions were validated when recorded, and the committed state
       only changes by installing non-conflicting transactions; a
       failure here is a protocol bug. *)
    invalid_arg "Intentions.view: recorded intentions no longer replay"

let peek t txn op =
  match Seq_spec.outcomes (view t txn) op with
  | [] -> None
  | (res, _) :: _ -> Some res

let execute t txn op =
  match peek t txn op with
  | None -> None
  | Some res ->
    let prev =
      match Hashtbl.find_opt t.buffers (Txn.id txn) with
      | Some (_, ops) -> ops
      | None -> []
    in
    Hashtbl.replace t.buffers (Txn.id txn) (txn, (op, res) :: prev);
    Some res

let record t txn op res =
  match Seq_spec.advance (view t txn) op res with
  | None ->
    invalid_arg
      (Fmt.str "Intentions.record: %a->%a is not permissible from the view"
         Operation.pp op Value.pp res)
  | Some _ ->
    let prev =
      match Hashtbl.find_opt t.buffers (Txn.id txn) with
      | Some (_, ops) -> ops
      | None -> []
    in
    Hashtbl.replace t.buffers (Txn.id txn) (txn, (op, res) :: prev)

let intentions t txn = buffer t txn

let active t =
  Hashtbl.fold
    (fun _ (txn, ops) acc ->
      if Txn.is_live txn then (txn, List.rev ops) :: acc else acc)
    t.buffers []

let commit t txn =
  (match replay t.committed (buffer t txn) with
  | Some f -> t.committed <- f
  | None ->
    invalid_arg "Intentions.commit: recorded intentions no longer replay");
  Hashtbl.remove t.buffers (Txn.id txn)

let abort t txn = Hashtbl.remove t.buffers (Txn.id txn)
