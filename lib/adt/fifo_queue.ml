open Weihl_event

let enqueue i = Operation.make "enqueue" [ Value.Int i ]
let dequeue = Operation.make "dequeue" []
let empty_result = Value.Sym "empty"

module Spec = struct
  type state = int list (* front first *)

  let type_name = "fifo_queue"
  let initial = []

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "enqueue", [ Value.Int i ] -> [ (s @ [ i ], Value.ok) ]
    | "dequeue", [] -> (
      match s with
      | [] -> [ ([], empty_result) ]
      | front :: rest -> [ (rest, Value.Int front) ])
    | _ -> []

  let equal_state = List.equal Int.equal
  let pp_state ppf s = Fmt.pf ppf "<%a<" Fmt.(list ~sep:comma int) s
  let rebuild s = List.map enqueue s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* Section 5.1: enqueue(1) does not commute with enqueue(2) — the
   resulting queue orders differ.  Equal elements do commute.  dequeue
   commutes with nothing (not even itself: the answers swap). *)
let commutes p q =
  match
    (Operation.name p, Operation.args p, Operation.name q, Operation.args q)
  with
  | "enqueue", [ Value.Int i ], "enqueue", [ Value.Int j ] -> i = j
  | _ -> false

let classify _ = Adt_sig.Write
