open Weihl_event

let append i = Operation.make "append" [ Value.Int i ]
let size = Operation.make "size" []
let read k = Operation.make "read" [ Value.Int k ]
let none_result = Value.Sym "none"

module Spec = struct
  type state = int list (* oldest first *)

  let type_name = "append_log"
  let initial = []

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "append", [ Value.Int i ] -> [ (s @ [ i ], Value.ok) ]
    | "size", [] -> [ (s, Value.Int (List.length s)) ]
    | "read", [ Value.Int k ] -> (
      match List.nth_opt s k with
      | Some v -> [ (s, Value.Int v) ]
      | None -> [ (s, none_result) ])
    | _ -> []

  let equal_state = List.equal Int.equal
  let pp_state ppf s = Fmt.pf ppf "log[%a]" Fmt.(list ~sep:comma int) s
  let rebuild s = List.map append s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

let commutes p q =
  match
    (Operation.name p, Operation.args p, Operation.name q, Operation.args q)
  with
  | "append", [ Value.Int i ], "append", [ Value.Int j ] -> i = j
  | "size", _, "size", _ -> true
  | "read", _, "read", _ -> true
  | "read", _, "size", _ | "size", _, "read", _ -> true
  | _ -> false

let classify op =
  match Operation.name op with
  | "size" | "read" -> Adt_sig.Read
  | _ -> Adt_sig.Write
