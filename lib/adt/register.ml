open Weihl_event

let read = Operation.make "read" []
let write i = Operation.make "write" [ Value.Int i ]

module Spec = struct
  type state = int

  let type_name = "register"
  let initial = 0

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "read", [] -> [ (s, Value.Int s) ]
    | "write", [ Value.Int i ] -> [ (i, Value.ok) ]
    | _ -> []

  let equal_state = Int.equal
  let pp_state = Fmt.int
  let rebuild s = if s = 0 then [] else [ write s ]
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

let commutes p q =
  match
    (Operation.name p, Operation.args p, Operation.name q, Operation.args q)
  with
  | "read", _, "read", _ -> true
  | "write", [ Value.Int i ], "write", [ Value.Int j ] -> i = j
  | _ -> false

let classify op =
  match Operation.name op with "read" -> Adt_sig.Read | _ -> Adt_sig.Write
