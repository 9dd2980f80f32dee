open Weihl_event

let bump n = Operation.make "bump" [ Value.Int n ]
let read = Operation.make "read" []

module Spec = struct
  type state = int

  let type_name = "blind_counter"
  let initial = 0

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "bump", [ Value.Int n ] -> [ (s + n, Value.ok) ]
    | "read", [] -> [ (s, Value.Int s) ]
    | _ -> []

  let equal_state = Int.equal
  let pp_state = Fmt.int
  let rebuild s = if s = 0 then [] else [ bump s ]
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

let commutes p q =
  match (Operation.name p, Operation.name q) with
  | "bump", "bump" -> true (* addition commutes *)
  | "read", "read" -> true
  | _ -> false

let classify op =
  match Operation.name op with "read" -> Adt_sig.Read | _ -> Adt_sig.Write
