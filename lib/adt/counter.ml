open Weihl_event

let increment = Operation.make "increment" []

module Spec = struct
  type state = int

  let type_name = "counter"
  let initial = 0

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "increment", [] -> [ (s + 1, Value.Int (s + 1)) ]
    | _ -> []

  let equal_state = Int.equal
  let pp_state = Fmt.int
  let rebuild s = List.init s (fun _ -> increment)
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* increment returns its serial position, so no two increments
   commute. *)
let commutes _ _ = false
let classify _ = Adt_sig.Write
