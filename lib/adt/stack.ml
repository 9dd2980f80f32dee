open Weihl_event

let push i = Operation.make "push" [ Value.Int i ]
let pop = Operation.make "pop" []
let empty_result = Value.Sym "empty"

module Spec = struct
  type state = int list (* top first *)

  let type_name = "stack"
  let initial = []

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "push", [ Value.Int i ] -> [ (i :: s, Value.ok) ]
    | "pop", [] -> (
      match s with
      | [] -> [ ([], empty_result) ]
      | top :: rest -> [ (rest, Value.Int top) ])
    | _ -> []

  let equal_state = List.equal Int.equal
  let pp_state ppf s = Fmt.pf ppf ">%a]" Fmt.(list ~sep:comma int) s
  let rebuild s = List.rev_map push s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* Two pushes of the same value commute (the resulting stacks are
   equal); everything else conflicts. *)
let commutes p q =
  match
    (Operation.name p, Operation.args p, Operation.name q, Operation.args q)
  with
  | "push", [ Value.Int i ], "push", [ Value.Int j ] -> i = j
  | _ -> false

let classify _ = Adt_sig.Write
