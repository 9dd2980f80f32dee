open Weihl_event

let add i = Operation.make "add" [ Value.Int i ]
let extract_min = Operation.make "extract_min" []
let find_min = Operation.make "find_min" []
let empty_result = Value.Sym "empty"

module Spec = struct
  type state = int list (* sorted ascending; a multiset *)

  let type_name = "priority_queue"
  let initial = []

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "add", [ Value.Int i ] -> [ (List.sort Int.compare (i :: s), Value.ok) ]
    | "extract_min", [] -> (
      match s with
      | [] -> [ ([], empty_result) ]
      | m :: rest -> [ (rest, Value.Int m) ])
    | "find_min", [] -> (
      match s with
      | [] -> [ ([], empty_result) ]
      | m :: _ -> [ (s, Value.Int m) ])
    | _ -> []

  let equal_state = List.equal Int.equal
  let pp_state ppf s = Fmt.pf ppf "{min|%a}" Fmt.(list ~sep:comma int) s
  let rebuild s = List.map add s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* adds commute (multiset insertion); observations conflict with adds
   of possibly-smaller elements only in a state-dependent way, so the
   state-independent table is conservative there. *)
let commutes p q =
  match (Operation.name p, Operation.name q) with
  | "add", "add" -> true
  | "find_min", "find_min" -> true
  | _ -> false

let classify op =
  match Operation.name op with
  | "find_min" -> Adt_sig.Read
  | _ -> Adt_sig.Write
