open Weihl_event

let enq i = Operation.make "enq" [ Value.Int i ]
let deq = Operation.make "deq" []
let empty_result = Value.Sym "empty"

module Spec = struct
  type state = int list (* multiset, kept sorted *)

  let type_name = "semiqueue"
  let initial = []

  let remove_one i s =
    let rec go = function
      | [] -> []
      | j :: rest -> if j = i then rest else j :: go rest
    in
    go s

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "enq", [ Value.Int i ] -> [ (List.sort Int.compare (i :: s), Value.ok) ]
    | "deq", [] -> (
      match s with
      | [] -> [ ([], empty_result) ]
      | _ ->
        (* Any element may be answered: one outcome per distinct
           element. *)
        List.sort_uniq Int.compare s
        |> List.map (fun i -> (remove_one i s, Value.Int i)))
    | _ -> []

  let equal_state = List.equal Int.equal
  let pp_state ppf s = Fmt.pf ppf "{|%a|}" Fmt.(list ~sep:comma int) s
  let rebuild s = List.map enq s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* Enqueues commute with each other (multiset insertion is orderless);
   dequeues are treated conservatively by the state-independent
   table. *)
let commutes p q =
  match (Operation.name p, Operation.name q) with
  | "enq", "enq" -> true
  | _ -> false

let classify _ = Adt_sig.Write
