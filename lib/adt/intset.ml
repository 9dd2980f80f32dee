open Weihl_event

let insert i = Operation.make "insert" [ Value.Int i ]
let delete i = Operation.make "delete" [ Value.Int i ]
let member i = Operation.make "member" [ Value.Int i ]
let size = Operation.make "size" []

module Spec = struct
  type state = int list (* sorted, duplicate-free *)

  let type_name = "intset"
  let initial = []

  let add i s = if List.mem i s then s else List.sort Int.compare (i :: s)
  let remove i s = List.filter (fun j -> j <> i) s

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "insert", [ Value.Int i ] -> [ (add i s, Value.ok) ]
    | "delete", [ Value.Int i ] -> [ (remove i s, Value.ok) ]
    | "member", [ Value.Int i ] -> [ (s, Value.Bool (List.mem i s)) ]
    | "size", [] -> [ (s, Value.Int (List.length s)) ]
    | _ -> []

  let equal_state = List.equal Int.equal
  let pp_state ppf s = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) s
  let rebuild s = List.map insert s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* State-independent commutativity.  insert/insert and delete/delete
   always commute (idempotent updates on a set); insert/delete only on
   distinct elements; member commutes with updates on distinct
   elements; size is disturbed by any update. *)
let key op =
  match Operation.args op with [ Value.Int i ] -> Some i | _ -> None

let commutes p q =
  let open Operation in
  match (name p, name q) with
  | "member", "member" | "member", "size" | "size", "member" | "size", "size"
    ->
    true
  | "insert", "insert" | "delete", "delete" -> true
  | ("insert", "delete" | "delete", "insert")
  | ("member", "insert" | "insert", "member")
  | ("member", "delete" | "delete", "member") -> (
    match (key p, key q) with Some i, Some j -> i <> j | _ -> false)
  | ("size", ("insert" | "delete")) | (("insert" | "delete"), "size") -> false
  | _ -> false

let classify op =
  match Operation.name op with
  | "member" | "size" -> Adt_sig.Read
  | _ -> Adt_sig.Write
