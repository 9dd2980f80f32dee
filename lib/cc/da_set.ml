open Weihl_event
module Set_adt = Weihl_adt.Intset

let element op =
  match Operation.args op with [ Value.Int i ] -> Some i | _ -> None

(* Compatibility of two granted (operation, result) pairs held by
   distinct active transactions: may they serialize in either order
   with both results unchanged?  The relation is symmetric; [one_way]
   checks whether [q] (held or incoming) can invalidate [p]. *)
let one_way (p, rp) (q, _rq) =
  match (Operation.name p, Operation.name q) with
  | "member", ("insert" | "delete") -> (
    match (element p, element q, rp) with
    | Some i, Some j, _ when i <> j -> true
    | _, _, Value.Bool true -> Operation.name q = "insert"
    | _, _, Value.Bool false -> Operation.name q = "delete"
    | _ -> false)
  | "member", ("member" | "size") -> true
  | "size", ("member" | "size") -> true
  | "size", ("insert" | "delete") -> false
  | "insert", "insert" | "delete", "delete" -> true
  | ("insert" | "delete"), ("insert" | "delete") -> (
    match (element p, element q) with
    | Some i, Some j -> i <> j
    | _ -> false)
  | ("insert" | "delete"), ("member" | "size") -> true
  | _ -> false

let compatible a b = one_way a b && one_way b a

let make log id =
  Derived_locking.make log id Set_adt.spec ~conflict:(fun a b ->
      not (compatible a b))
