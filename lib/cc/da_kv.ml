open Weihl_event
module Map_adt = Weihl_adt.Kv_map

let key op =
  match Operation.args op with Value.Int k :: _ -> Some k | _ -> None

let put_value op =
  match Operation.args op with
  | [ Value.Int _; v ] -> Some v
  | _ -> None

(* May [q] invalidate the granted pair (p, rp) when serialized on the
   other side of it? *)
let one_way (p, rp) (q, _rq) =
  match (Operation.name p, Operation.name q) with
  | "get", ("put" | "remove") -> (
    match (key p, key q) with
    | Some k, Some k' when k <> k' -> true
    | _ -> (
      match Operation.name q with
      | "put" ->
        (* put(k,v) leaves a get(k)->v answer intact. *)
        Option.fold ~none:false ~some:(Value.equal rp) (put_value q)
      | _ ->
        (* remove(k) leaves a get(k)->none answer intact. *)
        Value.equal rp Map_adt.none_result))
  | "get", ("get" | "size") | "size", ("get" | "size") -> true
  | "size", ("put" | "remove") -> false
  | ("put" | "remove"), ("put" | "remove") -> (
    match (key p, key q) with
    | Some k, Some k' when k <> k' -> true
    | _ ->
      (* Same key: only identical operations commute. *)
      Operation.equal p q)
  | ("put" | "remove"), ("get" | "size") -> true
  | _ -> false

let compatible a b = one_way a b && one_way b a

let make log id =
  Derived_locking.make log id Map_adt.spec ~conflict:(fun a b ->
      not (compatible a b))
