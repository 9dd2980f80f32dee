open Weihl_event

let put k v = Operation.make "put" [ Value.Int k; Value.Int v ]
let get k = Operation.make "get" [ Value.Int k ]
let remove k = Operation.make "remove" [ Value.Int k ]
let size = Operation.make "size" []
let none_result = Value.Sym "none"

module Spec = struct
  type state = (int * int) list (* sorted by key, duplicate-free *)

  let type_name = "kv_map"
  let initial = []

  let bind k v s =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      ((k, v) :: List.remove_assoc k s)

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "put", [ Value.Int k; Value.Int v ] -> [ (bind k v s, Value.ok) ]
    | "get", [ Value.Int k ] -> (
      match List.assoc_opt k s with
      | Some v -> [ (s, Value.Int v) ]
      | None -> [ (s, none_result) ])
    | "remove", [ Value.Int k ] -> [ (List.remove_assoc k s, Value.ok) ]
    | "size", [] -> [ (s, Value.Int (List.length s)) ]
    | _ -> []

  let equal_state = List.equal (fun (k, v) (k', v') -> k = k' && v = v')

  let pp_state ppf s =
    Fmt.pf ppf "{%a}"
      Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
      s
  let rebuild s = List.map (fun (k, v) -> put k v) s
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

let key op =
  match Operation.args op with
  | Value.Int k :: _ -> Some k
  | _ -> None

(* put(k,v) commutes with put(k,v) (idempotent) and with any operation
   on a different key except size; reads commute with reads. *)
let commutes p q =
  match (Operation.name p, Operation.name q) with
  | "get", "get" | "get", "size" | "size", "get" | "size", "size" -> true
  | ("put" | "remove" | "get"), ("put" | "remove" | "get") -> (
    match (key p, key q) with
    | Some k, Some k' ->
      k <> k'
      || (Operation.equal p q && Operation.name p <> "get")
      || (Operation.name p = "get" && Operation.name q = "get")
    | _ -> false)
  | ("size", ("put" | "remove")) | (("put" | "remove"), "size") -> false
  | _ -> false

let classify op =
  match Operation.name op with
  | "get" | "size" -> Adt_sig.Read
  | _ -> Adt_sig.Write
