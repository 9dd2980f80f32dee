open Weihl_event

let check_amount n =
  if n < 0 then invalid_arg "Bank_account: negative amount"

let deposit n =
  check_amount n;
  Operation.make "deposit" [ Value.Int n ]

let withdraw n =
  check_amount n;
  Operation.make "withdraw" [ Value.Int n ]

let balance = Operation.make "balance" []

module Spec = struct
  type state = int (* current balance, >= 0 *)

  let type_name = "bank_account"
  let initial = 0

  let step s op =
    match (Operation.name op, Operation.args op) with
    | "deposit", [ Value.Int n ] when n >= 0 -> [ (s + n, Value.ok) ]
    | "withdraw", [ Value.Int n ] when n >= 0 ->
      if s >= n then [ (s - n, Value.ok) ]
      else [ (s, Value.insufficient_funds) ]
    | "balance", [] -> [ (s, Value.Int s) ]
    | _ -> []

  let equal_state = Int.equal
  let pp_state = Fmt.int
  let rebuild s = if s = 0 then [] else [ deposit s ]
end

let spec : Weihl_spec.Seq_spec.t = (module Spec)

(* Section 5.1: two deposits commute (addition is commutative); two
   withdraws do not (a balance covering either but not both makes the
   results order-dependent); deposit and withdraw do not (the deposit
   may be what lets the withdrawal succeed); balance is disturbed by
   any update. *)
let commutes p q =
  match (Operation.name p, Operation.name q) with
  | "deposit", "deposit" -> true
  | "balance", "balance" -> true
  | _ -> false

let classify op =
  match Operation.name op with
  | "balance" -> Adt_sig.Read
  | _ -> Adt_sig.Write
