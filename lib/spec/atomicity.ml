open Weihl_event

let atomic env h =
  Option.is_some (Serializability.serializable env (History.perm h))

let serialization_witness env h =
  Serializability.serializable env (History.perm h)

let dynamic_atomic env h =
  Serializability.in_every_order_consistent_with env (History.perm h)
    (History.precedes h)

let in_timestamp_order env h =
  match History.timestamp_order h with
  | None -> false
  | Some order -> Serializability.in_order env (History.perm h) order

let static_atomic = in_timestamp_order

let hybrid_atomic = in_timestamp_order

let of_policy = function
  | `None_ -> dynamic_atomic
  | `Static -> static_atomic
  | `Hybrid -> hybrid_atomic
