(** A dynamic-atomic key/value map with result-aware, per-key conflict
    detection — {!Da_set} generalized to bindings.

    - operations on distinct keys never conflict;
    - identical [put]s (same key, same value) and identical [remove]s
      are idempotent and never conflict;
    - a [get(k)] that answered [v] is compatible with a concurrent
      [put(k,v)] of the {e same} value (either order leaves the answer
      [v]) and with a concurrent [remove(k)] when it answered [none];
    - [size] conflicts with every update (conservatively).

    The object is {!Derived_locking} over this relation, so recovery is
    by intentions lists; every history the object generates is dynamic
    atomic. *)

open Weihl_event

val make : Event_log.t -> Object_id.t -> Atomic_object.t
