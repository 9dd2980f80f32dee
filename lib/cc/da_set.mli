(** A dynamic-atomic integer set using result-aware, per-element
    conflict detection.

    Conventional commutativity locking serializes [insert(i)] against
    [member(i)] unconditionally.  This object exploits both the element
    argument and the {e result} of each granted operation:

    - operations on distinct elements never conflict;
    - [insert(i)] and [insert(i)] (and [delete]/[delete]) are
      idempotent and never conflict;
    - [member(i)] that answered [true] is compatible with a concurrent
      [insert(i)] — inserting an element cannot falsify an observed
      presence — while [member(i)] that answered [false] conflicts with
      it, and dually for [delete(i)];
    - [size] conflicts with every update (conservatively).

    The object is {!Derived_locking} over this relation, so recovery is
    by intentions lists.  Every history this object generates is
    dynamic atomic. *)

open Weihl_event

val make : Event_log.t -> Object_id.t -> Atomic_object.t
