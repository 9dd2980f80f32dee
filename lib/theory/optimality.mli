(** The optimality proofs of Sections 4.1-4.3, as executable
    constructions.

    The paper proves each local atomicity property optimal by
    contradiction: given a history [h] permitted by some
    more-permissive property but {e not} (say) dynamic atomic, there is
    a total order [T], consistent with [precedes(h)], in which
    [perm(h)] is not serializable.  The proof then builds a counter
    object [y] whose specification accepts exactly the serial sequences
    of increments 1, 2, 3, … — so a history of committed increments is
    serializable {e only} in the order the returned values dictate —
    and splices increments into [h] so that [y] pins the order [T].
    The combined computation is then not atomic, contradicting locality
    of the supposed property.

    [dynamic_refutation] and [static_refutation] perform exactly that
    construction.  Given a history that fails the local property, they
    return the extended environment and the combined computation; the
    caller can verify non-atomicity with {!Weihl_spec.Atomicity.atomic}
    (the test suite does). *)

open Weihl_event

type refutation = {
  counter_object : Object_id.t;
  pinned_order : Activity.t list;
      (** the order [T] the counter forces *)
  computation : History.t;
      (** well-formed; its projection on the original objects is [h],
          its projection on [counter_object] is the serial counter
          history in order [T] *)
  env : Weihl_spec.Spec_env.t;
      (** the original environment extended with the counter *)
}

val dynamic_refutation :
  Weihl_spec.Spec_env.t -> History.t -> refutation option
(** [None] when [h] {e is} dynamic atomic (no refutation exists).
    Otherwise picks a total order consistent with [precedes h] in which
    [perm h] is not serializable and pins it. *)

val static_refutation :
  Weihl_spec.Spec_env.t -> History.t -> refutation option
(** Same construction against the timestamp order: [None] when [h] is
    static atomic or carries no timestamps. *)

(** {1 The permissiveness census}

    The quantifiers behind the optimality results, counted on a bounded
    universe: every well-formed history of two committed activities
    [a] and [b] that each run one operation — [insert(1)], [member(1)]
    or [delete(1)] — on one integer set, with every candidate result,
    both timestamp orders and every interleaving
    ({!Weihl_spec.Enumerate.histories}), classified by each
    checker. *)

type census = {
  well_formed : int;
  atomic : int;
  dynamic : int;
  static : int;
  both : int;  (** dynamic and static atomic *)
  dynamic_only : int;
  static_only : int;
  unsound : int;
      (** dynamic or static atomic but not atomic: 0 by Theorems 1
          and 4 *)
}

val census : unit -> census
