(** Sequential specifications of objects.

    The paper assumes "an explicit description of the acceptable
    sequences for each object" (Section 3).  We represent such a
    description by a possibly non-deterministic state machine: [step s
    op] returns every permissible (next-state, result) outcome of
    invoking [op] in state [s].  An empty list means no outcome is
    permissible, i.e. any serial sequence reaching that invocation is
    unacceptable.

    Non-determinism matters: the paper stresses that requiring
    operations to be functions (as prior work did) precludes
    non-deterministic operations, which are "needed to achieve a
    reasonable level of concurrency" (Section 1).  The semiqueue object
    in [Weihl_adt] exercises this generality.

    Because specifications may be non-deterministic, executing a serial
    sequence against one tracks a {e set} of possible states (a
    {!frontier}) rather than a single state. *)

open Weihl_event

module type S = sig
  type state

  val type_name : string
  (** The name of the abstract type, e.g. ["intset"]. *)

  val initial : state

  val step : state -> Operation.t -> (state * Value.t) list
  (** All permissible outcomes of the operation in the given state. *)

  val equal_state : state -> state -> bool
  val pp_state : Format.formatter -> state -> unit

  val rebuild : state -> Operation.t list
  (** Operations that take [initial] to the state, each with exactly
      one permissible outcome on the way: what a state checkpoint
      replays in place of the history that reached the state.  [[]]
      for [initial]. *)
end

type t = (module S)
(** A packed sequential specification. *)

val type_name : t -> string

(** {1 Executing specifications} *)

type frontier
(** The set of states a specification may be in after some sequence of
    (operation, result) observations. *)

val start : t -> frontier
(** The singleton frontier holding the initial state. *)

val spec_of : frontier -> t
(** The specification a frontier executes. *)

val advance : frontier -> Operation.t -> Value.t -> frontier option
(** [advance f op res] is the frontier after observing invocation [op]
    terminate with result [res]; [None] if no state in [f] permits that
    outcome — i.e. the observed sequence is unacceptable. *)

val outcomes : frontier -> Operation.t -> (Value.t * frontier) list
(** [outcomes f op] groups the permissible results of invoking [op]
    from [f], pairing each distinct result with the frontier it leads
    to.  An empty list means [op] has no permissible outcome. *)

val advance_changes : frontier -> Operation.t -> Value.t -> bool option
(** [advance_changes f op res] is [None] when the outcome is not
    permissible; otherwise [Some changed], where [changed] says whether
    observing the outcome altered the state set.  Protocols use this to
    distinguish mutators from pure queries. *)

val determined : frontier -> Operation.t -> Value.t option
(** [determined f op] is [Some res] when exactly one result is
    permissible for [op] from [f].  Used by online protocols that must
    return a definite answer. *)

val rebuild : frontier -> ((Operation.t * Value.t) list, string) result
(** The frontier's single state as {!S.rebuild}'s operations, each
    paired with its one permissible result, checked by stepping them
    from [initial] to that state.  [Error] when the frontier holds more
    than one state, a step has other than one outcome, or the steps
    reach another state.  Equal states rebuild to equal lists, so two
    frontiers from different [start] calls can be compared through
    it. *)

val frontier_size : frontier -> int
(** The number of distinct states the frontier holds.  Cheap; used as a
    pre-filter before the set comparisons of {!equal_frontier} (equal
    frontiers necessarily have equal sizes). *)

val equal_frontier : frontier -> frontier -> bool
(** State-set equality of two frontiers descending from the {e same}
    [start] call.  Frontiers from different [start] calls compare
    unequal even if their states coincide — the conservative answer,
    which is what memoizers pruning repeated frontier states need. *)

val pp_frontier : Format.formatter -> frontier -> unit
