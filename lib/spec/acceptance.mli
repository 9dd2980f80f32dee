(** Acceptability of serial sequences (Section 3).

    A serial sequence is acceptable in a system if, for every object
    [x], its projection [h|x] is permitted by the sequential
    specification of [x].  For a single object this means replaying the
    (operation, result) pairs through the specification's
    non-deterministic state machine and requiring a consistent
    execution to exist. *)

open Weihl_event

val object_accepts : Seq_spec.t -> History.t -> bool
(** [object_accepts spec h] — [h] must contain events of a single
    object.  Commit, abort and initiate events are ignored (the
    sequential specification constrains only operation behaviour); a
    trailing pending invocation is permitted.

    @raise Invalid_argument if [h] contains an abort event for an
    activity that also has operation events, since discarding effects
    is not meaningful inside a serial specification check: callers
    should check [perm]-projections. *)

val accepts : Spec_env.t -> History.t -> bool
(** [accepts env h] iff [object_accepts] holds of every per-object
    projection of [h].

    @raise Invalid_argument if some object of [h] has no specification
    in [env]. *)

