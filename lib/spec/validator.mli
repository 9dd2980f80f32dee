(** An online validator: feed events as they happen, read verdicts.

    The checkers in {!Atomicity} are offline decision procedures; this
    wrapper maintains a growing history and re-evaluates on demand,
    giving systems a runtime monitor — the shape of tool the paper's
    "online implementations" discussion motivates.  Verdicts about
    atomicity are exponential in the number of committed activities, so
    they are computed only while that number stays within
    [max_activities]; beyond it they read [None] ("not computed"), while
    well-formedness — which is cheap — is always maintained. *)

open Weihl_event

type t

type verdicts = {
  well_formed : bool;
  atomic : bool option;
  dynamic_atomic : bool option;
  static_atomic : bool option;
  hybrid_atomic : bool option;
}

val create :
  ?mode:Wellformed.mode -> ?max_activities:int -> Spec_env.t -> t
(** Defaults: mode [Base], max_activities 6. *)

val feed : t -> Event.t -> unit
val feed_history : t -> History.t -> unit
val history : t -> History.t

val verdicts : t -> verdicts
(** Current verdicts for the whole history seen so far.  [static] and
    [hybrid] are [None] when some committed activity lacks a timestamp
    (they would be trivially false). *)

