(** The core every fault runner shares: one verdict, one reading of a
    failed recovery, and one seeded sweep with its summary.

    The crash-recovery harness ({!Harness}), the sharded 2PC sweep and
    soak ({!Weihl_shard.Shard_harness}) and the replica failover drill
    ({!Weihl_replica.Drill}) each judge one schedule at a time; a sweep
    runs one schedule per seed, the protocols assigned round-robin, and
    counts their verdicts. *)

type verdict =
  | Converged
  | Corruption_detected  (** a damaged log was loudly rejected *)
  | Diverged of string  (** the verdict that must never happen *)

val of_recovery : pristine:bool -> Weihl_cc.Recovery.failure -> verdict
(** The verdict on a recovery that failed.  Rejecting a damaged log is
    {!Corruption_detected}; rejecting a [pristine] one, a divergent
    replay and an unusable checkpoint are divergences. *)

type 'r summary = {
  schedules : int;
  converged : int;
  corruption_detected : int;
  divergences : 'r list;  (** the schedules that diverged, in run order *)
  results : 'r list;  (** every schedule, in run order *)
}

val run :
  verdict:('r -> verdict) ->
  plan:(seed:int -> 'plan) ->
  ('plan -> 'p -> 'r) ->
  'p list ->
  int list ->
  'r summary
(** [run ~verdict ~plan schedule protocols seeds] runs [schedule] on
    the plan of each seed, in order, the [protocols] assigned
    round-robin. *)

val pp_verdict : Format.formatter -> verdict -> unit

val pp_summary : Format.formatter -> 'r summary -> unit
(** The four counts, one per line. *)
