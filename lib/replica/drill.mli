(** The seeded failover drill: one replica tier under traffic, faults
    and a forced promotion, checked for lost commits and stale reads.

    One schedule = one {!Weihl_fault.Shard_plan.t} applied to a
    timestamp-policy banking protocol (hybrid or multiversion — the
    tier's snapshot reads need initiation timestamps) over a fresh
    group with a replica tier on top:

    + slice 1 — seeded multi-client traffic with the plan's 2PC fault
      injected at its chosen commit round, the shipping channel running
      under the plan's [ship] message faults; any shard the fault took
      down is brought back by {e promotion} ({!Tier.fail_over}), not
      plain recovery, and the blocking window is resolved from the
      decision log;
    + snapshot reads through the tier between slices, every outcome
      recorded;
    + the plan's replica fault is staged (lag, crash, partition, or
      in-flight segment damage) and slice 2 runs under it;
    + a seeded live shard is then crashed and failed over — its
      pre-crash committed projection captured first, so lost commits
      are counted against an independent record;
    + faults are lifted, slice 3 runs clean, the tier syncs, and the
      run is judged.

    The verdict checks, in order: every promotion's zero-lost-commits
    verification, the pre-crash committed set's survival, the group's
    own global-atomicity checks ({!Weihl_shard.Shard_harness.run_checks}),
    every replica's final projection against its shard's primary, and
    every replica-served read re-executed against the final as-of state
    — a replica that ever served a stale value is caught here even if
    nothing else noticed.  Every lost commit and stale read is also the
    schedule's divergence.  {!Weihl_fault.Sweep.run} runs one schedule
    per seed. *)

module Shard_plan = Weihl_fault.Shard_plan
module Fh = Weihl_fault.Harness
module Sweep = Weihl_fault.Sweep

val protocols : Fh.protocol list
(** The timestamp-policy banking protocols (hybrid, multiversion). *)

type schedule_report = {
  d_plan : Shard_plan.t;
  d_protocol : string;
  d_committed : int;  (** update commits across all traffic slices *)
  d_reads : int;  (** snapshot reads issued through the tier *)
  d_replica_served : int;
  d_bounced : int;  (** stale-detected reads the primary answered *)
  d_unavailable : int;
      (** reads no one could serve (primary down, replica behind) *)
  d_lost : int;  (** committed transactions missing after a promotion *)
  d_stale : int;  (** replica-served reads that returned early state *)
  d_promotions : int;
  d_resyncs : int;
  d_damaged : int;  (** damaged segments detected on the channel *)
  d_verdict : Sweep.verdict;
      (** [Diverged] with the first failed check, if any, else
          [Converged] *)
}

type totals = {
  r_committed : int;
  r_reads : int;
  r_replica_served : int;
  r_bounced : int;
  r_unavailable : int;
  r_lost : int;
  r_stale : int;
  r_promotions : int;
  r_resyncs : int;
  r_damaged : int;
}

val run_schedule :
  ?quick:bool ->
  ?shards:int ->
  ?replicas:int ->
  Shard_plan.t ->
  Fh.protocol ->
  schedule_report
(** One schedule; defaults 3 shards, 3 replicas.  [quick] shortens the
    traffic slices and the read batches. *)

val totals : schedule_report Sweep.summary -> totals
(** Each count summed over a sweep's schedules. *)

val pp_schedule : Format.formatter -> schedule_report -> unit
val pp_report : Format.formatter -> schedule_report Sweep.summary -> unit
(** The schedule count, the {!totals} and the divergences. *)
