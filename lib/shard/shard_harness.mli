(** The sharded crash-recovery schedule runner.

    One schedule = one {!Weihl_fault.Shard_plan.t} applied to one
    banking protocol over a fresh shard {!Group}:

    + drive seeded multi-client traffic through the group
      ({!Sharded_driver}), injecting the plan's fault — coordinator or
      participant crash at any 2PC phase, a no-vote, a coordinator
      partition, message drop/duplication/reordering — into the
      [fault_at_commit]-th multi-shard commit round;
    + recover every shard the fault took down from its WAL (the first
      victim's WAL damaged per the plan), reinstating prepared
      in-doubt legs;
    + resolve the blocking window from the coordinator's decision log
      (presumed abort where it has no record) and check: no
      transaction committed at one shard and aborted at another, all
      shards agree on every committed transaction's timestamp, zero
      transactions stuck in-doubt, and the merged committed projection
      replays cleanly against one combined system;
    + resume clean traffic and re-validate everything.

    The verdict is a {!Weihl_fault.Sweep.verdict}: [Diverged] must
    never happen; a damaged WAL being loudly rejected is
    [Corruption_detected].  {!Weihl_fault.Sweep.run} runs one schedule
    per seed.

    {!run_soak} is the long-soak variant: compressed hours of one
    group's life under fuzzy checkpointing, with a crash→recover cycle
    (and seeded checkpoint damage) at the end of every traffic round. *)

module Shard_plan = Weihl_fault.Shard_plan
module Cc = Weihl_cc
module Sweep = Weihl_fault.Sweep

type schedule_result = {
  plan : Shard_plan.t;
  protocol : string;
  shards : int;
  verdict : Sweep.verdict;
  committed : int;  (** across both traffic phases *)
  tpc_commits : int;
  fault_injected : bool;
      (** whether traffic reached the plan's faulty commit at all *)
  crashed_shards : int;
  reinstated : int;  (** prepared legs rebuilt from WALs *)
  resolved_in_doubt : int;
  resumed_committed : int;
}

val protocols : Weihl_fault.Harness.protocol list
(** The banking protocols of the fault catalog — the ones whose
    transfers scatter transactions across shards. *)

val group :
  ?metrics:Weihl_obs.Shard_metrics.t ->
  ?seed:int ->
  ?domains:int ->
  ?group_commit:bool ->
  ?sync_cost:(unit -> unit) ->
  ?checkpoint:Group.checkpoint_config ->
  shards:int ->
  Weihl_fault.Harness.protocol ->
  Weihl_event.Object_id.t list ->
  Group.t
(** A fresh {!Group.create} group under the protocol's policy — the
    optional arguments pass through — holding one of its objects per
    id ({!Group.add_object}), in order. *)

(** {1 Global atomicity}

    The judge of every sharded run: the sweep, the soak, the replica
    drill, the certifier's cross-shard probes and the benchmark. *)

val judge :
  ?merged:bool ->
  spec:Weihl_spec.Seq_spec.t ->
  make_object:
    (Cc.Event_log.t -> Weihl_event.Object_id.t -> Cc.Atomic_object.t) ->
  Group.t ->
  string option
(** The first failed global-atomicity condition, reading the policy
    and the objects (each of specification [spec]) from the group:
    + no activity committed at one shard and aborted at another;
    + every shard answers the same timestamp for a committed activity;
    + no transaction stuck in-doubt;
    + each live shard's objects, folded from its own history
      ({!Cc.Fold}), have the state the fold of the group's committed
      projection gives them — unlike the conditions by activity name,
      this one sees through a shard recovered from a checkpoint, whose
      history lists one rebuild transaction in place of the
      transactions it folded;
    + with [merged] (default true), the merged committed projection
      replays cleanly against one combined fresh system built with
      [make_object]; the soak skips it between its cadence points. *)

val run_checks :
  ?merged:bool -> Weihl_fault.Harness.protocol -> Group.t -> string option
(** {!judge} with the protocol's specification and constructor. *)

val commit_with_fault :
  Shard_plan.t ->
  injected:bool ref ->
  Group.t ->
  Gtxn.t ->
  nth_multi:int ->
  unit
(** An [on_commit] hook for {!Sharded_driver.run}: the plan's
    [fault_at_commit]-th multi-shard commit runs under the plan's 2PC
    fault (a coordinator or participant crash, a no-vote or a
    partition) and message faults, once, setting [injected]; every
    other commit runs clean, so a schedule isolates one failure. *)

val run_schedule :
  ?quick:bool ->
  ?shards:int ->
  Shard_plan.t ->
  Weihl_fault.Harness.protocol ->
  schedule_result
(** [quick] shortens both traffic phases; default 3 shards. *)

val pp_result : Format.formatter -> schedule_result -> unit

(** {1 Long-soak crash→recover cycles} *)

type soak_config = {
  soak_seed : int;  (** picks the protocol and derives every cycle's plan *)
  cycles : int;
  cycle_duration : int;  (** driver ticks of traffic per cycle *)
  soak_shards : int;
  checkpoint_every : int;  (** the group's auto-checkpoint period *)
  check_merged_every : int;
      (** merged-replay cadence — the full-projection replay is
          quadratic over a long soak; the atomicity, timestamp and
          in-doubt checks still run every cycle, and the merged replay
          always runs on the final cycle *)
}

val default_soak : soak_config
(** Seed 1, 20 cycles of 400 ticks over 3 shards, checkpoint every 25
    commits, merged replay every 5 cycles. *)

type cycle_report = {
  cycle : int;
  victim : int;  (** the shard this cycle crashed *)
  ckpt_fault : Shard_plan.ckpt_fault;
  cycle_committed : int;  (** commits this cycle's traffic added *)
  source : Cc.Recovery.source;
  fallbacks : string list;
  wal_records : int;  (** records in the victim's (truncated) WAL *)
  replayed : int;  (** records recovery actually replayed *)
  replay_bound : int;  (** the tail length it was allowed *)
  cycle_verdict : Sweep.verdict;
}

type soak_report = {
  soak_protocol : string;
  cycles_run : int;
  soak_committed : int;
  soak_diverged : int;
  bound_violations : int;  (** cycles where [replayed > replay_bound] *)
  checkpoint_recoveries : int;  (** cycles restored from a checkpoint *)
  full_replays : int;
  loud_fallbacks : int;  (** cycles whose recovery reported fallbacks *)
  cycle_reports : cycle_report list;  (** in cycle order *)
}

val run_soak : ?config:soak_config -> unit -> soak_report
(** Run one long soak: per cycle, seeded traffic over the same group
    (activities offset so cycles never collide), then a crash of a
    seeded victim shard with its newest checkpoint damaged per the
    cycle's {!Shard_plan.ckpt_fault} ([Ckpt_race] instead loses the
    marker of a checkpoint taken just before the crash), then
    checkpoint-aware recovery and the global-atomicity checks.  A cycle
    diverges if recovery fails, a structural check fails, recovery
    replays more than the tail behind its checkpoint, or a damaged
    checkpoint was consumed without a fallback note. *)

val soak_divergences : soak_report -> cycle_report list
val pp_cycle : Format.formatter -> cycle_report -> unit
val pp_soak : Format.formatter -> soak_report -> unit
