(** The crash-recovery schedule runner.

    One schedule = one {!Plan.t} applied to one protocol from the
    {!catalog}:

    + drive seeded client traffic against a fresh system and halt it
      abruptly at the plan's crash point ({!Weihl_sim.Driver});
    + snapshot the durable log ({!Weihl_cc.Wal}) and damage it per the
      plan's log fault;
    + recover a second, fresh system from the damaged log with
      {!Weihl_cc.Recovery.restore_checkpointed} — in commit order for
      dynamic-atomic protocols, timestamp order for static and hybrid;
    + resume seeded traffic on the recovered system and check the
      combined history still satisfies the protocol's atomicity
      property (when small enough for the exponential checker);
    + run a distributed commit round ({!Weihl_dist.Tpc}) under the
      plan's message faults and clock skews and check atomic
      commitment.

    The verdict ({!Sweep.verdict}) is [Converged] when recovery landed
    on exactly the committed projection of the surviving log and every
    check passed, [Corruption_detected] when the damaged log was loudly
    rejected (legitimate for mid-log damage), and [Diverged] — the one
    verdict that must never happen — otherwise.  {!Sweep.run} runs one
    schedule per seed. *)

type protocol = {
  name : string;
  policy : Weihl_cc.System.ts_policy;
  spec : Weihl_spec.Seq_spec.t;
  workload : unit -> Weihl_sim.Workload.t;
  make_object :
    Weihl_cc.Event_log.t -> Weihl_event.Object_id.t -> Weihl_cc.Atomic_object.t;
}

val catalog : protocol list
(** Every online protocol in the repository, each paired with the
    workload that exercises it, spanning all three timestamp policies:
    the one table from a protocol name to its policy, specification,
    constructor and workload.  Fourteen are hand-written; the last,
    [derived_account], is the account table the theory layer
    synthesizes ({!Weihl_theory.Synthesize.of_adt}), the same table
    [weihl lint] certifies.  The certifier's catalog, [weihl sim] and
    the benches read their protocols from here. *)

val find_protocol : string -> protocol option

val generic :
  string ->
  (module Weihl_adt.Adt_sig.S) ->
  (unit -> Weihl_sim.Workload.t) ->
  protocol option
(** [generic family adt workload] is the generic protocol [family] —
    ["rw"], ["commutativity"], ["multiversion"] or ["hybrid"] — over
    [adt], named after the family; [None] for any other name.  A
    generic protocol needs nothing of an ADT beyond its module (its
    specification, commutativity table and read/write
    classification); the catalog's [rw], [commutativity],
    [multiversion], [multiversion_set] and [hybrid] are built with
    it. *)

val system : protocol -> Weihl_event.Object_id.t list -> Weihl_cc.System.t
(** A fresh system under the protocol's policy holding one of its
    objects per id, in order. *)

type schedule_result = {
  plan : Plan.t;
  protocol : string;
  verdict : Sweep.verdict;
  replayed : int;  (** committed transactions recovery re-executed *)
  substituted : int;
      (** legally different replay choices (non-deterministic specs) *)
  dropped_records : int;  (** torn-tail records truncated *)
  resumed_committed : int;  (** transactions committed after recovery *)
}

val run_schedule : ?quick:bool -> Plan.t -> protocol -> schedule_result
(** [quick] shortens both traffic phases (for smoke runs). *)

val pp_result : Format.formatter -> schedule_result -> unit
