(** The crash-recovery schedule runner.

    One schedule = one {!Plan.t} applied to one protocol from the
    {!catalog}:

    + drive seeded client traffic against a fresh system and halt it
      abruptly at the plan's crash point ({!Weihl_sim.Driver});
    + snapshot the durable log ({!Weihl_cc.Wal}) and damage it per the
      plan's log fault;
    + recover a second, fresh system from the damaged log with
      {!Weihl_cc.Recovery.restore_durable} — in commit order for
      dynamic-atomic protocols, timestamp order for static and hybrid;
    + resume seeded traffic on the recovered system and check the
      combined history still satisfies the protocol's atomicity
      property (when small enough for the exponential checker);
    + run a distributed commit round ({!Weihl_dist.Tpc}) under the
      plan's message faults and clock skews and check atomic
      commitment.

    The verdict is {!Converged} when recovery landed on exactly the
    committed projection of the surviving log and every check passed,
    {!Corruption_detected} when the damaged log was loudly rejected
    (legitimate for mid-log damage), and {!Diverged} — the one verdict
    that must never happen — otherwise. *)

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
    workload that exercises it, spanning all three timestamp
    policies. *)

val find_protocol : string -> protocol option

type verdict = Converged | Corruption_detected | Diverged of string

type schedule_result = {
  plan : Plan.t;
  protocol : string;
  verdict : verdict;
  replayed : int;  (** committed transactions recovery re-executed *)
  substituted : int;
      (** legally different replay choices (non-deterministic specs) *)
  dropped_records : int;  (** torn-tail records truncated *)
  resumed_committed : int;  (** transactions committed after recovery *)
}

type summary = {
  schedules : int;
  converged : int;
  corruption_detected : int;
  diverged : int;
  results : schedule_result list;  (** in run order *)
}

val run_schedule : ?quick:bool -> Plan.t -> protocol -> schedule_result
(** [quick] shortens both traffic phases (for smoke runs). *)

val run_many :
  ?quick:bool -> ?protocols:protocol list -> seeds:int list -> unit -> summary
(** One schedule per seed, [protocols] (default the {!catalog}) assigned
    round-robin. *)

val divergences : summary -> schedule_result list

val pp_verdict : Format.formatter -> verdict -> unit
val pp_result : Format.formatter -> schedule_result -> unit
val pp_summary : Format.formatter -> summary -> unit
