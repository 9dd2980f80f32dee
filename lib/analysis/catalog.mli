(** The protocols under certification: every hand-written protocol of
    the fault catalog ({!Weihl_fault.Harness.catalog}), paired with the
    probe {!Domain} of its specification, followed by one synthesized
    [derived_<adt>] protocol per registry domain ({!Synthesize}).  The
    workloads stay behind: the certifier drives its own probe
    schedules.  Nothing here constructs an object of its own, so the
    object lint certifies is the object the fault sweeps crash. *)

type entry = {
  name : string;
  policy : Weihl_cc.System.ts_policy;
      (** which local atomicity property the protocol claims, hence
          which checker judges its probe histories *)
  domain : Domain.t;
  make_object :
    Weihl_cc.Event_log.t -> Weihl_event.Object_id.t -> Weihl_cc.Atomic_object.t;
}

val all : entry list
val find : string -> entry option

val is_derived : string -> bool
(** Whether a protocol name is a synthesized [derived_<adt>] one. *)

val policy_name : Weihl_cc.System.ts_policy -> string
(** ["dynamic"], ["static"] or ["hybrid"] — the atomicity class. *)
