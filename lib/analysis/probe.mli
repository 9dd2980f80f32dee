(** The synthetic single-object probe harness: extract a protocol's
    effective conflict predicate by driving its real object — behind a
    real {!Weihl_cc.System} under the protocol's timestamp policy —
    through bounded schedules, and judge every decision against the
    protocol's atomicity class ({!Weihl_spec.Atomicity.of_policy}).

    Every probe is one list of steps over transactions t1–t3 (invoke,
    commit, abort), run by one runner on a fresh system after a
    committed setup: every representative serial alphabet sequence up
    to the probe depth, deduplicated by observational equality of the
    frontier it reaches.

    {2 Pair and multi-op probes}

    t1 executes [p] (a multi-op probe: two operations), then a
    concurrent t2 attempts [q].  Once both are {e granted} the protocol
    cannot prevent any completion, so one judge runs each — both
    commit (in both orders for hybrid protocols, whose commit
    timestamps follow commit order) and each one-aborts branch — and a
    completion outside the class, or one that raised, makes the probe
    {e unsound}.  A pair whose t2 is {e blocked} is {e loose} when some
    spec-permissible result for [q] would have kept every completion
    inside the class; a blocked multi is conservative, never loose.
    Static protocols are probed under both timestamp orders of t1 and
    t2, hybrid protocols with an update and with a read-only t2.

    {2 Triple probes}

    t2 commits between two concurrent grants, then t3 is granted
    before t1 aborts or commits — a shape no pair can build.  Static
    protocols run it with scripted timestamps (t1@10, t2@20, t3@5): the
    multiversion grant-guard bug, where t3's grant leaned on t1's
    uncommitted later-timestamp execution.  Hybrid protocols run it
    with a read-only t3, a later reader after a contended commit.
    Dynamic protocols run it as is: t3 is granted against a committed
    frontier that moved under t1's outstanding intentions. *)

open Weihl_event

type pair_status =
  | Granted_sound
  | Granted_unsound of string
  | Blocked_justified
  | Blocked_loose of string

type pair = {
  setup : Operation.t list;
  variant : string;
  p : Operation.t;
  q : Operation.t;
  status : pair_status;
}

type triple = {
  t_setup : Operation.t list;
  t_p : Operation.t;
  t_q : Operation.t;
  t_r : Operation.t;
  branch : string;
  problem : string;
}

type multi = {
  m_setup : Operation.t list;
  m_variant : string;
  m_p1 : Operation.t;
  m_p2 : Operation.t;
  m_q : Operation.t;
  m_problem : string;
}

type t = {
  setups_enumerated : int;
  setups_distinct : int;
  setups_skipped : int;
      (** representative setups some probe could not replay serially *)
  pairs : pair list;
  triples_probed : int;
  triples_granted : int;
  triple_unsound : triple list;
  multis_probed : int;
  multis_granted : int;
  multi_unsound : multi list;
}

val run : depth:int -> Catalog.entry -> t

val enumerate_setups : Domain.t -> depth:int -> Operation.t list list * int
(** Representative committed setups (deduplicated by observational
    frontier equality) with the raw enumeration count — shared with
    the cross-shard probes ({!Xprobe}). *)

type completion = [ `CC | `CC_rev | `C1A2 | `A1C2 ]
(** How a granted t1/t2 pair completes: both commit (t1 first, or t2
    first), t2 aborts, or t1 aborts. *)

val completion_steps : completion -> [ `Commit of int | `Abort of int ] list
(** The completion as steps over t1 and t2, in order. *)

val completion_name : completion -> string

val pp_pair : Format.formatter -> pair -> unit
val pp_triple : Format.formatter -> triple -> unit
val pp_multi : Format.formatter -> multi -> unit
