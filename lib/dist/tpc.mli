(** Two-phase commit with commit-timestamp generation — the
    distributed implementation route for hybrid atomicity the paper
    points to ("some simple modifications to a two-phase commit
    protocol", Section 4.3.3).

    One coordinator and [n] participant sites run atomic commitment for
    a single distributed update transaction over a deterministic
    message-passing simulation ({!Msim}).  Each yes-vote carries the
    participant's logical-clock reading; the coordinator chooses the
    commit timestamp as one past the maximum of all readings, so the
    timestamp exceeds every timestamp any participant has observed —
    making the global timestamp order of committed updates consistent
    with [precedes] at every object, which is exactly what hybrid
    atomicity requires.

    Failure handling is classical 2PC with a cooperative termination
    protocol: a prepared participant that times out queries its peers;
    it adopts any decision a peer knows, aborts if some peer has not
    voted (that peer then refuses to vote), and remains {e blocked}
    when every peer is also prepared — 2PC's well-known blocking
    window, reproduced faithfully.  Termination rounds retry with
    bounded exponential backoff ([timeout], doubling, capped at
    [retry_cap], at most [max_retries] rounds), so queries lost to an
    unreliable network ([msg_faults]) are re-asked rather than fatal.
    The coordinator itself presumes abort if any vote is still missing
    after [2 * timeout]: a silent participant aborts the transaction
    instead of blocking every peer. *)

type vote = Yes | No

type crash_point =
  | No_crash
  | Before_prepare  (** coordinator dies before sending any PREPARE *)
  | After_prepare   (** coordinator dies after PREPAREs, before deciding *)
  | Mid_decision of int
      (** coordinator dies after sending the decision to only the first
          [k] participants *)

type config = {
  participants : int;
  site_clocks : int list;
      (** each participant's logical-clock reading (timestamps it has
          already observed); length must equal [participants] *)
  votes : vote list; (** how each participant votes *)
  coordinator_crash : crash_point;
  participant_crash : (int * [ `Before_vote | `After_vote ]) option;
      (** participant index (0-based) and when it dies *)
  timeout : int; (** participant patience before running termination *)
  max_retries : int; (** termination rounds before giving up blocked *)
  retry_cap : int; (** ceiling on the doubling inter-round backoff *)
  msg_faults : Msim.faults; (** network loss/duplication/reordering *)
  seed : int;
}

val default_config : config
(** 3 participants, clocks [0;0;0], all yes, no crashes, timeout 50,
    4 retries capped at 400, a reliable network, seed 1. *)

type site_status =
  | Committed of int (** with the commit timestamp *)
  | Aborted
  | Blocked (** prepared, decision unknowable — 2PC's blocking window *)
  | Crashed

type outcome = {
  statuses : site_status list; (** per participant *)
  commit_ts : int option; (** the coordinator's decision, if it made one *)
  final_clocks : int list;
      (** each participant's logical clock after the run — feed these
          into the next transaction's [site_clocks] to chain commits
          and observe monotone (precedes-consistent) timestamps *)
  messages : int;
  duration : int; (** virtual time at quiescence *)
}

val run : ?metrics:Weihl_obs.Metrics.Registry.t -> config -> outcome
(** @raise Invalid_argument on inconsistent configuration lengths.

    With [metrics], the run counts per-participant phase transitions
    ([tpc.site<i>.prepare], [.vote.yes]/[.vote.no], [.prepared],
    [.committed], [.aborted], [.refused], [.termination.round]) and the
    coordinator's decision ([tpc.coord.decide.commit]/[.abort]). *)

val atomic_commitment : outcome -> bool
(** No participant committed while another aborted (crashed and blocked
    sites are indeterminate and excluded) — the all-or-nothing
    invariant. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 The reusable commit driver}

    {!run} is a one-shot experiment over scripted votes and clocks.
    The protocol engine is also exposed with callback participants and
    an explicit decision record.  The sharded runtime runs it as the
    model of a faulted commit: its participants read their shard's
    clock live but only record their vote and the verdict they learn,
    and the runtime's commit wave then applies what they recorded. *)

type decision = {
  committed : bool;  (** the coordinator decided commit *)
  decision_ts : int option;
      (** the agreed commit timestamp — [1 + max] of the participants'
          clock readings (possibly adjusted by [choose_ts]) *)
  outcomes : site_status list;  (** per participant, in order *)
  decision_messages : int;
  decision_duration : int;  (** virtual time at quiescence *)
}

type participant = {
  clock : unit -> int;
      (** the site's logical-clock reading, sampled with its yes-vote *)
  prepare : unit -> vote;
      (** called when PREPARE arrives; vote [Yes] only once the site
          can guarantee the transaction either way (effects durable) *)
  learn : [ `Commit of int | `Abort ] -> unit;
      (** called exactly once, when this site — having voted yes —
          learns the decision (from the coordinator or from a peer via
          cooperative termination).  Never called for a site that voted
          [No], crashed, or stayed blocked. *)
}

type fault = {
  f_coordinator_crash : crash_point;
  f_participant_crash : (int * [ `Before_vote | `After_vote ]) option;
  f_msg_faults : Msim.faults;
  f_partitions : (int * int) list;
      (** node pairs to cut from the start; node 0 is the coordinator,
          participant [i] is node [i + 1] *)
  f_heal_at : int option;  (** when all partitions heal, if ever *)
}

val no_fault : fault

module Driver : sig
  val commit :
    ?fault:fault ->
    ?choose_ts:(int -> int) ->
    ?on_decide:([ `Commit of int | `Abort ] -> unit) ->
    seed:int ->
    participant list ->
    decision
  (** Run one atomic-commitment round over the participants.
      [choose_ts] maps the max-of-sites proposal to the final commit
      timestamp (identity by default) — a shard group routes it through
      its own clock to keep global timestamps unique.  [on_decide]
      fires at the coordinator's decision point, {e before} any DECIDE
      message is sent: it is the write-ahead hook for a durable
      decision log (presumed abort means only commits strictly need
      recording).  Timeouts and retries are {!default_config}'s. *)
end
