(** Cross-shard behavioural probes.

    Pair probes ({!Probe}) certify one object under one local system;
    the theorem they lean on — local atomicity composes — also needs
    the {e global} half: commit decisions and timestamps must be agreed
    atomically across objects.  These probes exercise exactly that
    seam.  Each builds an n-shard {!Weihl_shard.Group} holding one
    instance of the catalogue object per shard and walks the pattern
    no single shard sees whole: T1 invokes [p] at each object in shard
    order while T2 invokes [q] at them in reverse, interleaved, so each
    shard observes a different half of the race.

    - {e Pair probes} walk two shards (t1\@a, t2\@b, t1\@b, t2\@a) and
      run every completion of {!Probe.completion} (commit/commit in
      either order, or one aborts), multi-shard commits running 2PC.
    - {e Wide probes} walk three shards and complete either cleanly or
      with a participant crash injected mid-2PC: the middle shard dies
      after its yes-vote, T1's decision is reached without it, and the
      dead shard recovers from its WAL and resolves its in-doubt leg
      from the decision log — the shape two shards cannot build, where
      a decided commit must reach a shard that was down at decision
      time while a third already applied it.

    A completed walk is {e unsound} if {!check_global} fails on it.
    Blocked walks are conservative and never flagged — the per-shard
    {!Probe} pass already measures looseness. *)

open Weihl_event

type status = Granted_sound | Granted_unsound of string | Blocked

type xpair = {
  x_setup : Operation.t list;
  x_variant : string;
  x_p : Operation.t;
  x_q : Operation.t;
  x_status : status;
}

type wide = {
  w_setup : Operation.t list;
  w_p : Operation.t;
  w_q : Operation.t;
  w_mode : string;  (** ["clean"] or ["participant-crash"] *)
  w_problem : string;
}

type t = {
  probed : int;
  granted : int;
  blocked : int;
  unsound : xpair list;
  wide_probed : int;
  wide_granted : int;
  wide_blocked : int;
  wide_unsound : wide list;
}

val check_global :
  Catalog.entry ->
  Weihl_shard.Group.t ->
  Weihl_shard.Gtxn.t list ->
  string option
(** Global atomicity over a completed walk: each walked transaction's
    {!Weihl_shard.Gtxn.status} is every shard's verdict on it (a
    transaction committed on one shard but not another, or whose
    shards contradict its status, is a finding), then the judge of
    every sharded run, {!Weihl_shard.Shard_harness.judge}: atomic
    commitment, agreed timestamps, nothing stuck in-doubt, each
    shard's state against the committed projection, and the merged
    replay against one combined system holding every object. *)

val run : Catalog.entry -> setups:Operation.t list list -> t
(** Probe every (setup, p, q) combination over the entry's alphabet —
    under hybrid, additionally with a read-only T2 restricted to the
    domain's read-only operations — then the three-shard wide pattern
    with and without the mid-2PC participant crash. *)

val pp_xpair : Format.formatter -> xpair -> unit
val pp_wide : Format.formatter -> wide -> unit
