(** Shard execution: inline (sequential, deterministic) or spread over
    the calling domain and a pool of worker domains behind bounded
    mailboxes.

    Every touch of a shard's non-thread-safe [Cc.System.t] goes through
    {!call} or {!run_phase} for that shard, so the system is only ever
    accessed from its owner domain (domain confinement).  A shard's
    work runs in submission order in both modes, so results are
    deterministic at any domain count — only wall-clock timing varies.

    Ownership: with [domains = N >= 2], shard [s] belongs to owner
    [s mod N].  Owner 0 is the domain that calls [Exec] (the
    coordinator); owners [1 .. N-1] are worker domains, one mailbox
    each.  Owner 0's work runs inline on the caller, so a call on one of
    its shards costs no cross-domain round trip ("hop": a mailbox job
    plus a [Condition] wake-up).

    [domains = 1] ({!create}'s default) runs everything on the caller:
    exactly the pre-multicore sequential runtime, with no queues, no
    domains, and no overhead beyond a constructor match.

    An [Exec.t] has one caller: phases and calls must not be issued
    concurrently from several domains, nor from inside a running
    phase. *)

type t

val create : ?domains:int -> shards:int -> unit -> t
(** [domains] counts the domains executing shard work, the caller's
    included, capped at [shards].  At 1 (the default): inline mode.
    Otherwise spawns [min domains shards - 1] worker domains.
    @raise Invalid_argument if [shards <= 0]. *)

val domain_count : t -> int
(** Domains executing shard work, the caller's included (1 in inline
    mode). *)

val run_phase : ?on_posted:(unit -> unit) -> t -> (int * (unit -> unit)) list -> unit
(** Run one phase: every [(shard, thunk)] pair on the shard's owner.
    Each worker owner with work gets one mailbox job running its pairs
    in list order; after posting them, [on_posted] runs (the caller
    samples gauges there while the jobs are in flight) and then owner
    0's pairs run inline, in list order, overlapping the workers.  A
    shard's thunks therefore run in list order.  Returns once every
    thunk has run; if any raised, the first failure in list order is
    re-raised then.
    @raise Invalid_argument if a shard is out of range (pool mode). *)

val call : t -> shard:int -> (unit -> 'a) -> 'a
(** One thunk on [shard]'s owner, returning its result or re-raising
    its exception.  Direct on the caller for owner 0 and in inline mode;
    one hop otherwise. *)

val jobs_posted : t -> int
(** Jobs posted to worker mailboxes since creation — the hop count (0
    in inline mode). *)

val mailbox_depth : t -> shard:int -> int
(** Jobs queued right now on the mailbox of [shard]'s owner (0 in
    inline mode and for the caller's shards). *)

val mailbox_max_depth : t -> shard:int -> int
(** High-water mark of that mailbox's depth (0 in inline mode and for
    the caller's shards). *)

val shutdown : t -> unit
(** Close the mailboxes, drain remaining jobs and join every worker
    domain.  Idempotent; a no-op in inline mode. *)
