(** A thread-safe, blocking facade over {!Weihl_cc.System} for
    multicore OCaml.

    The protocol objects are deliberately single-threaded state
    machines (the paper's objects encapsulate a synchronization
    {e policy}; the mechanics of mutual exclusion are beneath its
    model).  This wrapper supplies the mechanics: one mutex guards the
    system, a condition variable wakes blocked invokers whenever any
    transaction completes, and deadlocks are broken by aborting the
    youngest transaction in the cycle ({!Deadlock_victim} is raised in
    that transaction's invoking thread).

    Domains (or threads) call {!invoke}, which blocks until the
    operation is granted, the protocol refuses it, or the caller is
    sacrificed to a deadlock. *)

open Weihl_event

type t

exception Refused of string
(** The protocol refused the operation; the caller must {!abort}. *)

exception Deadlock_victim
(** The transaction was aborted to break a deadlock; the transaction
    is already dead — do not call {!abort}. *)

val create :
  ?policy:Weihl_cc.System.ts_policy ->
  ?metrics:Weihl_obs.Metrics.Registry.t -> unit -> t
(** With [metrics], {!atomically} ticks [txn.committed] and the
    per-cause abort counters [txn.abort.refused] /
    [txn.abort.deadlock] — retries and deadlock breaks are visible in
    the registry instead of silent. *)

val add_object : t -> Weihl_cc.Atomic_object.t -> unit

val log : t -> Weihl_cc.Event_log.t
(** For building objects: they must share the system's log. *)

val begin_txn : t -> Activity.t -> Weihl_cc.Txn.t

val invoke : t -> Weihl_cc.Txn.t -> Object_id.t -> Operation.t -> Value.t
(** Blocks while the protocol says wait.
    @raise Refused when the protocol refuses the operation.
    @raise Deadlock_victim when this transaction was chosen to break a
    deadlock while waiting. *)

val commit : t -> Weihl_cc.Txn.t -> unit
val abort : t -> Weihl_cc.Txn.t -> unit

val history : t -> History.t
(** Snapshot of the event log (takes the lock). *)

val atomically :
  t -> Activity.t -> (Weihl_cc.Txn.t -> (Object_id.t -> Operation.t -> Value.t) -> 'a) ->
  ('a, string) result
(** [atomically t activity body] runs [body txn invoke] in a fresh
    transaction, committing on normal return and aborting on {!Refused}
    or {!Deadlock_victim} (returned as [Error]); other exceptions abort
    and re-raise. *)

(** {1 Instrumentation}

    Install a {!Weihl_obs.Probe.sink} on the underlying system.  The
    default clock is real time in microseconds since installation (the
    Chrome-trace unit); pass [now] to override.  While a probe is
    installed the runtime additionally samples a [threads.blocked]
    gauge around every sleep on the condition variable and emits a
    deadlock-victim event whenever it breaks a cycle. *)

val set_probe : ?now:(unit -> float) -> t -> Weihl_obs.Probe.sink -> unit
val clear_probe : t -> unit
