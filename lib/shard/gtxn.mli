(** Global transaction records: one activity running legs on several
    shards.

    A global transaction carries the group-drawn initiation timestamp
    shared by all of its legs (static policy, and read-only activities
    under hybrid), the set of shard-local {!Weihl_cc.Txn} legs it has
    touched, and its global status.  [In_doubt] is the blocked window
    of 2PC seen from the group: some leg is prepared and no decision is
    known. *)

open Weihl_event
module Cc = Weihl_cc

type status = Active | In_doubt | Committed | Aborted

type trace_ctx = { trace_id : int; parent_span : int }
(** Distributed-tracing context: the trace id shared by every span of
    this transaction and the root (coordinator) span's id.  Threaded
    through the 2PC path so per-shard and per-flight spans can point
    back at the transaction that caused them. *)

type t

val make : ?init_ts:Timestamp.t -> gid:int -> Activity.t -> t

val trace_ctx : t -> trace_ctx option
val set_trace_ctx : t -> trace_ctx -> unit
val gid : t -> int
val activity : t -> Activity.t
val is_read_only : t -> bool
val init_ts : t -> Timestamp.t option
val status : t -> status
val is_active : t -> bool
val set_status : t -> status -> unit
val commit_ts : t -> Timestamp.t option
val set_commit_ts : t -> Timestamp.t -> unit

val waiting : t -> (Object_id.t * Operation.t) list
val set_waiting : t -> (Object_id.t * Operation.t) list -> unit
(** The invocations that answered [Wait] and have not been granted or
    refused since — more than one only when one batch sent the
    transaction to several shards at once.  Activities are sequential,
    so until they are answered the transaction may only retry them. *)

val legs : t -> (int * Cc.Txn.t) list
(** [(shard, local leg)] pairs, oldest first. *)

val shards : t -> int list
(** Touched shards, oldest first — the 2PC participant set. *)

val leg : t -> int -> Cc.Txn.t option
val set_leg : t -> int -> Cc.Txn.t -> unit
(** Add the leg, or replace it (recovery re-links reinstated legs). *)

val remove_leg : t -> int -> unit
(** Forget the leg on that shard, if any: recovery drops every leg of
    the crashed incarnation, whose [Txn.t] ids the new one reuses. *)

val mark : t -> int
val set_mark : t -> int -> unit
(** An integer that graph walks over global transactions may stamp (0
    when made): the group's deadlock search keeps its DFS colours here,
    with a fresh epoch per search, instead of a visited table. *)

val fanout : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
