(** Umbrella module: the full public API of the Weihl-83 reproduction.

    {1 The formal model (Section 2)}

    Events, histories and their derived notions live in [Weihl_event]:
    {!Value}, {!Operation}, {!Activity}, {!Object_id}, {!Timestamp},
    {!Event}, {!History}, {!Wellformed}.

    {1 Specifications and atomicity (Sections 3-4)}

    Sequential specifications and the four decision procedures live in
    [Weihl_spec]: {!Seq_spec}, {!Spec_env}, {!Acceptance}, {!Orders},
    {!Serializability}, {!Atomicity}.

    {1 Abstract data types}

    The paper's example objects and friends: {!Intset}, {!Counter},
    {!Bank_account}, {!Fifo_queue}, {!Register}, {!Kv_map},
    {!Semiqueue}.

    {1 Online protocols (Sections 4-5)}

    {!Op_locking} (the scheduler-model baselines), {!Escrow_account},
    {!Da_set}, {!Da_queue} (data-dependent dynamic atomicity),
    {!Multiversion} (static atomicity, Reed), {!Hybrid} (hybrid
    atomicity), coordinated by {!System}.

    {1 Simulation}

    Deterministic workload simulation: {!Rng}, {!Stats}, {!Workload},
    {!Driver}.

    {1 Static analysis}

    The spec-derived conflict certifier lives in [Weihl_analysis]:
    {!Lint} runs it (per-ADT {!Table_cert} certificates over
    {!Lint_domain} alphabets, per-protocol {!Lint_probe} certificates
    over the {!Lint_catalog} family), and {!Lint_mutation} is its
    self-test.  {!Synthesize} compiles the derived relation into
    runnable [derived_*] lock tables ({!Synthesize_table},
    {!Derived_locking}).  The [weihl lint] / [weihl synth] subcommands
    are the CLI face.

    {1 Observability}

    Metrics, Chrome-trace export and contention diagnostics live in
    [Weihl_obs], re-exported as {!Obs}: install
    [Obs.Recorder.sink] as a probe on a {!System} (directly, through
    {!Driver.run}'s [?probe], or {!Concurrent.set_probe}) and read
    back {!Obs.Recorder.report} / {!Obs.Recorder.export_trace}. *)

module Value = Weihl_event.Value
module Operation = Weihl_event.Operation
module Activity = Weihl_event.Activity
module Object_id = Weihl_event.Object_id
module Timestamp = Weihl_event.Timestamp
module Event = Weihl_event.Event
module History = Weihl_event.History
module Wellformed = Weihl_event.Wellformed
module Notation = Weihl_event.Notation

module Seq_spec = Weihl_spec.Seq_spec
module Spec_env = Weihl_spec.Spec_env
module Acceptance = Weihl_spec.Acceptance
module Orders = Weihl_spec.Orders
module Serializability = Weihl_spec.Serializability
module Atomicity = Weihl_spec.Atomicity
module Enumerate = Weihl_spec.Enumerate
module Validator = Weihl_spec.Validator
module Optimality = Weihl_theory.Optimality
module Commutativity_check = Weihl_theory.Commutativity
module Explore = Weihl_theory.Explore
module Synthesize_table = Weihl_theory.Synthesize

module Adt_sig = Weihl_adt.Adt_sig
module Intset = Weihl_adt.Intset
module Counter = Weihl_adt.Counter
module Bank_account = Weihl_adt.Bank_account
module Fifo_queue = Weihl_adt.Fifo_queue
module Register = Weihl_adt.Register
module Kv_map = Weihl_adt.Kv_map
module Semiqueue = Weihl_adt.Semiqueue
module Adt_registry = Weihl_adt.Adt_registry
module Stack = Weihl_adt.Stack
module Priority_queue = Weihl_adt.Priority_queue
module Blind_counter = Weihl_adt.Blind_counter
module Append_log = Weihl_adt.Append_log

module Txn = Weihl_cc.Txn
module Event_log = Weihl_cc.Event_log
module Atomic_object = Weihl_cc.Atomic_object
module Obj_log = Weihl_cc.Obj_log
module Intentions = Weihl_cc.Intentions
module Lamport_clock = Weihl_cc.Lamport_clock
module Op_locking = Weihl_cc.Op_locking
module Escrow_account = Weihl_cc.Escrow_account
module Da_set = Weihl_cc.Da_set
module Da_queue = Weihl_cc.Da_queue
module Da_kv = Weihl_cc.Da_kv
module Da_counter = Weihl_cc.Da_counter
module Rw_undo = Weihl_cc.Rw_undo
module Da_generic = Weihl_cc.Da_generic
module Da_semiqueue = Weihl_cc.Da_semiqueue
module Derived_locking = Weihl_cc.Derived_locking
module Multiversion = Weihl_cc.Multiversion
module Hybrid = Weihl_cc.Hybrid
module Hybrid_account = Weihl_cc.Hybrid_account
module Recovery = Weihl_cc.Recovery
module Wal = Weihl_cc.Wal
module Checkpoint = Weihl_cc.Checkpoint
module Waits_for = Weihl_cc.Waits_for
module System = Weihl_cc.System

module Concurrent = Weihl_runtime.Concurrent
module Sharded = Weihl_runtime.Sharded

module Msim = Weihl_dist.Msim
module Tpc = Weihl_dist.Tpc

module Fault_plan = Weihl_fault.Plan
module Fault_harness = Weihl_fault.Harness
module Shard_plan = Weihl_fault.Shard_plan

module Shard_router = Weihl_shard.Router
module Gtxn = Weihl_shard.Gtxn
module Shard_group = Weihl_shard.Group
module Shard_mailbox = Weihl_shard.Mailbox
module Shard_exec = Weihl_shard.Exec
module Sharded_driver = Weihl_shard.Sharded_driver
module Shard_harness = Weihl_shard.Shard_harness

module Replica_projection = Weihl_replica.Projection
module Replica_tier = Weihl_replica.Tier
module Replica_drill = Weihl_replica.Drill

module Lint_domain = Weihl_analysis.Domain
module Lint_catalog = Weihl_analysis.Catalog
module Table_cert = Weihl_analysis.Table_cert
module Lint_probe = Weihl_analysis.Probe
module Lint_xprobe = Weihl_analysis.Xprobe
module Lint = Weihl_analysis.Certify
module Lint_mutation = Weihl_analysis.Mutation
module Synthesize = Weihl_analysis.Synthesize

module Rng = Weihl_sim.Rng
module Stats = Weihl_sim.Stats
module Pqueue = Weihl_sim.Pqueue
module Workload = Weihl_sim.Workload
module Driver = Weihl_sim.Driver

module Obs = Weihl_obs
