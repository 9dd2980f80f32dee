(** The instrumentation hook: a stream of protocol-level events.

    The transaction manager (and anything else that wants to be
    observable) emits {!event}s into an installed {!sink}.  When no
    sink is installed the instrumented code skips event construction
    entirely, so the hooks cost one branch on the hot path.

    Identifiers are plain [int]s and [string]s — the probe layer knows
    nothing about the event model, so it can sit below every other
    library in the tree. *)

type event =
  | Txn_begin of { txn : int; name : string; read_only : bool }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; reason : string }
  | Op_invoke of { txn : int; obj : string; op : string; depth : int }
      (** An invocation attempt; [depth] is the number of transactions
          holding state at the object when the attempt was made. *)
  | Op_grant of { txn : int; obj : string; op : string }
  | Op_wait of { txn : int; obj : string; op : string; blockers : int list }
  | Op_refuse of { txn : int; obj : string; op : string; why : string }
  | Deadlock_victim of { victim : int; cycle : int list }
  | Gauge_set of { name : string; value : float }
      (** A sampled gauge (blocked clients, queue depth, …). *)
  | Count of { name : string; site : int }
      (** A named occurrence at a site — distributed-protocol phase
          counters. *)

type sink = { emit : time:float -> event -> unit }
(** [time] is supplied by whoever installs the sink: simulation ticks
    in the discrete-event driver, microseconds in the multicore
    runtime. *)

val tee : sink list -> sink
(** Fan an event out to several sinks in order. *)
