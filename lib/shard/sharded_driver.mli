(** The deterministic workload driver over a shard {!Group}.

    Transactions are scripts drawn from a {!Weihl_sim.Workload}; each
    runs against the group facade — legs opening on whichever shards
    the router picks — and commits with no coordination round on one
    shard or by 2PC across several.  One job record, one script-step
    rule (grant, [continue_if], wait budget, refusal, restart,
    give-up), one deadlock-victim routine and one outcome serve two
    schedulers:

    - {!run}, the virtual-time event loop.  Arrivals are a closed loop
      of [Clients n] that each draw their next script when the last one
      finishes, or an open loop of seeded [Poisson rate] arrivals that
      keep coming however many are already in flight — the view that
      shows where the group saturates, which a self-throttling closed
      loop cannot.  Each transaction commits on its own through
      [on_commit] ({!Group.commit} by default).
    - {!run_rounds}, the round loop.  An in-flight window of [inflight]
      transactions advances one operation per round through
      {!Group.invoke_batch} (one mailbox job per shard, in parallel on
      the shard domains), cross-shard deadlocks are broken between
      rounds, and every finished program commits in the round's single
      {!Group.commit_batch}, so one WAL sync per shard covers the whole
      wave.

    Both are deterministic per seed: scripts, arrivals and retries draw
    from one generator, and deadlock victims are picked by gid.  The
    round loop's batch order is start order and per-shard execution
    order equals batch order at any domain count, so its outcome is the
    same at [~domains:1] and [~domains:8] — only [elapsed] changes.

    Cross-shard deadlocks are broken by aborting the youngest member of
    a cycle in the merged waits-for graph.  A transaction blocked with
    no cycle to break — typically behind an in-doubt prepared leg that
    only recovery can resolve — aborts as starved once its wait budget
    is spent, so every run terminates.  Retry budgets are constants of
    each scheduler: 3 restarts and 50 consecutive blocked retries in the
    event loop; 8 restarts and 64 blocked rounds per attempt in the
    round loop. *)

type arrivals =
  | Clients of int  (** closed loop: this many clients *)
  | Poisson of float  (** open loop: mean arrivals per tick *)

type config = {
  arrivals : arrivals;  (** event loop *)
  duration : int;  (** event loop: virtual ticks *)
  window : int;  (** ticks (or rounds) per time-series window *)
  jobs : int;  (** round loop: transactions to run to completion *)
  inflight : int;  (** round loop: open-transaction window *)
  activity_base : int;
      (** offset for generated activity names — keeps phases of a
          crash/recovery schedule from colliding *)
  seed : int;
}

val default_config : config
(** 6 clients, 1500 ticks, windows of 250, 400 jobs in a window of 32,
    seed 42. *)

type window = {
  w_start : int;
  w_arrivals : int;
  w_committed : int;
  w_aborted : int;  (** gave up or left in doubt *)
  w_p50 : float;  (** exact, over latencies completing in the window *)
  w_p99 : float;
}

type outcome = {
  started : int;  (** scripts drawn from the workload *)
  committed : int;
  committed_read_only : int;
  committed_multi : int;  (** commits that ran 2PC (fanout >= 2) *)
  aborted_deadlock : int;
  aborted_refused : int;
  aborted_starved : int;
  aborted_tpc : int;  (** commits that decided abort *)
  gave_up : int;  (** scripts abandoned with their restart budget spent *)
  in_doubt : int;  (** transactions whose commit ended in doubt *)
  waits : int;
  restarts : int;
  shard_latency : Weihl_obs.Metrics.Histogram.t array;
      (** commit latency (commit time - draw time) by home shard — the
          shard of the script's first object *)
  windows : window list;
  ticks : int;  (** virtual ticks, or rounds in the round loop *)
  elapsed : float;  (** monotonic wall-clock seconds *)
}

val in_flight : outcome -> int
(** Scripts still open when the run ended. *)

val latency : outcome -> Weihl_obs.Metrics.Histogram.t
(** Group-wide commit latency: the per-shard histograms merged. *)

val run :
  ?config:config ->
  ?tracer:Weihl_obs.Shard_trace.t ->
  ?on_commit:(Group.t -> Gtxn.t -> nth_multi:int -> unit) ->
  Group.t ->
  Weihl_sim.Workload.t ->
  outcome
(** The event loop.  [on_commit] intercepts every commit; [nth_multi]
    counts multi-shard attempts (1-based), so a harness can inject a
    fault into exactly the k-th 2PC round.  With [tracer], the driver
    points its virtual clock at the trace and installs it on the group
    ({!Group.set_tracer}), so the run yields a merged cross-shard
    Chrome trace.
    @raise Invalid_argument unless the Poisson rate and the window are
    positive. *)

val run_rounds : ?config:config -> Group.t -> Weihl_sim.Workload.t -> outcome
(** The round loop, until [config.jobs] transactions have finished
    (committed, given up or left in doubt).  The caller owns the group:
    create it with the desired [domains] / [group_commit] / [sync_cost]
    and {!Group.shutdown} it afterwards.
    @raise Invalid_argument if [jobs] is negative or [inflight] or
    [window] not positive. *)

val pp : Format.formatter -> outcome -> unit
