(** Critical-path analysis of exported traces.

    Feed it the events of a Chrome trace produced by this repo — a
    single-system {!Trace} or a merged cross-shard {!Shard_trace} — and
    it attributes every committed transaction's wall-clock interval
    [begin, end] to two phases:

    - {e lock wait} — the union of the ["wait"] spans of the
      transaction's legs, clipped to the interval;
    - {e execution} — the remainder.

    The two phases partition the interval exactly and always sum to
    the transaction's total.  A commit adds no phase of its own: commit
    waves stamp their 2PC messages at the coordinator's virtual time
    and a WAL sync takes none, so a cross-shard commit's cost shows in
    the waits it causes and the execution it delays. *)

type breakdown = { wait : float; exec : float }

val breakdown_total : breakdown -> float

type txn = {
  name : string;  (** the span name, e.g. ["txn u5"] *)
  gid : int;  (** global id (coordinator traces) or local txn id *)
  t_begin : float;
  t_end : float;
  total : float;
  fanout : int;  (** shard legs matched to this transaction *)
  phases : breakdown;
}

type stats = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type report = {
  txns : txn list;  (** committed transactions, in begin order *)
  committed : int;
  events : int;  (** events analyzed *)
  cross_shard : bool;
      (** true when the trace has a coordinator timeline (pid 0) *)
  phase_stats : (string * stats) list;
      (** per-phase distribution over committed transactions: ["wait"],
          ["exec"] and ["total"] *)
}

val analyze : Trace.ev list -> report
(** Events may arrive in any order; aborted transactions and unmatched
    begin/end pairs are skipped. *)

val top_slowest : report -> int -> txn list
(** The k slowest committed transactions by total duration. *)

val render : ?top:int -> report -> string
(** Human-readable report: summary, per-phase percentile table and the
    [top] (default 5) slowest transactions with their breakdowns. *)

val to_json : ?top:int -> report -> Json.t
