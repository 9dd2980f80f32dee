(** A deterministic message-passing simulation: nodes exchange messages
    over a network with seeded random delays; crashed nodes stop
    sending and receiving.  The substrate under {!Tpc}.

    Beyond crashes, the network itself can misbehave: a {!faults}
    record gives per-message probabilities of loss, duplication and
    reordering, all drawn from the same seeded generator so a given
    seed always produces the same failure schedule.  Timers
    ({!set_timer}) are local alarms and never fault. *)

type 'msg t

type faults = {
  drop : float;  (** probability a sent message is lost in transit *)
  duplicate : float;  (** probability a sent message arrives twice *)
  reorder : float;
      (** probability a sent message is delayed past the normal delay
          window, arriving behind later traffic *)
}

val no_faults : faults
(** All probabilities zero — the reliable network of the seed. *)

val create :
  ?min_delay:int -> ?max_delay:int -> ?faults:faults ->
  ?metrics:Weihl_obs.Metrics.Registry.t ->
  seed:int -> nodes:int ->
  handler:('msg t -> node:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** [handler] is invoked on each delivery at a live node.  Delays are
    uniform in [min_delay, max_delay] (defaults 1 and 5); [faults]
    defaults to {!no_faults}.  With a [metrics] registry installed,
    drops, duplicates and reorders tick [msim.*] counters.
    @raise Invalid_argument if a fault probability is outside [0, 1]. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a message.  It is dropped — and counted in
    {!messages_dropped} — if the source is already crashed (a dead node
    sends nothing), if the destination is crashed at delivery time, or
    if the network loses it per [faults.drop]. *)

val set_timer : 'msg t -> node:int -> after:int -> 'msg -> unit
(** Deliver a message from a node to itself after a fixed delay —
    timeouts.  Never subject to message faults. *)

val crash : 'msg t -> int -> unit
val crashed : 'msg t -> int -> bool
val crash_at : 'msg t -> time:int -> int -> unit
(** Schedule a crash at an absolute virtual time. *)

val partition : 'msg t -> int -> int -> unit
(** Cut the (bidirectional) link between two nodes: messages sent
    either way are dropped — and counted under
    [msim.dropped.partition] — until the link heals.  Timers are local
    and unaffected, so timeout-based recovery still runs. *)

val heal : 'msg t -> int -> int -> unit
val heal_all : 'msg t -> unit

val heal_all_at : 'msg t -> time:int -> unit
(** Schedule {!heal_all} at an absolute virtual time. *)

val partitioned : 'msg t -> int -> int -> bool

val now : 'msg t -> int
(** Current virtual time. *)

val messages_delivered : 'msg t -> int

val messages_dropped : 'msg t -> int
(** Messages lost for any reason: crashed source, crashed destination,
    or injected network loss.  The [msim.dropped.crashed_src],
    [msim.dropped.crashed_dst] and [msim.dropped.fault] counters split
    the total by cause. *)

val messages_duplicated : 'msg t -> int
val messages_reordered : 'msg t -> int

val run : ?until:int -> 'msg t -> unit
(** Process deliveries in time order until the queue drains or virtual
    time exceeds [until] (default 100_000). *)
