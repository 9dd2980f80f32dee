(** A structured trace sink: spans per transaction and per operation,
    exported as Chrome-trace JSON (loadable in [chrome://tracing] and
    Perfetto).

    Feed it {!Probe} events (via {!sink}) and it assembles:

    - a [B]/[E] span per transaction (begin → commit/abort),
    - an [X] (complete) span per granted operation (first invocation
      attempt → grant),
    - an [X] span per wait interval (first blocked attempt → grant,
      refusal or abort), in category ["wait"],
    - instant events for refusals and deadlock victims,
    - counter ([C]) events for sampled gauges.

    The emitted JSON is the "JSON array format": every element carries
    at least [name], [ph], [ts], [pid] and [tid].  {!parse} reads that
    format back, so traces round-trip for testing.

    Beyond Probe assembly, a trace is also an open event buffer: {!add}
    appends an arbitrary event, including flow events ([S]/[F], bound
    by [id]) that stitch causally-related slices across processes —
    how the sharded runtime draws coordinator→participant message
    arrows. *)

type phase = B | E | X | I | C | S | F

type ev = {
  name : string;
  cat : string;
  ph : phase;
  ts : float;
  dur : float option; (** only for [X] events *)
  pid : int;
  tid : int;
  id : int option; (** flow binding: an [S] and its [F] share an id *)
  args : (string * Json.t) list;
}

type t

val create : ?pid:int -> unit -> t
(** [pid] (default 1) stamps every event this trace assembles — one
    trace per simulated process, merged by concatenation. *)

val sink : t -> Probe.sink

val pid : t -> int

val add : t -> ev -> unit
(** Append a hand-built event (flow arrows, custom spans). *)

val events : t -> ev list
(** Completed events, in emission order. *)

val to_json : t -> Json.t
val export : t -> string

val events_to_json : ev list -> Json.t
val export_events : ev list -> string
(** Serialize an explicit event list — e.g. several traces' events
    merged into one cross-shard timeline. *)

val parse : string -> (ev list, string) result
(** Re-read an exported trace; fails on documents that are not an
    array of well-formed trace events. *)

