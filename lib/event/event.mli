(** Events, the atoms of Weihl's model of computation.

    A computation is a finite sequence of events.  An event is the
    invocation of an operation on an object by an activity, the
    termination of an invocation, the commit or abort of an activity at
    an object, or (Sections 4.2.1 and 4.3.1) the initiation of an
    activity at an object with a timestamp.

    Commit events optionally carry a timestamp: plain commits
    ([<commit,x,a>]) are used for dynamic and static atomicity, while
    hybrid atomicity timestamps updates at commit
    ([<commit(t),x,a>]). *)

type t =
  | Invoke of Activity.t * Object_id.t * Operation.t
      (** [<op(args),x,a>] — activity [a] invokes [op] on [x]. *)
  | Respond of Activity.t * Object_id.t * Value.t
      (** [<res,x,a>] — the pending invocation of [a] at [x] terminates
          with result [res]. *)
  | Commit of Activity.t * Object_id.t * Timestamp.t option
      (** [<commit,x,a>] or [<commit(t),x,a>]. *)
  | Abort of Activity.t * Object_id.t
      (** [<abort,x,a>]. *)
  | Initiate of Activity.t * Object_id.t * Timestamp.t
      (** [<initiate(t),x,a>]. *)

val invoke : Activity.t -> Object_id.t -> Operation.t -> t
val respond : Activity.t -> Object_id.t -> Value.t -> t
val commit : Activity.t -> Object_id.t -> t
val commit_ts : Activity.t -> Object_id.t -> Timestamp.t -> t
val abort : Activity.t -> Object_id.t -> t
val initiate : Activity.t -> Object_id.t -> Timestamp.t -> t

val activity : t -> Activity.t
(** The activity participating in the event. *)

val object_id : t -> Object_id.t
(** The object participating in the event. *)

val is_invoke : t -> bool
val is_respond : t -> bool
val is_commit : t -> bool
val is_initiate : t -> bool

val timestamp : t -> Timestamp.t option
(** The timestamp carried by the event, if any (initiations always
    carry one; commits may). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_buffer : Buffer.t -> t -> unit
(** The one printer: the paper's notation, e.g. [<insert(3),x,a>],
    written straight into the buffer.  An event is always one line —
    the WAL frames one event per line on top of it. *)

val to_string : t -> string
(** {!to_buffer} into a fresh buffer. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
