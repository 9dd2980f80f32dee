(** Histories: finite sequences of events, the paper's computations.

    All of the paper's derived notions live here: the projections [h|x]
    and [h|a], the committed projection [perm(h)], the update
    projection [updates(h)], the [precedes(h)] relation of Section 4.1,
    and equivalence of histories.

    The representation is indexed: [append] is O(1), and the derived
    views ([project_object], [project_activity], [activities],
    [objects], [committed], [perm], [precedes], [timestamp_of]) are
    answered from lazily built per-object/per-activity indexes that
    [append] extends incrementally once built, instead of re-scanning
    the whole event list on every query.  Observable behaviour is
    identical to the naive list-scan definitions, which are retained in
    {!Reference} as an equivalence oracle. *)

type t
(** A history is an event sequence in temporal order. *)

val empty : t
val append : t -> Event.t -> t

val of_list : Event.t list -> t
val to_list : t -> Event.t list
(** [to_list h] is the event sequence in temporal order (head first). *)

val length : t -> int
val equal : t -> t -> bool

val slice : t -> from:int -> upto:int -> Event.t list
(** [slice h ~from ~upto] is events [from .. upto - 1] of [h] in
    temporal order.  It walks in from the newest end, so it costs
    O([length h - from]), and it builds no memo: reading the recent
    tail of a long history is cheap and leaves nothing behind.
    @raise Invalid_argument unless [0 <= from <= upto <= length h]. *)

val project_object : Object_id.t -> t -> t
(** [project_object x h] is the paper's [h|x]: the subsequence of [h]
    consisting of all events in which [x] participates. *)

val project_activity : Activity.t -> t -> t
(** [project_activity a h] is the paper's [h|a]. *)

val activities : t -> Activity.t list
(** All activities participating in [h], in order of first appearance. *)

val objects : t -> Object_id.t list
(** All objects participating in [h], in order of first appearance. *)

val committed : t -> Activity.Set.t
(** Activities that commit (at some object) in [h]. *)

val aborted : t -> Activity.Set.t
(** Activities that abort (at some object) in [h]. *)

val active : t -> Activity.Set.t
(** Activities that neither commit nor abort in [h]. *)

val perm : t -> t
(** [perm h] is the subsequence of [h] consisting of all events
    involving activities that commit in [h], and no others
    (Section 3). *)

val updates : t -> t
(** [updates h] is the subsequence of [h] consisting of all events
    involving update activities (Section 4.3.2). *)

val equivalent : t -> t -> bool
(** [equivalent h k] iff every activity has the same view in both:
    [h|a = k|a] for every activity [a] (Section 3). *)

val precedes : t -> (Activity.t * Activity.t) list
(** [precedes h] is the relation of Section 4.1:
    [(a,b) ∈ precedes(h)] iff there exists an operation invoked by [b]
    that terminates after [a] commits, with [a ≠ b].  Returned as a
    duplicate-free association list. *)

val precedes_mem : t -> Activity.t -> Activity.t -> bool
(** [precedes_mem h a b] iff [(a,b) ∈ precedes(h)].  O(log n) against
    the precedes index, unlike scanning the [precedes] list. *)

val timestamp_of : t -> Activity.t -> Timestamp.t option
(** The timestamp attached to [a]'s timestamp events (initiations, or
    timestamped commits) in [h], if any.  Well-formed histories give
    each activity at most one distinct timestamp. *)

val timestamp_order : t -> Activity.t list option
(** The committed activities of [h] sorted by their timestamps;
    [None] if some committed activity lacks a timestamp. *)

val serial : t -> bool
(** Whether [h] is serial: events of different activities are not
    interleaved (Section 3). *)

val is_prefix : t -> t -> bool
(** [is_prefix p h] iff [p] is a prefix of [h]. *)

val concat_serial : Activity.t list -> t -> t
(** [concat_serial order h] builds the serial history obtained by
    concatenating the per-activity projections of [h] in the given
    activity order.  Activities of [h] absent from [order] are
    dropped. *)

val iter : (Event.t -> unit) -> t -> unit
(** Iterate over the events in temporal order. *)

val fold_left : ('a -> Event.t -> 'a) -> 'a -> t -> 'a
(** Fold over the events in temporal order. *)

val pp : Format.formatter -> t -> unit
(** One event per line, in the paper's notation. *)

val to_string : t -> string

(** Naive list-scan implementations of the indexed queries, retained as
    an equivalence oracle (property tests check the indexed queries
    against these on random histories) and as the benchmark's naive
    arm.  Semantics are the pre-index definitions, verbatim. *)
module Reference : sig
  val project_object : Object_id.t -> t -> t
  val project_activity : Activity.t -> t -> t
  val activities : t -> Activity.t list
  val objects : t -> Object_id.t list
  val committed : t -> Activity.Set.t
  val aborted : t -> Activity.Set.t
  val active : t -> Activity.Set.t
  val perm : t -> t
  val precedes : t -> (Activity.t * Activity.t) list
  val precedes_mem : t -> Activity.t -> Activity.t -> bool
  val timestamp_of : t -> Activity.t -> Timestamp.t option
end
