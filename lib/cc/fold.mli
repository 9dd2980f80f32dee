(** The committed projection of a record stream, folded into
    per-object state.

    One stream's committed updates, folded into one
    {!Weihl_spec.Seq_spec.frontier} per object in the order recovery
    replays them: commit order for dynamic atomicity, timestamp order
    up to a mark for the static and hybrid policies.  Two readers keep
    one: a shard's checkpoint capture ({!Checkpoint.capture}), whose
    state becomes the checkpoint's rebuild transaction, and a replica,
    which answers snapshot reads from it.

    {!feed} tracks each update activity's completed operations in
    program order (an invocation followed by its response on the same
    object, as recovery pairs them) and its first timestamped event
    (the initiation under [`Static], the commit under [`Hybrid], as
    {!Weihl_event.History.timestamp_of} reads it).  Read-only
    activities are skipped and an [Abort] drops the activity.  Under
    commit order an activity's first [Commit] folds it at once; under
    timestamp order it stages the activity at its timestamp (a commit
    without one is dropped, as recovery drops it), and {!upto} folds
    every staged activity at or below the new mark, lowest first.

    The fold is {e broken} — it holds no true state any more — when a
    commit arrives at or below the folded mark (the mark certified a
    state that missed it) or a logged result is one the object's
    specification rules out.  Neither happens in a correct run. *)

open Weihl_event

type t

val create :
  ts_ordered:bool -> spec:(Object_id.t -> Weihl_spec.Seq_spec.t option) -> t
(** An empty fold.  [spec] names each object's sequential
    specification; [None] marks an unknown object. *)

val feed : t -> Event.t -> unit
(** Track one event of the stream, in stream order. *)

val apply : t -> (Object_id.t * Operation.t * Value.t) list -> unit
(** Fold one committed transaction's operations now, in the caller's
    order — for a projection that is already in serialization order. *)

val upto : t -> int -> unit
(** Raise the mark to [h] — a no-op unless [h] is above it — folding
    the staged activities with timestamp [<= h].  Nothing is staged
    under commit order. *)

val mark : t -> int
(** The highest mark folded to; [-1] before the first. *)

val broken : t -> string option
(** Why the fold no longer holds the committed state, if it does
    not. *)

val frontier : t -> Object_id.t -> Weihl_spec.Seq_spec.frontier option
(** The object's state as of the mark: its folded frontier, or the
    specification's start for an object no folded update touched;
    [None] for an unknown object. *)

val iter_moved :
  t -> (Object_id.t -> Weihl_spec.Seq_spec.frontier -> unit) -> unit
(** [iter_moved t f] applies [f] to every object a folded update has
    moved, with its frontier as of the mark, in no particular order.
    Folding an update replaces the object's frontier and never mutates
    it, so while an object's frontier is physically the one a caller
    derived something from, that derivation still holds. *)

val rebuild :
  t -> ((Object_id.t * (Operation.t * Value.t) list) list, string) result
(** Every object whose folded state is not its specification's start,
    in object order, with the operations that rebuild it
    ({!Weihl_spec.Seq_spec.rebuild}), each derived afresh. *)

val of_events :
  ts_ordered:bool ->
  spec:(Object_id.t -> Weihl_spec.Seq_spec.t option) ->
  Event.t list ->
  t
(** A fold fed a whole stream and raised past every timestamp: the
    committed state its events reach. *)

val diff : t -> t -> string option
(** [None] when every object either fold touched has the same state in
    both, compared through {!Weihl_spec.Seq_spec.rebuild}; otherwise a
    one-line description of the first object that differs, in object
    order.  A broken fold differs from every fold. *)
