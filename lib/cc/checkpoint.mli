(** State checkpoints: the committed state as one rebuild transaction.

    Recovery re-executes the committed projection of the WAL in the
    serialization order ({!Recovery}).  A checkpoint replaces a prefix
    of that replay with the state it reaches.  Each shard keeps one
    {!Fold} of its record stream, fed only when a checkpoint is taken,
    with the records since the previous one.  The file holds:

    - one synthetic committed {e rebuild transaction}, whose operations
      take every object the fold changed from its specification's
      [initial] to its folded state ({!Weihl_spec.Seq_spec.rebuild}:
      one [deposit n] per account, one [insert] per set element), and
      which carries the largest folded timestamp, so replay orders it
      first and sets the clock as full replay would;
    - the 2PC in-doubt set at the snapshot, as [Prepared] records;
    - the {e skip set}: the folded activities that still have records
      at or past the redo point, which tail replay must not run again;
    - the WAL sequence number the checkpoint {e covers}, and how many
      committed transactions it folded.

    Restart replays the rebuild transaction and then only the log tail
    at sequence numbers [>= covered], through the one replay engine —
    the rebuilt objects equal serial re-execution of the folded
    transactions, which is the restore obligation of a recoverable
    object.  The WAL prefix behind a durable checkpoint may be
    truncated or archived.

    {2 Fuzziness and consistency}

    A checkpoint is taken between commit waves without stopping
    traffic, so live transactions exist while it is written.  Two rules
    keep it consistent by construction:

    - {e the fold rule} — a committed transaction is folded only once
      it precedes every live and every future transaction in the
      serialization order.  Under commit order that is every committed
      transaction.  Under timestamp order it is those at or below the
      {e mark} the caller supplies: the group's low-water mark, below
      every initiation timestamp a live transaction holds on any shard
      (read-only ones included), below every decided commit an in-doubt
      leg has not applied yet, and below every commit a shard applied
      but has not synced.  A commit fed later at or below a mark already
      folded breaks the fold, and capture fails loudly.
    - {e the redo point} — [covered] is the first record of any
      activity neither folded nor aborted, so the tail at [>= covered]
      holds every record recovery still needs: unfolded committed
      transactions in full, and the events and [Prepared] markers of
      every in-doubt transaction.  Records of folded transactions that
      straddle [covered] are skipped by activity name at replay.

    {2 The file}

    {v
      weihl-ckpt 3 @<covered> <folded> <objects> [label]
      rebuild <none|static|hybrid> <ts> <name>
      skip <n>
      <n skipped activity names, one per line>
      <crc> <object> <op> <result> <op> <result> ...   (<objects> lines)
      weihl-wal 1
      <the in-doubt Prepared records in Wal framing>
    v}

    The rebuild line holds the transaction's policy, timestamp and
    name, so a {e state line} holds only its object and the object's
    rebuild steps: each operation one token (arguments joined by bare
    commas), each followed by its result, all behind a CRC-32 of the
    text after the CRC.  State lines come in object order, one per
    object not at its specification's [initial] state.  Naming neither
    the checkpoint nor a position, an unchanged object's line is the
    same text in every file, which is what lets {!capture} reuse it.

    {2 Durability and damage}

    A checkpoint file only {e counts} once a {!Wal.control.Checkpointed}
    marker carrying its CRC-32 digest is durable in the WAL — a file
    whose write raced a crash has no synced marker and is ignored.
    Every state line and in-doubt record carries its own CRC, the
    in-doubt set must decode [Intact] (a torn tail is damage here, not
    truncation), and the digest ties the file to its marker.  Any
    mismatch makes recovery fall back loudly to an older checkpoint or
    a full-log replay ({!Recovery.restore_checkpointed}) — never
    silently diverge. *)

open Weihl_event

val magic : string
(** First tokens of every checkpoint header: ["weihl-ckpt 3"]. *)

type t

val covered : t -> int
(** The WAL sequence number this checkpoint covers: recovery replays
    only records at [>= covered]. *)

val label : t -> string option
(** The shard label, mirroring the WAL header's. *)

val rebuild : t -> History.t
(** The rebuild transaction's events, the replay prelude: for each
    object, its rebuild operations with their results, then one commit
    per object.  Under [`Static] each object's events open with an
    initiation at the transaction's timestamp; under [`Hybrid] its
    commits carry it.  Empty when no folded transaction changed any
    object. *)

val rebuild_ops : t -> int
(** Operations in the rebuild transaction. *)

val folded : t -> int
(** Committed transactions the rebuild transaction stands for —
    every one folded since the stream began, read-only ones
    included. *)

val skip : t -> string list
(** Folded activities with records at or past [covered], sorted: the
    tail-replay skip set. *)

val in_doubt : t -> (int * Activity.t) list
(** The 2PC in-doubt set at the snapshot, as [(gid, activity)].  Every
    such transaction's records lie in the tail at [>= covered];
    recovery cross-checks this and fails loudly if truncation ever
    violated it. *)

(** {1 Capture} *)

type stream
(** One shard's record stream as far as checkpoints have read it: the
    fold, the position bookkeeping behind the redo point, the skip set
    and the in-doubt set, and each moved object's cached state line. *)

val stream :
  policy:System.ts_policy ->
  spec:(Object_id.t -> Weihl_spec.Seq_spec.t option) ->
  stream
(** An empty stream for a shard incarnation under [policy], whose
    objects' specifications [spec] names. *)

val fed : stream -> int
(** Records fed so far: the position the next {!feed} starts at. *)

val feed : stream -> Wal.record list -> unit
(** Feed the records at positions [fed], [fed + 1], … — synced records
    only, or a crash could leave a checkpoint claiming more than the
    log. *)

type capture = {
  file : string;  (** the durable file, as {!decode} reads it *)
  covered : int;  (** its redo point *)
  objects : int;  (** its state lines: the objects the rebuild sets *)
  rebuild_ops : int;  (** operations in its rebuild transaction *)
  rederived : int;
      (** objects whose state was derived and encoded again for this
          capture; every other state line was reused from the cache *)
}

val capture :
  stream -> mark:int -> name:string -> ?label:string -> unit ->
  (capture, string) result
(** Fold up to [mark] (ignored under commit order), snapshot the
    stream and write the durable file.  [name] names the rebuild
    transaction: it must be unique per shard and per checkpoint.

    The stream caches each moved object's state line with the frontier
    it was derived from ({!Fold.iter_moved}).  A line is reused only
    while its object's frontier is physically that frontier; any other
    object is re-derived ({!Weihl_spec.Seq_spec.rebuild}) and its line
    re-encoded, and an object back at its specification's [initial]
    state writes no line.  So a capture costs one derivation per object
    the fold moved since the previous capture, plus a copy of every
    line.

    [Error] when the fold is broken, a folded state cannot be rebuilt,
    or an object's name is empty or holds a space or a newline.
    @raise Invalid_argument if the label, [name] or a skipped name
    holds a newline. *)

(** {1 The durable file} *)

val digest : string -> int
(** CRC-32 of an encoded checkpoint file — the value carried by its
    {!Wal.control.Checkpointed} marker. *)

val decode : string -> (t, string) result
(** Parse and validate a checkpoint file, each state line once; the
    accessors above only read what it parsed.  Never raises: a damaged
    header, rebuild line or skip set, a state line whose CRC fails or
    whose step does not parse, objects out of order or repeated, a line
    count that disagrees with the header, and any damage to the
    in-doubt set, torn tail included, are each an [Error] with a
    one-line reason — a checkpoint is all-or-nothing, so every failure
    here is a loud reason to fall back, never a prefix to salvage. *)
