(** The durable, crash-safe form of the event log — a write-ahead log.

    {!Weihl_event.Notation} is the readable text form of a history; this
    module frames it for durability.  A WAL is a header line followed by
    one framed record per event:

    {v
      weihl-wal 1
      <crc32:8 hex> <sequence> <event in the paper's notation>
    v}

    The checksum covers the sequence number and the event text, so a
    torn write (a record cut short by a crash mid-write), a truncated
    file, or a flipped bit is detected rather than replayed.

    {!decode} applies the classical WAL recovery rule:

    - a valid prefix followed only by garbage is a {e torn tail} — the
      damaged records are dropped and the intact prefix is returned
      (with {!Torn} reporting how many trailing records were lost);
    - a damaged record followed by any well-framed record is {e mid-log
      corruption} — data demonstrably exists beyond the damage, so
      decoding fails loudly instead of silently dropping committed
      work;
    - a damaged header fails loudly (nothing can be trusted).

    CRC-32 detects every single-bit error, so no single flipped bit can
    make a record silently reparse. *)

open Weihl_event

val magic : string
(** First token of every WAL header: ["weihl-wal 1"].  A header may
    carry a label after the magic (["weihl-wal 1 shard-3"]) naming the
    log — per-shard WALs use it; unlabeled logs keep the legacy
    header. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3) of a string, in [0, 0xFFFFFFFF]. *)

type status =
  | Intact
  | Torn of int  (** trailing records dropped by tail truncation *)

type error = { record : int; reason : string }
(** [record] is the 0-based index of the offending record (-1 for the
    header). *)

val pp_status : Format.formatter -> status -> unit
val pp_error : Format.formatter -> error -> unit

val encode : History.t -> string
(** The durable text of a history: header plus one framed record per
    event, each line terminated by ['\n']. *)

val decode : string -> (History.t * status, error) result
(** Parse a durable text back into the history it records, truncating a
    torn tail and rejecting mid-log corruption or a damaged header.
    Control records (below) are skipped. *)

(** {1 Control records}

    Two-phase commit writes more than events into a participant's WAL:
    a [Prepared] record marks the point of no return (after it, the
    transaction is in-doubt across a crash until a decision is known),
    and a [Decided] record makes the coordinator's decision durable.
    Control records share the event framing — same checksum, same
    sequence numbering — so torn-tail/mid-log classification treats
    them uniformly; their bodies start with ['!'], which no event
    notation does. *)

type control =
  | Prepared of { gid : int; activity : Activity.t }
      (** This participant voted yes for global transaction [gid],
          running locally as [activity]. *)
  | Decided of { gid : int; verdict : [ `Commit of Timestamp.t option | `Abort ] }
      (** The decision for [gid]; a commit carries the agreed commit
          timestamp when the policy assigns one. *)
  | Checkpointed of { seq : int; digest : int }
      (** A checkpoint covering every committed transaction whose
          records lie at sequence numbers [< seq] is durable; [digest]
          is the CRC-32 of its file ({!Checkpoint.digest}).  A
          checkpoint file without a synced marker does not count —
          recovery trusts only marked checkpoints. *)

type record = Event of Event.t | Control of control

val encode_records : ?label:string -> ?base:int -> record list -> string
(** Generalized {!encode}: frame an interleaved stream of events and
    control records, optionally labelling the header.  [base] (default
    0) is the absolute sequence number of the first record — a log
    truncated behind a checkpoint keeps its surviving records'
    original numbering and advertises the offset in the header
    (["weihl-wal 1 shard-3 @512"]).
    @raise Invalid_argument if the label contains a newline or [base]
    is negative. *)

val decode_records : string -> (record list * status, error) result
(** Generalized {!decode}: the full record stream, controls included.
    Sequence validation starts at the header's base offset, so damage
    to the base token itself surfaces as a loud sequence mismatch. *)

(** {1 Streaming segments}

    Log shipping cuts the record stream into {e segments}: each is a
    complete WAL text (header with an absolute [@base], CRC-framed
    records) covering a contiguous slice of the stream, so a replica
    can validate and splice it with the same machinery recovery uses on
    a whole log.  The difference from a durable log on disk: a segment
    travels over a network, so a torn tail is not a crash artifact to
    truncate — it is damage in flight, and the receiver must refuse the
    segment and resync rather than apply a prefix. *)

val segment : ?label:string -> base:int -> record list -> string
(** Frame a slice of a record stream for shipping; [base] is the
    absolute position of the slice's first record.  Same text format as
    {!encode_records}. *)

val decode_segment :
  expected_base:int -> string -> (record list, error) result
(** Decode a shipped segment, requiring that it decodes {!Intact} and
    starts exactly at [expected_base].  Any damage — checksum mismatch,
    torn tail, bad header, wrong base — is an error: a receiver never
    applies part of a damaged segment. *)

val records_from : pos:int -> string -> (record list, error) result
(** The records of a durable text at absolute positions [>= pos] — the
    tail a resuming replica needs.  Errors if [pos] is below the text's
    base (those records were truncated away behind a checkpoint and
    can only come from a snapshot) or the text is damaged; a torn tail
    is truncated as in {!decode_records}.  Returns [[]] when [pos] is
    at or past the end. *)

val take : int -> 'a list -> 'a list
(** The first [n] elements (all of them if fewer) — the prefix helper
    every record-stream cut shares. *)

val drop_n : int -> 'a list -> 'a list
(** Everything after the first [n] elements. *)

val label : string -> string option
(** The header label of a durable text, if it has one. *)

val base : string -> int
(** The first sequence number of a durable text (0 unless the log was
    truncated behind a checkpoint). *)

(** {1 Group commit}

    A {!Writer} splits the WAL's write path into its two real halves:
    {!Writer.append} buffers a framed record in volatile memory, and
    {!Writer.sync} makes {e everything} buffered durable in one device
    operation.  Concurrently-committing transactions on a shard append
    their records and a single leader syncs once for the whole batch —
    classic group commit, amortizing the device latency so that
    syncs/commit drops below 1 under load.

    The contract that makes this safe: the durable image after a crash
    is exactly {!Writer.synced_text}; records appended but not yet
    covered by a returned [sync] are {e lost}.  A commit therefore must
    not be acknowledged until the sync covering its records returns.
    Writers are domain-safe (mutex-guarded), and the device latency
    [sync_cost] is paid outside the lock so syncs on different shards'
    writers overlap in wall-clock time. *)

module Writer : sig
  type t

  val create : ?label:string -> ?sync_cost:(unit -> unit) -> unit -> t
  (** An empty log (header only).  [sync_cost] models the device sync
      latency (e.g. a 200µs sleep standing in for an fsync); it is paid
      once per {!sync}, not per record.
      @raise Invalid_argument if the label contains a newline. *)

  val append : t -> record -> unit
  (** Buffer one record.  Volatile until the next {!sync} returns. *)

  val append_list : t -> record list -> unit

  val sync : t -> int
  (** Make every buffered record durable; returns the batch size (the
      number of records this sync covered, possibly 0). *)

  val pending : t -> int
  (** Records appended but not yet durable. *)

  val synced_text : t -> string
  (** The durable image — what a crash right now would leave behind.
      Always decodes {!Intact}. *)

  val text : t -> string
  (** The full image including the unsynced tail (what a sync right now
      would make durable).  For inspection, not recovery. *)

  val synced_records : t -> int
  val appends : t -> int
  val syncs : t -> int
end
