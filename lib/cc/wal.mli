(** The durable, crash-safe form of the event log — a write-ahead log.

    {!Weihl_event.Notation} is the readable text form of a history; this
    module frames it for durability.  A WAL is a header line followed by
    one framed record per event:

    {v
      weihl-wal 1
      <crc32:8 hex> <sequence> <event in the paper's notation>
    v}

    The notation names an event's activity but not its kind, which the
    parser reads off the name by the paper's convention
    ({!Weihl_event.Notation.default_read_only}).  An event whose
    activity breaks the convention — an update named [seed1], a
    read-only [q12] — is written with an explicit kind tag, [r] or
    [u], before its notation, so it decodes with the kind it was
    written with.

    The checksum covers the sequence number and the event text, so a
    torn write (a record cut short by a crash mid-write), a truncated
    file, or a flipped bit is detected rather than replayed.

    Every reader of record lines — {!decode_records}, {!check_segment}
    and {!iter_records} — goes through one line walker.  From a byte
    offset it takes each line up to its newline (a last line without
    one up to the end of the text) as the next record, and checks it in
    place, without copying the line: the framing (an eight-digit hex
    CRC field and a space), the CRC over the rest of the line, and the
    sequence number, which must be the one after the previous record's
    (the header's base for the first).  A line's record text goes to
    the notation parser only when the caller wants records; the walker
    stops at the first line that fails.

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
(** CRC-32 (IEEE 802.3) of a string, in [0, 0xFFFFFFFF]: slicing-by-4,
    four bytes per step over one 1,024-entry table (8 KB). *)

val crc32_sub : string -> pos:int -> len:int -> int
(** [crc32_sub s ~pos ~len] is [crc32 (String.sub s pos len)], read in
    place.
    @raise Invalid_argument if [pos] and [len] do not name a range of
    [s]. *)

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
    to the base token surfaces as a sequence mismatch at the first
    record, loud when a well-framed record follows it.  The header
    carries no CRC: in a log of one or two records a damaged base or
    header newline can read as a torn tail or an empty log. *)

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

val check_segment : string -> (int * int, error) result
(** Check a shipped segment without decoding it: [Ok (base, n)] when the
    header is a WAL header and every line after it is intact — framed,
    its CRC matching, numbered [base], [base + 1], ... — holding [n]
    records.  One pass over the bytes, and no record is built.  Damage
    to a record line — a checksum mismatch, a torn or cut line, a
    sequence gap — is an error, and so is a damaged magic or a damaged
    base that no longer matches the first line's number.

    Two kinds of damage leave a text that reads as another, intact
    segment.  A segment cut just after a newline reads as a shorter
    one.  The header carries no CRC: a flipped header newline runs the
    header on into the first record line, whose last token is no
    [@base], so a one-record segment reads as [Ok (0, 0)]; and a
    damaged base of a segment with no records reads as base 0.  A
    receiver that knows where the segment ends checks [base + n]
    against that end; the replica tier ships it beside each segment.

    It accepts exactly the texts {!decode_records} decodes {!Intact},
    with [n] their record count.  What it leaves out is the notation
    parse: a line whose CRC holds came from the encoder, whose output
    the notation round-trip covers, so parsing is left to the reader
    that needs the records ({!iter_records}), which fails loudly if a
    line still does not parse.  A text cut inside its header line has
    base 0, as {!base} reads it. *)

val iter_records :
  pos:int -> seq:int -> (record -> unit) -> string -> (int, error) result
(** [iter_records ~pos ~seq f text] parses the record lines of [text]
    from byte [pos] on — a run of lines without a header, the first
    numbered [seq] — where they lie, and calls [f] on each record in
    order.  [Ok n]: the run held [n] records.  Each line is checked as
    {!check_segment} checks it, and the first that fails, or does not
    parse, ends the walk with its error ([f] has seen the records
    before it). *)

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
