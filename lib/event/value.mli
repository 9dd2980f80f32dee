(** Values exchanged between activities and objects.

    Operation arguments and results in Weihl's model are drawn from an
    uninterpreted universe; objects give them meaning through their
    specifications.  We fix a small concrete universe that is rich
    enough for every abstract data type in the paper (integer sets,
    counters, bank accounts, FIFO queues) and for the extra types built
    on top of them. *)

type t =
  | Unit                (** the result of operations such as [ok] that carry no data *)
  | Bool of bool        (** e.g. the result of [member] *)
  | Int of int          (** e.g. the result of [increment] or [balance] *)
  | Sym of string       (** symbolic results such as [ok] or [insufficient_funds] *)
  | List of t list      (** aggregate results, e.g. an audit snapshot *)
  | Pair of t * t       (** pairs, e.g. a key/value binding *)

val ok : t
(** The conventional normal-termination result, written [ok] in the paper. *)

val insufficient_funds : t
(** The abnormal termination of [withdraw] in the bank-account example. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_buffer : Buffer.t -> t -> unit
(** The one printer: [()], [true], [-3], [ok], [[1; 2]], [(1, ok)].
    It writes straight into the buffer, with no break hints, so the
    text is always one line. *)

val to_string : t -> string
(** {!to_buffer} into a fresh buffer. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
