(** A minimal binary min-heap keyed by (time, sequence), used as the
    simulator's event queue.  The sequence number makes the pop order
    total and hence the simulation deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Sequence numbers are assigned in push order. *)

val pop : 'a t -> (int * 'a) option
(** The earliest (time, value), ties broken by push order. *)

