(** Operation invocations: a named operation together with its actual
    arguments, e.g. [insert(3)] or [withdraw(4)]. *)

type t = { name : string; args : Value.t list }

val make : string -> Value.t list -> t
(** [make name args] builds an operation.  The empty-argument form
    [make "dequeue" []] corresponds to the paper's [<dequeue,x,c>]. *)

val name : t -> string
val args : t -> Value.t list
val equal : t -> t -> bool
val compare : t -> t -> int
val to_buffer : Buffer.t -> t -> unit
(** The one printer: [insert(3)], [transfer(1, 2)], or the bare name
    when there are no arguments.  Always one line. *)

val to_string : t -> string
(** {!to_buffer} into a fresh buffer. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
