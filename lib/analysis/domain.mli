(** Bounded probe domains: the certifier's view of each registry ADT
    ({!Weihl_adt.Adt_registry.entries}), with the finite operation
    alphabet the registry states for it — rich enough to exercise every
    conflict class of its hand-written table on small argument values.

    Everything the certifier derives is quantified over these alphabets
    and over serial setups built from them, so the alphabets fix the
    soundness/completeness bound of the whole analysis: a table or
    grant-rule error only shows up if some pair of alphabet operations
    witnesses it. *)

open Weihl_event

type t = {
  name : string;  (** the registry name, e.g. ["intset"] *)
  spec : Weihl_spec.Seq_spec.t;
  alphabet : Operation.t list;
  commutes : Operation.t -> Operation.t -> bool;
      (** the hand-written table under certification *)
  read_only : Operation.t -> bool;
      (** from the ADT's read/write classification *)
}

val all : t list
(** One domain per registry ADT, in {!Weihl_adt.Adt_registry.entries}
    order. *)

val find : string -> t option

val find_exn : string -> t
(** @raise Invalid_argument on an unknown name. *)
