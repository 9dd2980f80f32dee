(** The catalogue of built-in ADTs — the one list of them in the
    repository — and the operation-name heuristic that guesses an
    object's type from a history.  The certifier's probe domains, the
    synthesized [derived_<adt>] tables and the CLI's [--spec] names are
    all views of {!entries}. *)

type entry = {
  name : string;  (** the CLI name, e.g. ["intset"] *)
  adt : (module Adt_sig.S);
      (** the specification, hand-written commutativity table and
          read/write classification *)
  alphabet : Weihl_event.Operation.t list;
      (** the certifier's bounded probe alphabet: small argument
          values that exercise every conflict class of the hand-written
          table; the [derived_<adt>] table is compiled over it *)
}

val entries : entry list
(** One entry per built-in ADT: [intset], [counter], [account],
    [queue], [register], [kv], [semiqueue], [stack], [pqueue],
    [blind_counter], [log], in that order. *)

val entry : string -> entry option

val spec : entry -> Weihl_spec.Seq_spec.t

val read_only : entry -> Weihl_event.Operation.t -> bool
(** From the ADT's read/write classification. *)

val all : (string * Weihl_spec.Seq_spec.t) list
(** Every built-in specification, keyed by its CLI name, in
    {!entries} order. *)

val find : string -> Weihl_spec.Seq_spec.t option

val infer_spec :
  Weihl_event.Operation.t list -> Weihl_spec.Seq_spec.t option
(** The specification whose operation vocabulary matches the given
    operations, or [None] when nothing matches.  Ambiguous names
    resolve deterministically: the tests run in a fixed order
    (account, fifo queue, stack, kv map, priority queue, counter,
    blind counter, log, semiqueue, register, intset), so e.g. [add]
    always yields the priority queue even though a set could plausibly
    claim it. *)
