(** Per-domain protocol synthesis: the certifier's view of the
    synthesized [derived_<adt>] protocols.

    For each probe {!Domain}, {!of_domain} fetches the result-aware
    conflict matrix the theory layer compiles over the registry
    alphabet ([Weihl_theory.Synthesize.of_adt], memoized per (ADT,
    depth), so lint, probes, the fault sweeps, the bench and the CLI
    all share one synthesis), and {!make_object} wraps it into a
    [Weihl_cc.Derived_locking] object.  {!Catalog} registers one such
    protocol per ADT under the name [derived_<adt>], which puts the
    synthesized family through the identical pair/triple/multi-op/
    cross-shard certification as the hand-written protocols.

    Runtime operations outside the synthesis alphabet fall back to the
    table's op-level projection, and past that to read/write
    classification — conservative at every step, so off-alphabet
    traffic degrades to rw locking rather than guessing. *)

type t

val of_domain : ?depth:int -> Domain.t -> t
(** The memoized table for a registry domain: explored to [depth]
    (default 3) generator levels, budgeted up to
    {!Weihl_theory.Synthesize.budget_for}[ depth]
    until the frontier count stabilizes.
    @raise Invalid_argument for a domain not in {!Domain.all}. *)

val all : ?depth:int -> unit -> t list
(** One synthesis per registry domain, in {!Domain.all} order. *)

val domain : t -> Domain.t
val depth : t -> int
val table : t -> Weihl_theory.Synthesize.t

val protocol_name : t -> string
(** ["derived_<adt>"] — the catalog name of the synthesized protocol. *)

val make_object :
  ?table:Weihl_theory.Synthesize.t ->
  t ->
  Weihl_cc.Event_log.t ->
  Weihl_event.Object_id.t ->
  Weihl_cc.Atomic_object.t
(** The synthesized protocol as an atomic object.  [table] overrides
    the compiled matrix — the mutation self-test passes a corrupted
    copy through here. *)

val stats_to_json : Weihl_theory.Commutativity.stats -> Weihl_obs.Json.t
(** The exploration record, including [depth_used] and [stabilized] —
    shared with the lint report's budget mode. *)

val to_json : t -> Weihl_obs.Json.t
(** The full dump [weihl synth] emits: exploration stats, result
    classes, cell counts, op-level refinements, and the matrix. *)

val pp : Format.formatter -> t -> unit
val pp_matrix : Format.formatter -> t -> unit
