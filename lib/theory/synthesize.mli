(** Protocol synthesis: compiling the certifier's derived relation into
    a data-dependent lock table.

    Weihl's thesis is that concurrency control should key on the
    {e data-dependent} semantics of each type — which results an
    operation returned, not just which operation ran.  The certifier
    ({!Commutativity}) already derives result-aware forward
    commutativity by bounded exploration; this module quantifies that
    relation once per (operation, result class) pair and freezes it
    into a symmetric conflict matrix.  The matrix is the whole
    protocol: a runtime scheduler grants an invocation a specific
    result exactly when that (op, result) cell commutes with every
    (op, result) pair held by other active transactions
    ([Weihl_cc.Derived_locking]).

    Soundness inherits from the bounded derivation: every cell verdict
    is exact on the explored frontier space (state depth grown under a
    budget until the reachable set stabilizes where possible), and a
    truncated exploration downgrades would-be [Commute] cells to
    [Unknown], which the lookup treats as conflict.  Result pairs that
    are never co-permissible from any explored frontier are vacuously
    compatible — the runtime validates every granted result against the
    committed frontier plus the transaction's own intentions, so such
    pairs never coexist from a common state. *)

open Weihl_event

type key = Operation.t * Value.t
(** One lock mode: an operation together with its result class. *)

type t
(** A compiled table for one ADT. *)

val synthesize :
  ?probe_depth:int ->
  ?max_states:int ->
  Weihl_spec.Seq_spec.t ->
  alphabet:Operation.t list ->
  depth:int ->
  budget:int ->
  t
(** Explore the spec under [alphabet] to [depth] generator levels —
    budgeted up to [budget] until the frontier count stabilizes — then
    decide {!Commutativity.commute_results} for every pair of
    (operation, observed result) keys.  Deterministic: key order is
    alphabet order with results sorted by [Value.compare], and the
    exploration itself is depth-first-free leveled search. *)

val adt : t -> string
val alphabet : t -> Operation.t list

val stats : t -> Commutativity.stats
(** The exploration backing every cell, including [depth_used] and
    [stabilized] for the lint budget report. *)

val classes : t -> (Operation.t * Value.t list) list
(** The observed result classes per alphabet operation. *)

val verdict : t -> key -> key -> Commutativity.verdict option
(** The cell for two keys; [None] when either key is off the table. *)

val op_verdict : t -> Operation.t -> Operation.t -> Commutativity.verdict option
(** Operation-level projection: [Conflict] iff some result pair
    conflicts, [Unknown] iff some is undecided and none refuted, else
    [Commute].  [None] when either operation is outside the alphabet.
    Used as the first fallback for results outside every class. *)

val conflict : t -> key -> key -> bool option
(** The runtime question: must these two granted (op, result) pairs be
    serialized?  [Some false] when the cell (or, for an off-class
    result, the op-level projection) commutes; [Some true] on conflict
    or unknown; [None] when an operation is outside the alphabet
    entirely and the caller must fall back to a conservative
    relation. *)

val cells : t -> (key * key * Commutativity.verdict) list
(** Upper-triangle listing in deterministic key order, for dumps and
    the JSON report. *)

val counts : t -> int * int * int
(** [(commute, conflict, unknown)] cell counts over {!cells}. *)

val refinements : t -> (Operation.t * Operation.t) list
(** Operation pairs that op-level locking must serialize but where some
    result pair commutes — the concurrency the data-dependent table
    recovers. *)

val equal : t -> t -> bool
(** Structural equality of adt, alphabet, key order, and every cell
    verdict: the determinism property the qcheck suite asserts. *)

val force_commute : t -> key -> key -> t
(** A copy with one cell (symmetrically) forced to [Commute] — the
    seeded corruption the mutation self-test must catch.  Raises
    [Invalid_argument] if either key is off the table. *)

(** {1 The registry's tables}

    One compiled table per registry ADT and depth, shared by everything
    that runs or certifies a [derived_<adt>] protocol: lint, the fault
    sweeps, the bench and the CLI. *)

val budget_for : int -> int
(** The growth budget of a synthesis at a given depth ([depth + 3]). *)

val of_adt : ?depth:int -> Weihl_adt.Adt_registry.entry -> t
(** The ADT's table over its registry alphabet, explored to [depth]
    (default 3) generator levels and budgeted to {!budget_for}[ depth]
    until the frontier count stabilizes.  Memoized per (ADT, depth)
    under a lock, so shard domains building objects at once share one
    compilation. *)

val make_object :
  Weihl_adt.Adt_registry.entry ->
  t ->
  Weihl_cc.Event_log.t ->
  Object_id.t ->
  Weihl_cc.Atomic_object.t
(** The [derived_<adt>] protocol: a [Weihl_cc.Derived_locking] object
    whose runtime conflict relation is the table's {!conflict}, then
    the ADT's read/write classification for operations outside the
    alphabet.  The table is an argument so the mutation self-test can
    pass a corrupted copy. *)

val pp : Format.formatter -> t -> unit
val pp_key : Format.formatter -> key -> unit

val pp_matrix : Format.formatter -> t -> unit
(** The full upper-triangle matrix, one cell per line. *)
