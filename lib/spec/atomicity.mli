(** The paper's atomicity definitions, as decision procedures on
    finite histories.

    Each checker takes a specification environment (the acceptable
    serial behaviour of every object) and a well-formed history, and
    decides the corresponding property from the paper:

    - {!atomic} — Section 3: [perm(h)] is serializable.
    - {!dynamic_atomic} — Section 4.1: [perm(h)] is serializable in
      every total order consistent with [precedes(h)].
    - {!static_atomic} — Section 4.2.2: [perm(h)] is serializable in
      timestamp order, timestamps being chosen at initiation.
    - {!hybrid_atomic} — Section 4.3.2: [perm(h)] is serializable in
      timestamp order, update timestamps chosen at commit and read-only
      timestamps at initiation.

    All three local properties imply {!atomic} (Theorems 1, 4 and 5);
    the test suite checks this on random histories. *)

open Weihl_event

val atomic : Spec_env.t -> History.t -> bool

val dynamic_atomic : Spec_env.t -> History.t -> bool

val static_atomic : Spec_env.t -> History.t -> bool
(** [false] when some committed activity carries no timestamp: such a
    history is not well-formed in the static model (Section 4.2.1). *)

val hybrid_atomic : Spec_env.t -> History.t -> bool
(** [false] when some committed activity carries no timestamp: update
    activities receive timestamps at commit and read-only activities at
    initiation (Section 4.3.1). *)

val of_policy :
  [ `None_ | `Static | `Hybrid ] -> Spec_env.t -> History.t -> bool
(** The local property a protocol's timestamp policy claims: no
    timestamps is {!dynamic_atomic}, [`Static] {!static_atomic} and
    [`Hybrid] {!hybrid_atomic}.  The certifier and the fault harness
    judge every history they drive by it. *)

val serialization_witness : Spec_env.t -> History.t -> Activity.t list option
(** A serialization order witnessing atomicity of [h], if any. *)
