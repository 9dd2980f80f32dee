(** Workload generators: parameterized streams of transaction scripts.

    A {e script} is the straight-line plan of one transaction: which
    operations to invoke on which objects, with an optional
    early-commit guard per step (e.g. a transfer stops after a
    withdrawal answers [insufficient_funds]).  Generators draw scripts
    deterministically from a {!Rng.t}. *)

open Weihl_event

type step = {
  obj : Object_id.t;
  op : Operation.t;
  continue_if : (Value.t -> bool) option;
      (** When set and the result fails the predicate, the transaction
          commits immediately after this step (it is not an error —
          e.g. a failed withdrawal still commits its answer). *)
}

type script = {
  kind : [ `Update | `Read_only ];
  label : string; (** workload class, e.g. ["transfer"]; used in metrics *)
  steps : step list;
}

type t = {
  name : string;
  objects : Object_id.t list; (** objects the scripts reference *)
  generate : Rng.t -> script;
}

val step : ?continue_if:(Value.t -> bool) -> Object_id.t -> Operation.t -> step

val read_steps : t -> Rng.t -> (Object_id.t * Operation.t) list option
(** Draw scripts until a read-only one appears and return its steps —
    the shape of a snapshot read.  [None] if 100 draws bring none. *)

(** {1 Key distributions}

    Samplers return an index in [0 .. n-1]; feed them to {!banking}'s
    [key_dist] to skew which accounts the scripts touch.  Both are
    deterministic functions of the generator they are handed. *)

val zipf : theta:float -> n:int -> Rng.t -> int
(** Zipfian ranks: index [i] drawn with weight [1/(i+1)^theta].
    [theta = 0.] is uniform; [theta] near 1 gives the classic skew
    where a few keys absorb most of the traffic.
    @raise Invalid_argument if [n <= 0] or [theta < 0.]. *)

val hotspot : hot:float -> hot_keys:int -> n:int -> Rng.t -> int
(** With probability [hot], uniform over the first [hot_keys] indices
    (clamped to [1 .. n]); otherwise uniform over all [n].
    @raise Invalid_argument if [n <= 0] or [hot] is not in [0..1]. *)

(** {1 Banking (Sections 4.3.3 and 5.1)} *)

val account_ids : int -> Object_id.t list
(** [acct0 .. acct(n-1)]. *)

val banking :
  ?accounts:int ->
  ?transfer_max:int ->
  ?audit_fraction:float ->
  ?deposit_fraction:float ->
  ?key_dist:(Rng.t -> int) ->
  unit ->
  t
(** Lamport's banking mix: transfers move a random amount between two
    random accounts (withdraw then deposit, stopping on
    [insufficient_funds]); deposits seed money; audits read every
    account's balance (read-only).  Defaults: 8 accounts, transfers up
    to 50, 10% audits, 20% deposits.  [key_dist] (e.g. {!zipf} or
    {!hotspot} over [accounts]) skews which accounts are picked;
    omitting it keeps the historical uniform draw sequence, so
    existing seeded runs replay unchanged. *)

val hot_account : Object_id.t

val hot_withdrawals :
  ?withdraw_max:int -> ?deposit_fraction:float -> unit -> t
(** The Section 5.1 stress: every transaction hits one shared account;
    withdrawers make two withdrawal attempts (stopping on
    [insufficient_funds]), depositors two deposits.  Concurrency then
    hinges entirely on how the protocol treats withdraw/withdraw and
    withdraw/deposit pairs. *)

(** {1 Other object families} *)

val set_object : Object_id.t
(** The single shared set used by {!set_ops}. *)

val set_ops : ?keys:int -> ?size_fraction:float -> unit -> t
(** Random insert/delete/member (and occasional [size]) transactions of
    1-4 operations on one shared set. *)

val queue_object : Object_id.t
(** The single shared queue used by {!queue_producers_consumers}. *)

val queue_producers_consumers : ?producers_fraction:float -> unit -> t
(** Producers enqueue 1-3 values; consumers dequeue 1-2. *)

val kv_object : Object_id.t
(** The single shared map used by {!kv_ops}. *)

val kv_ops : ?keys:int -> ?read_fraction:float -> unit -> t
(** Random get/put/remove transactions of 1-3 operations on one shared
    key/value map. *)

val semiqueue_object : Object_id.t
(** The single shared semiqueue used by
    {!semiqueue_producers_consumers}. *)

val semiqueue_producers_consumers : ?producers_fraction:float -> unit -> t
(** Producers enqueue 1-2 values; consumers dequeue one — the workload
    where non-determinism lets consumers run in parallel. *)

