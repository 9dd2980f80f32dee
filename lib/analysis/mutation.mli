(** The certifier's own acceptance test: seeded corruptions that a
    working lint pass must flag.

    Five table corruptions (a hand-table entry flipped to "commutes",
    including the semiqueue [deq]/[deq] flip only the non-deterministic
    engine can catch) and eight protocol corruptions (locking objects
    built over corrupted conflict relations, the multiversion grant
    guard with its committed+own validation switched off, and a
    static object whose reads see uncommitted writes, which only an
    abort completion of a granted pair can tell).
    [self_test] certifies each mutant exactly the way [weihl lint]
    certifies the real catalogue; a mutation is {e detected} when its
    certificate contains an unsound entry.  A missed mutation means
    the certifier has a blind spot — the lint CLI and CI treat it as a
    failure. *)

type outcome = {
  name : string;
  kind : string;  (** ["table"] or ["protocol"] *)
  description : string;
  detected : bool;
  evidence : string;  (** the first unsound finding, when detected *)
}

val self_test : depth:int -> outcome list
val all_detected : outcome list -> bool
val pp_outcome : Format.formatter -> outcome -> unit
