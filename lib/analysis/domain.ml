open Weihl_event
module Adt = Weihl_adt
module Registry = Weihl_adt.Adt_registry

type t = {
  name : string;
  spec : Weihl_spec.Seq_spec.t;
  alphabet : Operation.t list;
  commutes : Operation.t -> Operation.t -> bool;
  read_only : Operation.t -> bool;
}

let of_entry (e : Registry.entry) =
  let (module A : Adt.Adt_sig.S) = e.Registry.adt in
  {
    name = e.Registry.name;
    spec = A.spec;
    alphabet = e.Registry.alphabet;
    commutes = A.commutes;
    read_only = Registry.read_only e;
  }

let all = List.map of_entry Registry.entries
let find name = List.find_opt (fun d -> d.name = name) all

let find_exn name =
  match find name with
  | Some d -> d
  | None -> invalid_arg (Fmt.str "Domain.find_exn: unknown domain %s" name)
