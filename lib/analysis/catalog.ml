module Cc = Weihl_cc
module Fh = Weihl_fault.Harness
module Seq_spec = Weihl_spec.Seq_spec

type entry = {
  name : string;
  policy : Cc.System.ts_policy;
  domain : Domain.t;
  make_object : Cc.Event_log.t -> Weihl_event.Object_id.t -> Cc.Atomic_object.t;
}

let is_derived name = String.starts_with ~prefix:"derived_" name

let domain_of spec =
  List.find
    (fun d -> Seq_spec.type_name d.Domain.spec = Seq_spec.type_name spec)
    Domain.all

(* One synthesized protocol per registry domain, at the canonical depth
   3 — the certification depth CI runs.  Probing at other depths still
   certifies the same shipped table, which is the honest question: is
   the compiled artifact sound? *)
let derived (d : Domain.t) =
  {
    name = "derived_" ^ d.Domain.name;
    policy = `None_;
    domain = d;
    make_object =
      (fun log id ->
        Synthesize.make_object (Synthesize.of_domain ~depth:3 d) log id);
  }

let all =
  List.filter_map
    (fun (p : Fh.protocol) ->
      if is_derived p.Fh.name then None
      else
        Some
          {
            name = p.Fh.name;
            policy = p.Fh.policy;
            domain = domain_of p.Fh.spec;
            make_object = p.Fh.make_object;
          })
    Fh.catalog
  @ List.map derived Domain.all

let find name = List.find_opt (fun e -> e.name = name) all

let policy_name = function
  | `None_ -> "dynamic"
  | `Static -> "static"
  | `Hybrid -> "hybrid"
