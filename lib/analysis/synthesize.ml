open Weihl_event
module Json = Weihl_obs.Json
module T = Weihl_theory.Synthesize
module Commutativity = Weihl_theory.Commutativity

type t = { domain : Domain.t; depth : int; table : T.t }

let domain t = t.domain
let depth t = t.depth
let table t = t.table

let entry (d : Domain.t) =
  match Weihl_adt.Adt_registry.entry d.Domain.name with
  | Some e -> e
  | None -> invalid_arg ("Synthesize: not a registry domain: " ^ d.Domain.name)

let of_domain ?(depth = 3) d =
  { domain = d; depth; table = T.of_adt ~depth (entry d) }

let all ?depth () = List.map (of_domain ?depth) Domain.all

let make_object ?table t log id =
  T.make_object (entry t.domain) (Option.value table ~default:t.table) log id

let protocol_name t = "derived_" ^ t.domain.Domain.name

let stats_to_json (s : Commutativity.stats) =
  Json.Obj
    [
      ("enumerated", Json.Num (float_of_int s.Commutativity.enumerated));
      ("distinct", Json.Num (float_of_int s.Commutativity.distinct));
      ("truncated", Json.Bool s.Commutativity.truncated);
      ("depth_used", Json.Num (float_of_int s.Commutativity.depth_used));
      ("stabilized", Json.Bool s.Commutativity.stabilized);
    ]

let to_json t =
  let commute, conflicts, unknown = T.counts t.table in
  Json.Obj
    [
      ("adt", Json.Str t.domain.Domain.name);
      ("protocol", Json.Str (protocol_name t));
      ("depth", Json.Num (float_of_int t.depth));
      ("budget", Json.Num (float_of_int (T.budget_for t.depth)));
      ("exploration", stats_to_json (T.stats t.table));
      ( "classes",
        Json.List
          (List.map
             (fun (op, results) ->
               Json.Obj
                 [
                   ("op", Json.Str (Fmt.str "%a" Operation.pp op));
                   ( "results",
                     Json.List
                       (List.map
                          (fun r -> Json.Str (Fmt.str "%a" Value.pp r))
                          results) );
                 ])
             (T.classes t.table)) );
      ( "cells",
        Json.Obj
          [
            ("commute", Json.Num (float_of_int commute));
            ("conflict", Json.Num (float_of_int conflicts));
            ("unknown", Json.Num (float_of_int unknown));
          ] );
      ( "refinements",
        Json.List
          (List.map
             (fun (p, q) ->
               Json.Str (Fmt.str "%a/%a" Operation.pp p Operation.pp q))
             (T.refinements t.table)) );
      ( "matrix",
        Json.List
          (List.map
             (fun (kp, kq, v) ->
               Json.Str
                 (Fmt.str "%a | %a : %a" T.pp_key kp T.pp_key kq
                    Commutativity.pp_verdict v))
             (T.cells t.table)) );
    ]

let pp ppf t = T.pp ppf t.table
let pp_matrix ppf t = T.pp_matrix ppf t.table
