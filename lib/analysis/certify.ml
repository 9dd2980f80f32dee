module Json = Weihl_obs.Json
module Commutativity = Weihl_theory.Commutativity
module T = Weihl_theory.Synthesize

type protocol_cert = {
  protocol : string;
  adt : string;
  policy : string;
  depth : int;
  probe : Probe.t;
  cross : Xprobe.t;
  pairs_probed : int;
  granted_sound : int;
  blocked_justified : int;
  unsound : string list;
  loose : string list;
  looseness : float;
  synthesis : Synthesize.t option;
}

type report = {
  depth : int;
  budget : int option;
  tables : Table_cert.t list;
  protocols : protocol_cert list;
  warnings : string list;
}

let certify_protocol ~depth (entry : Catalog.entry) =
  let probe = Probe.run ~depth entry in
  let setups, _ = Probe.enumerate_setups entry.Catalog.domain ~depth in
  let cross = Xprobe.run entry ~setups in
  let count f = List.length (List.filter f probe.Probe.pairs) in
  let granted_sound =
    count (fun p -> p.Probe.status = Probe.Granted_sound)
  in
  let blocked_justified =
    count (fun p -> p.Probe.status = Probe.Blocked_justified)
  in
  let describe f =
    List.filter_map
      (fun p -> if f p.Probe.status then Some (Fmt.str "%a" Probe.pp_pair p)
        else None)
      probe.Probe.pairs
  in
  let unsound_pairs =
    describe (function Probe.Granted_unsound _ -> true | _ -> false)
  in
  let unsound_triples =
    List.map (Fmt.str "%a" Probe.pp_triple) probe.Probe.triple_unsound
  in
  let unsound_multis =
    List.map (Fmt.str "%a" Probe.pp_multi) probe.Probe.multi_unsound
  in
  let unsound_cross =
    List.map (Fmt.str "%a" Xprobe.pp_xpair) cross.Xprobe.unsound
  in
  let unsound_wide =
    List.map (Fmt.str "%a" Xprobe.pp_wide) cross.Xprobe.wide_unsound
  in
  let loose =
    describe (function Probe.Blocked_loose _ -> true | _ -> false)
  in
  let n_loose = List.length loose in
  let looseness =
    (* Of the pairs that could soundly have been granted, the fraction
       the protocol blocked anyway: its lost-concurrency ratio. *)
    if granted_sound + n_loose = 0 then 0.
    else float_of_int n_loose /. float_of_int (granted_sound + n_loose)
  in
  let synthesis =
    (* Derived protocols ship the table compiled at the canonical depth
       (see Catalog); report the synthesis behind the object probed, not
       a recompile at the probe depth. *)
    if Catalog.is_derived entry.Catalog.name then
      Some (Synthesize.of_domain ~depth:3 entry.Catalog.domain)
    else None
  in
  {
    protocol = entry.Catalog.name;
    adt = entry.Catalog.domain.Domain.name;
    policy = Catalog.policy_name entry.Catalog.policy;
    depth;
    probe;
    cross;
    pairs_probed = List.length probe.Probe.pairs;
    granted_sound;
    blocked_justified;
    unsound =
      unsound_pairs @ unsound_triples @ unsound_multis @ unsound_cross
      @ unsound_wide;
    loose;
    looseness;
    synthesis;
  }

let stats_warning ~what ~budget (s : Commutativity.stats) =
  if s.Commutativity.truncated then
    Some
      (Fmt.str
         "%s: exploration TRUNCATED by the state cap (%d frontiers kept of \
          %d enumerated) — verdicts beyond the kept set are Unknown, not \
          proved"
         what s.Commutativity.distinct s.Commutativity.enumerated)
  else if not s.Commutativity.stabilized then
    Some
      (Fmt.str
         "%s: frontier count NOT stabilized at depth %d (%d distinct \
          frontiers%s) — verdicts hold only to the explored bound; rerun \
          with a larger --budget to search for a closed set"
         what s.Commutativity.depth_used s.Commutativity.distinct
         (match budget with
         | Some b -> Fmt.str ", budget %d" b
         | None -> ""))
  else None

let collect_warnings ?budget tables protocols =
  let table_warnings =
    List.filter_map
      (fun (t : Table_cert.t) ->
        stats_warning ~what:(Fmt.str "table %s" t.Table_cert.adt) ~budget
          t.Table_cert.stats)
      tables
  in
  let synth_warnings =
    List.filter_map
      (fun p ->
        Option.bind p.synthesis (fun s ->
            stats_warning
              ~what:(Fmt.str "synthesis %s" p.protocol)
              ~budget:(Some (T.budget_for (Synthesize.depth s)))
              (Weihl_theory.Synthesize.stats (Synthesize.table s))))
      protocols
  in
  table_warnings @ synth_warnings

let run ?protocol ?budget ~depth () =
  let make tables protocols =
    {
      depth;
      budget;
      tables;
      protocols;
      warnings = collect_warnings ?budget tables protocols;
    }
  in
  match protocol with
  | None ->
    make
      (List.map (Table_cert.certify ?budget ~depth) Domain.all)
      (List.map (certify_protocol ~depth) Catalog.all)
  | Some name -> (
    match Catalog.find name with
    | Some entry ->
      make
        [ Table_cert.certify ?budget ~depth entry.Catalog.domain ]
        [ certify_protocol ~depth entry ]
    | None -> (
      match Domain.find name with
      | Some d -> make [ Table_cert.certify ?budget ~depth d ] []
      | None -> invalid_arg (Fmt.str "lint: unknown protocol or ADT %s" name)))

let unsound_total r =
  List.fold_left
    (fun acc t -> acc + List.length (Table_cert.unsound t))
    0 r.tables
  + List.fold_left (fun acc p -> acc + List.length p.unsound) 0 r.protocols

let table_to_json (t : Table_cert.t) =
  let entries es =
    Json.List (List.map (fun e -> Json.Str (Fmt.str "%a" Table_cert.pp_entry e)) es)
  in
  Json.Obj
    [
      ("adt", Json.Str t.Table_cert.adt);
      ("entries", Json.Num (float_of_int (List.length t.Table_cert.entries)));
      ("exploration", Synthesize.stats_to_json t.Table_cert.stats);
      ("unsound", entries (Table_cert.unsound t));
      ("loose", entries (Table_cert.loose t));
      ("unknown", entries (Table_cert.unknown t));
    ]

let synthesis_to_json s =
  let table = Synthesize.table s in
  let commute, conflicts, unknown = Weihl_theory.Synthesize.counts table in
  Json.Obj
    [
      ("depth", Json.Num (float_of_int (Synthesize.depth s)));
      ( "budget",
        Json.Num (float_of_int (T.budget_for (Synthesize.depth s))) );
      ( "exploration",
        Synthesize.stats_to_json (Weihl_theory.Synthesize.stats table) );
      ( "classes",
        Json.Num
          (float_of_int
             (List.length (Weihl_theory.Synthesize.classes table))) );
      ( "cells",
        Json.Obj
          [
            ("commute", Json.Num (float_of_int commute));
            ("conflict", Json.Num (float_of_int conflicts));
            ("unknown", Json.Num (float_of_int unknown));
          ] );
      ( "refinements",
        Json.Num
          (float_of_int
             (List.length (Weihl_theory.Synthesize.refinements table))) );
    ]

let protocol_to_json (p : protocol_cert) =
  let strings l = Json.List (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    ([
       ("protocol", Json.Str p.protocol);
       ("adt", Json.Str p.adt);
       ("policy", Json.Str p.policy);
       ( "setups",
         Json.Obj
           [
             ( "enumerated",
               Json.Num (float_of_int p.probe.Probe.setups_enumerated) );
             ("distinct", Json.Num (float_of_int p.probe.Probe.setups_distinct));
             ("skipped", Json.Num (float_of_int p.probe.Probe.setups_skipped));
           ] );
       ("pairs_probed", Json.Num (float_of_int p.pairs_probed));
       ("granted_sound", Json.Num (float_of_int p.granted_sound));
       ("blocked_justified", Json.Num (float_of_int p.blocked_justified));
       ("triples_probed", Json.Num (float_of_int p.probe.Probe.triples_probed));
       ("triples_granted", Json.Num (float_of_int p.probe.Probe.triples_granted));
       ("multis_probed", Json.Num (float_of_int p.probe.Probe.multis_probed));
       ("multis_granted", Json.Num (float_of_int p.probe.Probe.multis_granted));
       ( "cross",
         Json.Obj
           [
             ("probed", Json.Num (float_of_int p.cross.Xprobe.probed));
             ("granted", Json.Num (float_of_int p.cross.Xprobe.granted));
             ("blocked", Json.Num (float_of_int p.cross.Xprobe.blocked));
             ( "unsound",
               Json.Num (float_of_int (List.length p.cross.Xprobe.unsound)) );
             ("wide_probed", Json.Num (float_of_int p.cross.Xprobe.wide_probed));
             ( "wide_granted",
               Json.Num (float_of_int p.cross.Xprobe.wide_granted) );
             ( "wide_blocked",
               Json.Num (float_of_int p.cross.Xprobe.wide_blocked) );
             ( "wide_unsound",
               Json.Num
                 (float_of_int (List.length p.cross.Xprobe.wide_unsound)) );
           ] );
       ("unsound", strings p.unsound);
       ("loose", strings p.loose);
       ("looseness", Json.Num p.looseness);
     ]
    @
    match p.synthesis with
    | None -> []
    | Some s -> [ ("synthesis", synthesis_to_json s) ])

let to_json r =
  Json.Obj
    ([ ("depth", Json.Num (float_of_int r.depth)) ]
    @ (match r.budget with
      | Some b -> [ ("budget", Json.Num (float_of_int b)) ]
      | None -> [])
    @ [
        ("tables", Json.List (List.map table_to_json r.tables));
        ("protocols", Json.List (List.map protocol_to_json r.protocols));
        ( "warnings",
          Json.List (List.map (fun w -> Json.Str w) r.warnings) );
        ("unsound_total", Json.Num (float_of_int (unsound_total r)));
      ])

let pp_protocol ppf p =
  Fmt.pf ppf
    "@[<h>%-18s %-14s %-8s %4d pairs (%d setups of %d enumerated): %d sound, \
     %d unsound, %d justified, %d loose (looseness %.2f), %d triples (%d \
     unsound), %d multis (%d unsound), %d cross (%d unsound), %d wide (%d \
     unsound)@]"
    p.protocol p.adt p.policy p.pairs_probed p.probe.Probe.setups_distinct
    p.probe.Probe.setups_enumerated p.granted_sound (List.length p.unsound)
    p.blocked_justified (List.length p.loose) p.looseness
    p.probe.Probe.triples_probed
    (List.length p.probe.Probe.triple_unsound)
    p.probe.Probe.multis_probed
    (List.length p.probe.Probe.multi_unsound)
    p.cross.Xprobe.probed
    (List.length p.cross.Xprobe.unsound)
    p.cross.Xprobe.wide_probed
    (List.length p.cross.Xprobe.wide_unsound)

let pp ?(verbose = false) ppf r =
  Fmt.pf ppf "@[<v>";
  List.iter (fun t -> Fmt.pf ppf "%a@," Table_cert.pp t) r.tables;
  (if verbose then
     List.iter
       (fun t ->
         List.iter
           (fun e -> Fmt.pf ppf "  UNSOUND %a@," Table_cert.pp_entry e)
           (Table_cert.unsound t);
         List.iter
           (fun e -> Fmt.pf ppf "  loose %a@," Table_cert.pp_entry e)
           (Table_cert.loose t);
         List.iter
           (fun e -> Fmt.pf ppf "  unknown %a@," Table_cert.pp_entry e)
           (Table_cert.unknown t))
       r.tables);
  List.iter
    (fun p ->
      Fmt.pf ppf "%a@," pp_protocol p;
      List.iter (fun s -> Fmt.pf ppf "  UNSOUND %s@," s) p.unsound;
      if verbose then List.iter (fun s -> Fmt.pf ppf "  loose %s@," s) p.loose)
    r.protocols;
  List.iter (fun w -> Fmt.pf ppf "WARNING %s@," w) r.warnings;
  Fmt.pf ppf "unsound entries: %d@]" (unsound_total r)
