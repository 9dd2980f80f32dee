open Weihl_event
module Cc = Weihl_cc
module Group = Weihl_shard.Group
module Gtxn = Weihl_shard.Gtxn

type status =
  | Granted_sound
  | Granted_unsound of string
  | Blocked
      (** some invoke waited or was refused mid-pattern — cross-shard
          blocking is conservative, never flagged *)

type xpair = {
  x_setup : Operation.t list;
  x_variant : string;
  x_p : Operation.t;
  x_q : Operation.t;
  x_status : status;
}

type wide = {
  w_setup : Operation.t list;
  w_p : Operation.t;
  w_q : Operation.t;
  w_mode : string;
  w_problem : string;
}

type t = {
  probed : int;
  granted : int;
  blocked : int;
  unsound : xpair list;
  wide_probed : int;
  wide_granted : int;
  wide_blocked : int;
  wide_unsound : wide list;
}

(* The router hashes object ids to shards; walk candidate names until
   one lands on each shard of the group. *)
let pick_ids group n =
  let slots = Array.make n None in
  let rec go i =
    if Array.for_all Option.is_some slots then
      Array.to_list (Array.map Option.get slots)
    else begin
      let id = Object_id.v (Fmt.str "x%d" i) in
      let s = Group.shard_of group id in
      if s < n && slots.(s) = None then slots.(s) <- Some id;
      go (i + 1)
    end
  in
  go 0

(* An [n]-shard group holding one instance of the catalogue object per
   shard. *)
let fresh (entry : Catalog.entry) n =
  let group = Group.create ~policy:entry.Catalog.policy ~seed:0 ~shards:n () in
  let ids = pick_ids group n in
  List.iter (fun id -> Group.add_object group id entry.Catalog.make_object) ids;
  (group, ids)

(* Drive the committed setup against every object (so all shards start
   at the same frontier); [None] when the protocol does not grant some
   setup operation serially.  Activity names must survive the WAL's
   notation round-trip, which reconstructs the update/read-only kind
   from the paper's first-letter convention (r/s/t are read-only) —
   the crash probes replay these very transactions through recovery.
   Hence [init]/[u1]/[u2], not [setup]/[t1]/[t2]. *)
let run_setup group ids ops =
  let g = Group.begin_txn group (Activity.update "init") in
  let rec go = function
    | [] -> (
      match Group.commit group g with
      | () -> Some ()
      | exception _ -> None)
    | op :: rest ->
      if
        List.for_all
          (fun id ->
            match Group.invoke group g id op with
            | Group.Granted _ -> true
            | Group.Wait _ | Group.Refused _ -> false)
          ids
      then go rest
      else None
  in
  go ops

(* The cross-shard pattern no single shard sees whole: T1 invokes [p]
   at each object in shard order while T2 invokes [q] at them in
   reverse, interleaved, so each shard observes a different half of
   the race; then [finish] completes both.  Over two shards this is
   t1@a, t2@b, t1@b, t2@a. *)
let run_walk entry ~n ~t2_read_only setup p q ~finish =
  let group, ids = fresh entry n in
  match run_setup group ids setup with
  | None -> `Setup_blocked
  | Some () -> (
    let t1 = Group.begin_txn group (Activity.update "u1") in
    let a2 =
      if t2_read_only then Activity.read_only "r2" else Activity.update "u2"
    in
    let t2 = Group.begin_txn group a2 in
    let step g obj op k =
      match Group.invoke group g obj op with
      | Group.Granted _ -> k ()
      | Group.Wait _ | Group.Refused _ -> `Blocked
      | exception exn -> `Crashed (Printexc.to_string exn)
    in
    let rec walk xs ys k =
      match (xs, ys) with
      | [], [] -> k ()
      | x :: xs, y :: ys ->
        step t1 x p @@ fun () ->
        step t2 y q @@ fun () -> walk xs ys k
      | _ -> assert false
    in
    walk ids (List.rev ids) @@ fun () ->
    match finish group t1 t2 with
    | () -> `Completed (group, ids, [ t1; t2 ])
    | exception exn -> `Crashed (Printexc.to_string exn))

let complete completion group t1 t2 =
  List.iter
    (function
      | `Commit k -> Group.commit group (if k = 1 then t1 else t2)
      | `Abort k -> Group.abort group (if k = 1 then t1 else t2))
    (Probe.completion_steps completion)

(* Participant 1 (in first-touch order: the middle shard) dies after
   voting yes on T1's commit; the decision is reached without it, the
   dead shard recovers from its WAL and resolves its in-doubt leg. *)
let participant_crash group t1 t2 =
  let fault =
    { Weihl_dist.Tpc.no_fault with f_participant_crash = Some (1, `After_vote) }
  in
  Group.commit ~fault group t1;
  List.iter
    (fun s ->
      if Group.shard_crashed group s then begin
        let text = Group.durable_shard group s in
        match Group.recover_shard group s text with
        | Ok _ -> ()
        | Error f ->
          failwith (Fmt.str "recovery: %a" Cc.Recovery.pp_failure f)
      end)
    (List.init (Group.shard_count group) Fun.id);
  ignore (Group.resolve_in_doubt group);
  (* The crash killed T2's surviving legs; commit it only if it is
     somehow still active. *)
  if Gtxn.is_active t2 then Group.commit group t2

(* Global atomicity over the completed pattern:

   - atomic commitment — each global transaction is committed on every
     shard it reached or on none (and its final status matches);
   - timestamp agreement — a committed transaction's shards answer the
     same (2PC-agreed) timestamp;
   - merged replay — the committed projection, in the group's
     serialization order, replays against one combined system holding
     every object. *)
let check_global (entry : Catalog.entry) group ids gtxns =
  let shards = List.init (Group.shard_count group) Fun.id in
  let histories =
    List.map (fun s -> (s, Cc.System.history (Group.system group s))) shards
  in
  let commitment =
    List.find_map
      (fun g ->
        let act = Gtxn.activity g in
        let where =
          List.map
            (fun (s, h) -> (s, Activity.Set.mem act (History.committed h)))
            histories
        in
        let wants = Gtxn.status g = Gtxn.Committed in
        match
          ( List.find_opt (fun (_, c) -> c) where,
            List.find_opt (fun (_, c) -> not c) where )
        with
        | Some (sc, _), Some (sn, _) ->
          Some
            (Fmt.str "%a committed on shard %d but not shard %d" Activity.pp
               act sc sn)
        | Some _, None when not wants ->
          Some
            (Fmt.str "%a is not committed but its shards say committed"
               Activity.pp act)
        | None, Some _ when wants ->
          Some
            (Fmt.str "%a is committed but its shards say not committed"
               Activity.pp act)
        | _ -> None)
      gtxns
  in
  match commitment with
  | Some msg -> Some msg
  | None -> (
    let ts_disagreement =
      List.find_map
        (fun g ->
          let act = Gtxn.activity g in
          let stamps =
            List.filter_map
              (fun (s, h) ->
                if Activity.Set.mem act (History.committed h) then
                  Some (s, History.timestamp_of h act)
                else None)
              histories
          in
          match stamps with
          | [] | [ _ ] -> None
          | (s0, ts0) :: rest ->
            List.find_map
              (fun (s, ts) ->
                match (ts0, ts) with
                | Some x, Some y when Timestamp.compare x y <> 0 ->
                  Some
                    (Fmt.str
                       "%a committed with ts %a at shard %d but %a at shard \
                        %d"
                       Activity.pp act Timestamp.pp x s0 Timestamp.pp y s)
                | Some _, None | None, Some _ ->
                  Some
                    (Fmt.str "%a has a timestamp on only some shards"
                       Activity.pp act)
                | _ -> None)
              rest)
        gtxns
    in
    match ts_disagreement with
    | Some msg -> Some msg
    | None ->
      let stuck = Group.in_doubt_count group in
      if stuck > 0 then
        Some (Fmt.str "%d legs stuck in-doubt after resolution" stuck)
      else begin
        let sys = Cc.System.create ~policy:entry.Catalog.policy () in
        List.iter
          (fun id ->
            Cc.System.add_object sys
              (entry.Catalog.make_object (Cc.System.log sys) id))
          ids;
        match
          Cc.Recovery.replay_txns sys (Group.committed_projection group)
        with
        | Ok _ -> None
        | Error f ->
          Some (Fmt.str "merged replay: %a" Cc.Recovery.pp_failure f)
      end)

(* Walk once per ending, in order, until one leaves the group outside
   global atomicity; [label] names the ending in a finding. *)
let probe entry ~n ~t2_read_only setup p q endings =
  let rec go = function
    | [] -> Some Granted_sound
    | (label, finish) :: rest -> (
      match run_walk entry ~n ~t2_read_only setup p q ~finish with
      | `Setup_blocked -> None
      | `Blocked -> Some Blocked
      | `Crashed exn ->
        Some (Granted_unsound (Fmt.str "%s raised: %s" label exn))
      | `Completed (group, ids, gtxns) -> (
        match check_global entry group ids gtxns with
        | Some why -> Some (Granted_unsound (Fmt.str "%s: %s" label why))
        | None -> go rest))
  in
  go endings

(* Probe each setup's items in order, skipping the rest of a setup once
   it proves unusable: (probed, granted, blocked, unsound findings). *)
let tally groups probe =
  let probed = ref 0 and granted = ref 0 and blocked = ref 0 in
  let unsound = ref [] in
  List.iter
    (fun (setup, items) ->
      let rec go = function
        | [] -> ()
        | item :: rest -> (
          match probe setup item with
          | None -> ()
          | Some status ->
            incr probed;
            (match status with
            | Granted_sound -> incr granted
            | Blocked -> incr blocked
            | Granted_unsound why -> unsound := (setup, item, why) :: !unsound);
            go rest)
      in
      go items)
    groups;
  (!probed, !granted, !blocked, List.rev !unsound)

let run (entry : Catalog.entry) ~setups =
  let d = entry.Catalog.domain in
  let pq =
    List.concat_map
      (fun p -> List.map (fun q -> (p, q)) d.Domain.alphabet)
      d.Domain.alphabet
  in
  (* Pair probes: two shards and every completion (but t2-aborts for a
     read-only T2) — under hybrid also with a read-only T2 issuing the
     read-only operations. *)
  let variants =
    match entry.Catalog.policy with
    | `Hybrid -> [ ("update-update", false); ("update-readonly", true) ]
    | `None_ | `Static -> [ ("update-update", false) ]
  in
  let probed, granted, blocked, unsound =
    tally
      (List.concat_map
         (fun (label, t2_read_only) ->
           let items =
             List.filter_map
               (fun (p, q) ->
                 if t2_read_only && not (d.Domain.read_only q) then None
                 else Some (label, t2_read_only, p, q))
               pq
           in
           List.map (fun setup -> (setup, items)) setups)
         variants)
      (fun setup (_, t2_read_only, p, q) ->
        let completions =
          if t2_read_only then [ `CC; `CC_rev; `A1C2 ]
          else [ `CC; `CC_rev; `C1A2; `A1C2 ]
        in
        probe entry ~n:2 ~t2_read_only setup p q
          (List.map
             (fun c -> ("completion " ^ Probe.completion_name c, complete c))
             completions))
  in
  (* Wide probes: three shards, completed cleanly or with the
     participant crash — the shape two shards cannot build, where a
     decided commit must reach a shard that was down at decision time
     while a third already applied it. *)
  let modes = List.concat_map (fun pq -> [ (pq, false); (pq, true) ]) pq in
  let wide_probed, wide_granted, wide_blocked, wide_unsound =
    tally
      (List.map (fun setup -> (setup, modes)) setups)
      (fun setup ((p, q), crash) ->
        probe entry ~n:3 ~t2_read_only:false setup p q
          [
            (if crash then ("wide crash completion", participant_crash)
             else ("wide clean completion", complete `CC));
          ])
  in
  {
    probed;
    granted;
    blocked;
    unsound =
      List.map
        (fun (setup, (label, _, p, q), why) ->
          { x_setup = setup; x_variant = label; x_p = p; x_q = q;
            x_status = Granted_unsound why })
        unsound;
    wide_probed;
    wide_granted;
    wide_blocked;
    wide_unsound =
      List.map
        (fun (setup, ((p, q), crash), why) ->
          { w_setup = setup; w_p = p; w_q = q;
            w_mode = (if crash then "participant-crash" else "clean");
            w_problem = why })
        wide_unsound;
  }

let pp_ops ppf ops =
  if ops = [] then Fmt.string ppf "(empty)"
  else Fmt.(list ~sep:(any ";") Operation.pp) ppf ops

let pp_xpair ppf x =
  let status =
    match x.x_status with
    | Granted_sound -> "granted, sound"
    | Blocked -> "blocked"
    | Granted_unsound why -> "UNSOUND: " ^ why
  in
  Fmt.pf ppf "@[<h>cross-shard [%a] t1:%a@@a,b t2:%a@@b,a (%s): %s@]" pp_ops
    x.x_setup Operation.pp x.x_p Operation.pp x.x_q x.x_variant status

let pp_wide ppf w =
  Fmt.pf ppf "@[<h>wide [%a] t1:%a@@a,b,c t2:%a@@c,b,a (%s): %s@]" pp_ops
    w.w_setup Operation.pp w.w_p Operation.pp w.w_q w.w_mode w.w_problem
