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
let pick_ids_n group n =
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

let pick_ids group =
  match pick_ids_n group 2 with
  | [ a; b ] -> (a, b)
  | _ -> assert false

let fresh (entry : Catalog.entry) =
  let group = Group.create ~policy:entry.Catalog.policy ~seed:0 ~shards:2 () in
  let a, b = pick_ids group in
  Group.add_object group a entry.Catalog.make_object;
  Group.add_object group b entry.Catalog.make_object;
  (group, a, b)

(* Drive the committed setup against both objects (so both shards start
   at the same frontier); [None] when the protocol does not grant some
   setup operation serially. *)
(* Activity names must survive the WAL's notation round-trip, which
   reconstructs the update/read-only kind from the paper's first-letter
   convention (r/s/t are read-only) — the wide crash probes replay
   these very transactions through recovery.  Hence [init]/[u1]/[u2],
   not [setup]/[t1]/[t2]. *)
let run_setup group a b ops =
  let g = Group.begin_txn group (Activity.update "init") in
  let rec go = function
    | [] -> (
      match Group.commit group g with
      | () -> Some ()
      | exception _ -> None)
    | op :: rest -> (
      match (Group.invoke group g a op, Group.invoke group g b op) with
      | Group.Granted _, Group.Granted _ -> go rest
      | _ -> None)
  in
  go ops

type completion = [ `CC | `CC_rev | `C1A2 | `A1C2 ]

let completion_name = function
  | `CC -> "both-commit"
  | `CC_rev -> "both-commit-reversed"
  | `C1A2 -> "t2-aborts"
  | `A1C2 -> "t1-aborts"

(* The cross-shard pattern no single shard sees whole: T1 touches
   object [a] (shard 0) then [b] (shard 1); T2 touches them in the
   opposite order.  Each shard observes only one interleaved half; the
   global checks below are the paper's global-atomicity conditions. *)
let run_pattern entry ~t2_read_only setup p q ~(completion : completion) =
  let group, a, b = fresh entry in
  match run_setup group a b setup with
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
    step t1 a p @@ fun () ->
    step t2 b q @@ fun () ->
    step t1 b p @@ fun () ->
    step t2 a q @@ fun () ->
    match
      (match completion with
      | `CC ->
        Group.commit group t1;
        Group.commit group t2
      | `CC_rev ->
        Group.commit group t2;
        Group.commit group t1
      | `C1A2 ->
        Group.commit group t1;
        Group.abort group t2
      | `A1C2 ->
        Group.abort group t1;
        Group.commit group t2)
    with
    | () -> `Completed (group, a, b, t1, t2)
    | exception exn -> `Crashed (Printexc.to_string exn))

(* Global atomicity over the completed pattern:

   - atomic commitment — each global transaction is committed on both
     shards or neither (and its final status matches);
   - timestamp agreement — a committed transaction's shards answer the
     same (2PC-agreed) timestamp;
   - merged replay — the committed projection, in the group's
     serialization order, replays against one combined system holding
     both objects. *)
let check_global_n (entry : Catalog.entry) group ids gtxns =
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

let check_global entry group a b gtxns = check_global_n entry group [ a; b ] gtxns

(* Wider-than-two probe groups: the same opposite-order pattern walked
   across three shards, completed either cleanly or with a participant
   crash injected mid-2PC (after its yes-vote), followed by WAL
   recovery and in-doubt resolution.  A two-shard pattern cannot build
   the shape where a decided commit must reach a shard that was down
   when the decision was made while a third shard already applied it —
   the window where atomic commitment, timestamp agreement, and the
   merged replay can each diverge independently. *)
let fresh_wide (entry : Catalog.entry) =
  let group = Group.create ~policy:entry.Catalog.policy ~seed:0 ~shards:3 () in
  let ids = pick_ids_n group 3 in
  List.iter (fun id -> Group.add_object group id entry.Catalog.make_object) ids;
  (group, ids)

let run_setup_n group ids ops =
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

let participant_crash =
  { Weihl_dist.Tpc.no_fault with f_participant_crash = Some (1, `After_vote) }

let run_wide entry setup p q ~crash =
  let group, ids = fresh_wide entry in
  match run_setup_n group ids setup with
  | None -> `Setup_blocked
  | Some () -> (
    let t1 = Group.begin_txn group (Activity.update "u1") in
    let t2 = Group.begin_txn group (Activity.update "u2") in
    let step g obj op k =
      match Group.invoke group g obj op with
      | Group.Granted _ -> k ()
      | Group.Wait _ | Group.Refused _ -> `Blocked
      | exception exn -> `Crashed (Printexc.to_string exn)
    in
    (* T1 walks the shards forward, T2 backward, interleaved — each
       shard sees a different half of the race. *)
    let forward = ids and backward = List.rev ids in
    let rec walk xs ys k =
      match (xs, ys) with
      | [], [] -> k ()
      | x :: xs, y :: ys ->
        step t1 x p @@ fun () ->
        step t2 y q @@ fun () -> walk xs ys k
      | _ -> assert false
    in
    walk forward backward @@ fun () ->
    match
      if crash then begin
        (* Participant 1 (in first-touch order: the middle shard) dies
           after voting yes; the decision is reached without it. *)
        Group.commit ~fault:participant_crash group t1;
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
        (* The crash killed T2's surviving legs; commit it only if it
           is somehow still active. *)
        if Gtxn.is_active t2 then Group.commit group t2
      end
      else begin
        Group.commit group t1;
        Group.commit group t2
      end
    with
    | () -> `Completed (group, ids, [ t1; t2 ])
    | exception exn -> `Crashed (Printexc.to_string exn))

let probe_wide entry setup p q ~crash =
  match run_wide entry setup p q ~crash with
  | `Setup_blocked -> None
  | `Blocked -> Some Blocked
  | `Crashed exn ->
    Some
      (Granted_unsound
         (Fmt.str "wide %s completion raised: %s"
            (if crash then "crash" else "clean")
            exn))
  | `Completed (group, ids, gtxns) -> (
    match check_global_n entry group ids gtxns with
    | Some why ->
      Some
        (Granted_unsound
           (Fmt.str "wide %s completion: %s"
              (if crash then "crash" else "clean")
              why))
    | None -> Some Granted_sound)

let probe_pair entry ~t2_read_only setup p q =
  let completions : completion list =
    if t2_read_only then [ `CC; `CC_rev; `A1C2 ]
    else [ `CC; `CC_rev; `C1A2; `A1C2 ]
  in
  let rec go = function
    | [] -> Some Granted_sound
    | completion :: rest -> (
      match run_pattern entry ~t2_read_only setup p q ~completion with
      | `Setup_blocked -> None
      | `Blocked -> Some Blocked
      | `Crashed exn ->
        Some
          (Granted_unsound
             (Fmt.str "completion %s raised: %s" (completion_name completion)
                exn))
      | `Completed (group, a, b, t1, t2) -> (
        match check_global entry group a b [ t1; t2 ] with
        | Some why ->
          Some
            (Granted_unsound
               (Fmt.str "completion %s: %s" (completion_name completion) why))
        | None -> go rest))
  in
  go completions

let run (entry : Catalog.entry) ~setups =
  let d = entry.Catalog.domain in
  let probed = ref 0 in
  let granted = ref 0 in
  let blocked = ref 0 in
  let unsound = ref [] in
  let variants =
    match entry.Catalog.policy with
    | `Hybrid ->
      [ ("update-update", false, fun _ -> true);
        ("update-readonly", true, d.Domain.read_only) ]
    | `None_ | `Static -> [ ("update-update", false, fun _ -> true) ]
  in
  List.iter
    (fun (label, t2_read_only, q_ok) ->
      List.iter
        (fun setup ->
          let setup_usable = ref true in
          List.iter
            (fun p ->
              List.iter
                (fun q ->
                  if !setup_usable && q_ok q then begin
                    match probe_pair entry ~t2_read_only setup p q with
                    | None -> setup_usable := false
                    | Some status ->
                      incr probed;
                      (match status with
                      | Granted_sound -> incr granted
                      | Blocked -> incr blocked
                      | Granted_unsound _ ->
                        unsound :=
                          {
                            x_setup = setup;
                            x_variant = label;
                            x_p = p;
                            x_q = q;
                            x_status = status;
                          }
                          :: !unsound)
                  end)
                d.Domain.alphabet)
            d.Domain.alphabet)
        setups)
    variants;
  let wide_probed = ref 0 in
  let wide_granted = ref 0 in
  let wide_blocked = ref 0 in
  let wide_unsound = ref [] in
  List.iter
    (fun setup ->
      let setup_usable = ref true in
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              List.iter
                (fun crash ->
                  if !setup_usable then begin
                    match probe_wide entry setup p q ~crash with
                    | None -> setup_usable := false
                    | Some status ->
                      incr wide_probed;
                      (match status with
                      | Granted_sound -> incr wide_granted
                      | Blocked -> incr wide_blocked
                      | Granted_unsound why ->
                        wide_unsound :=
                          {
                            w_setup = setup;
                            w_p = p;
                            w_q = q;
                            w_mode =
                              (if crash then "participant-crash" else "clean");
                            w_problem = why;
                          }
                          :: !wide_unsound)
                  end)
                [ false; true ])
            d.Domain.alphabet)
        d.Domain.alphabet)
    setups;
  {
    probed = !probed;
    granted = !granted;
    blocked = !blocked;
    unsound = List.rev !unsound;
    wide_probed = !wide_probed;
    wide_granted = !wide_granted;
    wide_blocked = !wide_blocked;
    wide_unsound = List.rev !wide_unsound;
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
