module Rng = Weihl_sim.Rng
module Msim = Weihl_dist.Msim
module Tpc = Weihl_dist.Tpc

type tpc_fault =
  | Clean
  | Coord_crash of Tpc.crash_point
  | Part_crash of int * [ `Before_vote | `After_vote ]
  | Part_refuses of int
  | Partition of int

type ckpt_fault =
  | Ckpt_pristine
  | Ckpt_bit_flip of int
  | Ckpt_torn of int
  | Ckpt_race

type replica_fault =
  | Replica_healthy
  | Replica_lag of int * int
  | Replica_crash of int
  | Replica_partition of int
  | Replica_damage of int * int

type t = {
  seed : int;
  fault_at_commit : int;
  tpc : tpc_fault;
  msg : Msim.faults;
  log_fault : Plan.log_fault;
  ckpt : ckpt_fault;
  ship : Msim.faults;
  replica : replica_fault;
}

let generate ~seed =
  let rng = Rng.create (seed * 37 + 11) in
  let fault_at_commit = Rng.int_range rng 1 4 in
  (* Every 2PC phase gets steady coverage across a sweep: coordinator
     crashes before/after PREPARE and mid-decision, participant crashes
     before/after the vote, a no-vote, and a coordinator<->participant
     partition that heals late enough for presumed abort to fire. *)
  let tpc =
    match Rng.int rng 10 with
    | 0 | 1 -> Clean
    | 2 -> Coord_crash Tpc.Before_prepare
    | 3 -> Coord_crash Tpc.After_prepare
    | 4 -> Coord_crash (Tpc.Mid_decision (Rng.int rng 3))
    | 5 -> Part_crash (Rng.int rng 4, `Before_vote)
    | 6 -> Part_crash (Rng.int rng 4, `After_vote)
    | 7 -> Part_refuses (Rng.int rng 4)
    | 8 -> Partition (Rng.int rng 4)
    | _ -> Part_crash (Rng.int rng 4, `After_vote)
  in
  let msg =
    if Rng.bool rng then Msim.no_faults
    else
      {
        Msim.drop = Rng.float rng 0.15;
        duplicate = Rng.float rng 0.2;
        reorder = Rng.float rng 0.3;
      }
  in
  let log_fault =
    (* Corruption is rare enough that most schedules exercise the
       recovery path proper; when present it targets the crashed
       participant's WAL.  The damage is one bit flip.  A participant
       syncs every record it acknowledges externally — the Prepared
       record before its yes-vote leaves the site, commits before they
       are answered — so a crash cannot tear acknowledged records off
       the tail.  A flip in the last line still reads as a torn tail,
       which no CRC tells from a crash mid-write; when that line is the
       Prepared record of a commit the coordinator decided, recovery
       catches the loss against the decision log instead. *)
    match Rng.int rng 12 with
    | 0 | 1 -> Plan.Bit_flip (Rng.int rng 10_000)
    | _ -> Plan.Pristine
  in
  (* Drawn last so every pre-checkpointing field keeps its value for a
     given seed.  Damage lands on the victim's newest checkpoint file —
     recovery must fall back to the older retained checkpoint (or a
     full replay) and say so.  [Ckpt_race] is the distinct crash
     window: the file reached disk but its WAL marker never synced. *)
  let ckpt =
    match Rng.int rng 10 with
    | 0 | 1 -> Ckpt_bit_flip (Rng.int rng 100_000)
    | 2 -> Ckpt_torn (1 + Rng.int rng 200)
    | 3 | 4 -> Ckpt_race
    | _ -> Ckpt_pristine
  in
  (* The replication fields are drawn after everything else, so every
     pre-replication field keeps its value for a given seed.  [ship]
     faults the WAL-shipping channel itself (the resend-from-acked
     protocol must absorb drop/duplicate/reorder); [replica] picks one
     replica-side fault for the drill to stage mid-run. *)
  let ship =
    if Rng.bool rng then Msim.no_faults
    else
      {
        Msim.drop = Rng.float rng 0.2;
        duplicate = Rng.float rng 0.25;
        reorder = Rng.float rng 0.3;
      }
  in
  let replica =
    match Rng.int rng 10 with
    | 0 | 1 -> Replica_lag (Rng.int rng 4, 2 + Rng.int rng 6)
    | 2 | 3 -> Replica_crash (Rng.int rng 4)
    | 4 | 5 -> Replica_partition (Rng.int rng 4)
    | 6 -> Replica_damage (Rng.int rng 4, 1 + Rng.int rng 3)
    | _ -> Replica_healthy
  in
  { seed; fault_at_commit; tpc; msg; log_fault; ckpt; ship; replica }

let corrupt t text = Plan.corrupt_with t.log_fault text

let corrupt_ckpt t text =
  match t.ckpt with
  | Ckpt_pristine | Ckpt_race -> text
  | Ckpt_bit_flip k -> Plan.corrupt_with (Plan.Bit_flip k) text
  | Ckpt_torn k -> Plan.corrupt_with (Plan.Torn_tail k) text

let pp_tpc ppf = function
  | Clean -> Fmt.string ppf "clean"
  | Coord_crash Tpc.No_crash -> Fmt.string ppf "coord:none"
  | Coord_crash Tpc.Before_prepare -> Fmt.string ppf "coord:before-prepare"
  | Coord_crash Tpc.After_prepare -> Fmt.string ppf "coord:after-prepare"
  | Coord_crash (Tpc.Mid_decision k) -> Fmt.pf ppf "coord:mid-decision(%d)" k
  | Part_crash (i, `Before_vote) -> Fmt.pf ppf "part%d:crash-before-vote" i
  | Part_crash (i, `After_vote) -> Fmt.pf ppf "part%d:crash-after-vote" i
  | Part_refuses i -> Fmt.pf ppf "part%d:votes-no" i
  | Partition i -> Fmt.pf ppf "part%d:partitioned" i

let pp_ckpt ppf = function
  | Ckpt_pristine -> Fmt.string ppf "ckpt:pristine"
  | Ckpt_bit_flip k -> Fmt.pf ppf "ckpt:bit-flip(%d)" k
  | Ckpt_torn k -> Fmt.pf ppf "ckpt:torn(%d)" k
  | Ckpt_race -> Fmt.string ppf "ckpt:marker-race"

let pp_replica ppf = function
  | Replica_healthy -> Fmt.string ppf "replica:healthy"
  | Replica_lag (i, n) -> Fmt.pf ppf "replica%d:lag(%d)" i n
  | Replica_crash i -> Fmt.pf ppf "replica%d:crash" i
  | Replica_partition i -> Fmt.pf ppf "replica%d:partitioned" i
  | Replica_damage (i, n) -> Fmt.pf ppf "replica%d:damage(%d)" i n

let pp ppf t =
  Fmt.pf ppf
    "@[<h>seed %d: at-commit %d, 2pc %a, msg{d=%.2f,u=%.2f,r=%.2f}, %a@]"
    t.seed t.fault_at_commit pp_tpc t.tpc t.msg.Msim.drop t.msg.Msim.duplicate
    t.msg.Msim.reorder pp_replica t.replica
