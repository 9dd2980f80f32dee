type vote = Yes | No

type crash_point =
  | No_crash
  | Before_prepare
  | After_prepare
  | Mid_decision of int

type config = {
  participants : int;
  site_clocks : int list;
  votes : vote list;
  coordinator_crash : crash_point;
  participant_crash : (int * [ `Before_vote | `After_vote ]) option;
  timeout : int;
  max_retries : int;
  retry_cap : int;
  msg_faults : Msim.faults;
  seed : int;
}

let default_config =
  {
    participants = 3;
    site_clocks = [ 0; 0; 0 ];
    votes = [ Yes; Yes; Yes ];
    coordinator_crash = No_crash;
    participant_crash = None;
    timeout = 50;
    max_retries = 4;
    retry_cap = 400;
    msg_faults = Msim.no_faults;
    seed = 1;
  }

(* Exponential backoff: the delay before termination round [r], doubling
   from [timeout] and capped at [retry_cap]. *)
let backoff ~timeout ~retry_cap r =
  let rec double d r = if r <= 0 || d >= retry_cap then d else double (d * 2) (r - 1) in
  min (double timeout r) retry_cap

type site_status = Committed of int | Aborted | Blocked | Crashed

type outcome = {
  statuses : site_status list;
  commit_ts : int option;
  final_clocks : int list;
  messages : int;
  duration : int;
}

type decision = {
  committed : bool;
  decision_ts : int option;
  outcomes : site_status list;
  decision_messages : int;
  decision_duration : int;
}

type participant = {
  clock : unit -> int;
  prepare : unit -> vote;
  learn : [ `Commit of int | `Abort ] -> unit;
}

type fault = {
  f_coordinator_crash : crash_point;
  f_participant_crash : (int * [ `Before_vote | `After_vote ]) option;
  f_msg_faults : Msim.faults;
  f_partitions : (int * int) list;
  f_heal_at : int option;
}

let no_fault =
  {
    f_coordinator_crash = No_crash;
    f_participant_crash = None;
    f_msg_faults = Msim.no_faults;
    f_partitions = [];
    f_heal_at = None;
  }

type msg =
  | Prepare
  | Vote_yes of int * int (* participant index, clock reading *)
  | Vote_no of int
  | Decide_commit of int (* commit timestamp *)
  | Decide_abort
  | Timeout_check
  | Coord_timeout
  | Query of int (* querying participant index *)
  | Peer_status of site_status_wire

and site_status_wire = W_committed of int | W_aborted | W_prepared | W_idle

(* Participant protocol state. *)
type pstate =
  | P_idle
  | P_refused (* decided abort before voting (termination protocol) *)
  | P_prepared
  | P_committed of int
  | P_aborted

type coordinator = {
  mutable yes_votes : (int * int) list; (* participant, clock *)
  mutable no_seen : bool;
  mutable decided : bool;
}

(* The protocol engine shared by the one-shot {!run} and the reusable
   {!Driver}.  Node 0 is the coordinator; participant i is node i+1. *)
let run_core ?metrics ~timeout ~max_retries ~retry_cap ~(fault : fault)
    ~choose_ts ~on_decide ~seed (parts : participant array) : decision =
  let n = Array.length parts in
  let node_of_participant i = i + 1 in
  let participant_of_node node = node - 1 in
  let coord = { yes_votes = []; no_seen = false; decided = false } in
  let commit_ts = ref None in
  let pstates = Array.make (max n 1) P_idle in
  let count name =
    match metrics with
    | None -> ()
    | Some reg ->
      Weihl_obs.Metrics.Counter.incr
        (Weihl_obs.Metrics.Registry.counter reg name)
  in
  let site_count i what = count (Fmt.str "tpc.site%d.%s" i what) in
  (* Every phase transition of a participant goes through here so the
     registry sees it.  [learn] fires exactly on the transition out of
     [P_prepared] — the only state from which a yes-voter resolves. *)
  let set_pstate i st =
    (match st with
    | P_prepared -> site_count i "prepared"
    | P_committed _ -> site_count i "committed"
    | P_aborted -> site_count i "aborted"
    | P_refused -> site_count i "refused"
    | P_idle -> ());
    (match (pstates.(i), st) with
    | P_prepared, P_committed ts -> parts.(i).learn (`Commit ts)
    | P_prepared, P_aborted -> parts.(i).learn `Abort
    | _ -> ());
    pstates.(i) <- st
  in
  let rounds = Array.make (max n 1) 0 in
  let decide sim ts_or_abort upto =
    coord.decided <- true;
    count
      (match ts_or_abort with
      | Some _ -> "tpc.coord.decide.commit"
      | None -> "tpc.coord.decide.abort");
    (match ts_or_abort with
    | Some ts -> commit_ts := Some ts
    | None -> ());
    (* The coordinator's decision is durable (write-ahead) before any
       Decide message leaves — this is the hook a decision log hangs
       off. *)
    on_decide
      (match ts_or_abort with Some ts -> `Commit ts | None -> `Abort);
    let msg =
      match ts_or_abort with
      | Some ts -> Decide_commit ts
      | None -> Decide_abort
    in
    for i = 0 to min (upto - 1) (n - 1) do
      Msim.send sim ~src:0 ~dst:(node_of_participant i) msg
    done
  in
  let handler sim ~node msg =
    if node = 0 then begin
      (* Coordinator. *)
      match msg with
      | Vote_no _ ->
        if not coord.decided then decide sim None n
      | Vote_yes (i, clock) ->
        if not coord.decided then begin
          if not (List.mem_assoc i coord.yes_votes) then
            coord.yes_votes <- (i, clock) :: coord.yes_votes;
          if List.length coord.yes_votes = n then begin
            (* The hybrid commit-timestamp agreement rule: strictly
               above every participant's clock reading, so the agreed
               timestamp is in every site's future. *)
            let ts =
              choose_ts
                (1 + List.fold_left (fun acc (_, c) -> max acc c) 0 coord.yes_votes)
            in
            match fault.f_coordinator_crash with
            | Mid_decision k ->
              decide sim (Some ts) k;
              Msim.crash sim 0
            | _ -> decide sim (Some ts) n
          end
        end
      | Coord_timeout ->
        (* Presumed abort: a vote is missing past the coordinator's
           patience — lost, or its site is down.  Abort is always safe
           before a decision; without this, one silent participant
           would block every peer forever. *)
        if not coord.decided then begin
          count "tpc.coord.timeout";
          decide sim None n
        end
      | Prepare | Decide_commit _ | Decide_abort | Timeout_check | Query _
      | Peer_status _ -> ()
    end
    else begin
      (* Participant. *)
      let i = participant_of_node node in
      (match fault.f_participant_crash with
      | Some (j, `Before_vote) when j = i && pstates.(i) = P_idle ->
        Msim.crash sim node
      | _ -> ());
      if not (Msim.crashed sim node) then
        match msg with
        | Prepare -> (
          site_count i "prepare";
          match pstates.(i) with
          | P_idle -> (
            match parts.(i).prepare () with
            | No ->
              set_pstate i P_aborted;
              site_count i "vote.no";
              Msim.send sim ~src:node ~dst:0 (Vote_no i)
            | Yes ->
              set_pstate i P_prepared;
              site_count i "vote.yes";
              Msim.send sim ~src:node ~dst:0 (Vote_yes (i, parts.(i).clock ()));
              Msim.set_timer sim ~node ~after:timeout Timeout_check;
              (match fault.f_participant_crash with
              | Some (j, `After_vote) when j = i -> Msim.crash sim node
              | _ -> ()))
          | P_refused -> Msim.send sim ~src:node ~dst:0 (Vote_no i)
          | P_prepared | P_committed _ | P_aborted -> ())
        | Decide_commit ts -> (
          match pstates.(i) with
          | P_prepared | P_idle -> set_pstate i (P_committed ts)
          | P_refused | P_committed _ | P_aborted -> ())
        | Decide_abort -> (
          match pstates.(i) with
          | P_prepared | P_idle | P_refused -> set_pstate i P_aborted
          | P_committed _ | P_aborted -> ())
        | Timeout_check ->
          if pstates.(i) = P_prepared then begin
            if rounds.(i) < max_retries then begin
              rounds.(i) <- rounds.(i) + 1;
              site_count i "termination.round";
              (* Cooperative termination: ask every peer.  Queries (or
                 their replies) can be lost, so each round waits twice
                 as long as the last before asking again, up to
                 [retry_cap]. *)
              for j = 0 to n - 1 do
                if j <> i then
                  Msim.send sim ~src:node ~dst:(node_of_participant j)
                    (Query i)
              done;
              Msim.set_timer sim ~node ~after:(backoff ~timeout ~retry_cap rounds.(i))
                Timeout_check
            end
          end
        | Query from -> (
          let reply w =
            Msim.send sim ~src:node ~dst:(node_of_participant from)
              (Peer_status w)
          in
          match pstates.(i) with
          | P_committed ts -> reply (W_committed ts)
          | P_aborted | P_refused -> reply W_aborted
          | P_prepared -> reply W_prepared
          | P_idle ->
            (* Refuse to vote so the querier may safely abort: the
               coordinator can no longer have collected our yes-vote. *)
            set_pstate i P_refused;
            reply W_idle)
        | Peer_status w -> (
          if pstates.(i) = P_prepared then
            match w with
            | W_committed ts -> set_pstate i (P_committed ts)
            | W_aborted | W_idle -> set_pstate i P_aborted
            | W_prepared -> ())
        | Vote_yes _ | Vote_no _ | Coord_timeout -> ()
    end
  in
  let sim =
    Msim.create ?metrics ~faults:fault.f_msg_faults ~seed
      ~nodes:(n + 1) ~handler ()
  in
  List.iter (fun (a, b) -> Msim.partition sim a b) fault.f_partitions;
  (match fault.f_heal_at with
  | Some time -> Msim.heal_all_at sim ~time
  | None -> ());
  (match fault.f_coordinator_crash with
  | Before_prepare -> Msim.crash sim 0
  | No_crash | After_prepare | Mid_decision _ ->
    for i = 0 to n - 1 do
      Msim.send sim ~src:0 ~dst:(node_of_participant i) Prepare
    done;
    (* The coordinator's own patience: if any vote is still missing
       after the participants' full termination window, presume abort
       rather than leave prepared sites blocked on a silent peer. *)
    Msim.set_timer sim ~node:0 ~after:(2 * timeout) Coord_timeout);
  (match fault.f_coordinator_crash with
  | After_prepare ->
    (* Die just after the prepares leave, before any vote arrives. *)
    Msim.crash_at sim ~time:1 0
  | No_crash | Before_prepare | Mid_decision _ -> ());
  Msim.run sim;
  let outcomes =
    List.init n (fun i ->
        if Msim.crashed sim (node_of_participant i) then Crashed
        else
          match pstates.(i) with
          | P_committed ts -> Committed ts
          | P_aborted | P_refused -> Aborted
          | P_prepared -> Blocked
          | P_idle -> Aborted (* never engaged: presumed abort *))
  in
  {
    committed = !commit_ts <> None;
    decision_ts = !commit_ts;
    outcomes;
    decision_messages = Msim.messages_delivered sim;
    decision_duration = Msim.now sim;
  }

module Driver = struct
  let commit ?(fault = no_fault) ?(choose_ts = fun ts -> ts)
      ?(on_decide = fun _ -> ()) ~seed participants =
    let { timeout; max_retries; retry_cap; _ } = default_config in
    run_core ~timeout ~max_retries ~retry_cap ~fault
      ~choose_ts ~on_decide ~seed
      (Array.of_list participants)
end

let run ?metrics cfg =
  if List.length cfg.site_clocks <> cfg.participants then
    invalid_arg "Tpc.run: site_clocks length mismatch";
  if List.length cfg.votes <> cfg.participants then
    invalid_arg "Tpc.run: votes length mismatch";
  let clocks = Array.of_list cfg.site_clocks in
  let votes = Array.of_list cfg.votes in
  let parts =
    Array.init cfg.participants (fun i ->
        {
          clock = (fun () -> clocks.(i));
          prepare = (fun () -> votes.(i));
          learn =
            (function
            | `Commit ts -> clocks.(i) <- max clocks.(i) ts
            | `Abort -> ());
        })
  in
  let fault =
    {
      f_coordinator_crash = cfg.coordinator_crash;
      f_participant_crash = cfg.participant_crash;
      f_msg_faults = cfg.msg_faults;
      f_partitions = [];
      f_heal_at = None;
    }
  in
  let d =
    run_core ?metrics ~timeout:cfg.timeout ~max_retries:cfg.max_retries
      ~retry_cap:cfg.retry_cap ~fault ~choose_ts:(fun ts -> ts)
      ~on_decide:(fun _ -> ())
      ~seed:cfg.seed parts
  in
  {
    statuses = d.outcomes;
    commit_ts = d.decision_ts;
    final_clocks = Array.to_list clocks;
    messages = d.decision_messages;
    duration = d.decision_duration;
  }

let atomic_commitment o =
  let committed =
    List.exists (function Committed _ -> true | _ -> false) o.statuses
  in
  let aborted = List.exists (( = ) Aborted) o.statuses in
  not (committed && aborted)

let pp_status ppf = function
  | Committed ts -> Fmt.pf ppf "committed(%d)" ts
  | Aborted -> Fmt.string ppf "aborted"
  | Blocked -> Fmt.string ppf "blocked"
  | Crashed -> Fmt.string ppf "crashed"

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>decision: %a@,sites: %a@,messages: %d, duration: %d@]"
    Fmt.(option ~none:(any "none") int)
    o.commit_ts
    Fmt.(list ~sep:comma pp_status)
    o.statuses o.messages o.duration
