open Weihl_event
module Rng = Weihl_sim.Rng
module Workload = Weihl_sim.Workload
module Pqueue = Weihl_sim.Pqueue
module Histogram = Weihl_obs.Metrics.Histogram

type arrivals = Clients of int | Poisson of float

type config = {
  arrivals : arrivals;
  duration : int;
  window : int;
  jobs : int;
  inflight : int;
  activity_base : int;
  seed : int;
}

let default_config =
  {
    arrivals = Clients 6;
    duration = 1500;
    window = 250;
    jobs = 400;
    inflight = 32;
    activity_base = 0;
    seed = 42;
  }

type window = {
  w_start : int;
  w_arrivals : int;
  w_committed : int;
  w_aborted : int;
  w_p50 : float;
  w_p99 : float;
}

type outcome = {
  started : int;
  committed : int;
  committed_read_only : int;
  committed_multi : int;
  aborted_deadlock : int;
  aborted_refused : int;
  aborted_starved : int;
  aborted_tpc : int;
  gave_up : int;
  in_doubt : int;
  waits : int;
  restarts : int;
  shard_latency : Histogram.t array;
  windows : window list;
  ticks : int;
  elapsed : float;
}

let in_flight o = o.started - o.committed - o.gave_up - o.in_doubt
let latency o = Histogram.merge_all (Array.to_list o.shard_latency)

(* ------------------------------------------------------------------ *)
(* What both schedulers share: the job, the script-step rule, the
   deadlock victim and the tally. *)

type scheduler = Events | Rounds

type job = {
  seat : int;  (* event loop: the client or arrival whose turns run it *)
  script : Workload.script;
  home : int;  (* shard of the script's first object *)
  born : int;  (* tick or round the script was drawn *)
  mutable steps : Workload.step list;  (* what is left of the program *)
  mutable txn : Gtxn.t option;
  mutable restarts_left : int;
  mutable waits_left : int;
}

(* One point of the time series: an arrival, a commit with its latency,
   or a script abandoned (gave up or left in doubt). *)
type mark = Arrived | Committed of float | Abandoned

type t = {
  sched : scheduler;
  group : Group.t;
  workload : Workload.t;
  rng : Rng.t;
  max_restarts : int;
  max_waits : int;
  owner : (int, job) Hashtbl.t;  (* gid -> job, so a victim maps back *)
  mutable names : int;
  mutable marks : (int * mark) list;  (* newest first *)
  mutable o : outcome;  (* the tally so far *)
}

let create sched config group workload =
  let max_restarts, max_waits =
    match sched with Events -> (3, 50) | Rounds -> (8, 64)
  in
  {
    sched;
    group;
    workload;
    rng = Rng.create config.seed;
    max_restarts;
    max_waits;
    owner = Hashtbl.create 64;
    names = config.activity_base;
    marks = [];
    o =
      {
        started = 0;
        committed = 0;
        committed_read_only = 0;
        committed_multi = 0;
        aborted_deadlock = 0;
        aborted_refused = 0;
        aborted_starved = 0;
        aborted_tpc = 0;
        gave_up = 0;
        in_doubt = 0;
        waits = 0;
        restarts = 0;
        shard_latency =
          Array.init (Group.shard_count group) (fun _ -> Histogram.create ());
        windows = [];
        ticks = 0;
        elapsed = 0.;
      };
  }

let txn j = Option.get j.txn

let draw t ~seat ~time =
  let script = t.workload.Workload.generate t.rng in
  let home =
    match script.Workload.steps with
    | [] -> 0
    | step :: _ -> Group.shard_of t.group step.Workload.obj
  in
  t.o <- { t.o with started = t.o.started + 1 };
  t.marks <- (time, Arrived) :: t.marks;
  {
    seat;
    script;
    home;
    born = time;
    steps = script.Workload.steps;
    txn = None;
    restarts_left = t.max_restarts;
    waits_left = t.max_waits;
  }

let begin_txn t j =
  t.names <- t.names + 1;
  let update, read = match t.sched with Events -> ("u", "r") | Rounds -> ("m", "q") in
  let activity =
    match j.script.Workload.kind with
    | `Update -> Activity.update (update ^ string_of_int t.names)
    | `Read_only -> Activity.read_only (read ^ string_of_int t.names)
  in
  let g = Group.begin_txn t.group activity in
  j.txn <- Some g;
  Hashtbl.replace t.owner (Gtxn.gid g) j;
  g

(* Forget the job's transaction and rewind its program. *)
let drop t j =
  Option.iter (fun g -> Hashtbl.remove t.owner (Gtxn.gid g)) j.txn;
  j.txn <- None;
  j.steps <- j.script.Workload.steps;
  j.waits_left <- t.max_waits

(* After an abort: rewind for another attempt, or give the script up
   once its restart budget is spent.  True when it runs again. *)
let retry t j ~time =
  drop t j;
  if j.restarts_left <= 0 then begin
    t.o <- { t.o with gave_up = t.o.gave_up + 1 };
    t.marks <- (time, Abandoned) :: t.marks;
    false
  end
  else begin
    j.restarts_left <- j.restarts_left - 1;
    t.o <- { t.o with restarts = t.o.restarts + 1 };
    true
  end

(* A granted step advances the program, and [continue_if] may end it
   early.  The event loop's wait budget counts consecutive blocked
   retries, so a grant refills it.  True when the program is done. *)
let granted t j step v =
  if t.sched = Events then j.waits_left <- t.max_waits;
  j.steps <- List.tl j.steps;
  (match step.Workload.continue_if with
  | Some keep when not (keep v) -> j.steps <- []
  | _ -> ());
  j.steps = []

let count_wait t = t.o <- { t.o with waits = t.o.waits + 1 }

(* A blocked retry spends the wait budget: the event loop checks before
   spending, the round loop spends first.  False when it was spent
   already — the attempt is then aborted as starved. *)
let within_budget t j g =
  if t.sched = Rounds then j.waits_left <- j.waits_left - 1;
  if j.waits_left <= 0 then begin
    Group.abort ~reason:"starved" t.group g;
    t.o <- { t.o with aborted_starved = t.o.aborted_starved + 1 };
    false
  end
  else begin
    if t.sched = Events then j.waits_left <- j.waits_left - 1;
    true
  end

let refuse t g =
  Group.abort ~reason:"refused" t.group g;
  t.o <- { t.o with aborted_refused = t.o.aborted_refused + 1 }

(* Abort the youngest member of a cross-shard waits-for cycle and hand
   its job to [restart].  False when there is no cycle to break. *)
let break_deadlock t ~restart =
  match Group.find_deadlock t.group with
  | None -> false
  | Some cycle -> (
    let victim = Group.victim cycle in
    match Hashtbl.find_opt t.owner (Gtxn.gid victim) with
    | None -> false
    | Some j ->
      Group.abort ~reason:"deadlock" t.group victim;
      t.o <- { t.o with aborted_deadlock = t.o.aborted_deadlock + 1 };
      restart j;
      true)

(* Book a commit attempt.  True when the job is done: committed, or
   parked in doubt — then it is out of the job's hands, held in the
   group until a decision is replayed.  False when the commit decided
   abort and the job must retry. *)
let settle t j g ~time ~multi =
  match Gtxn.status g with
  | Gtxn.Committed ->
    drop t j;
    let lat = float_of_int (max 1 (time - j.born)) in
    Histogram.observe t.o.shard_latency.(j.home) lat;
    t.marks <- (time, Committed lat) :: t.marks;
    let count b n = if b then n + 1 else n in
    t.o <-
      {
        t.o with
        committed = t.o.committed + 1;
        committed_read_only =
          count (j.script.Workload.kind = `Read_only) t.o.committed_read_only;
        committed_multi = count multi t.o.committed_multi;
      };
    true
  | Gtxn.In_doubt ->
    drop t j;
    t.marks <- (time, Abandoned) :: t.marks;
    t.o <- { t.o with in_doubt = t.o.in_doubt + 1 };
    true
  | Gtxn.Aborted ->
    t.o <- { t.o with aborted_tpc = t.o.aborted_tpc + 1 };
    false
  | Gtxn.Active -> invalid_arg "Sharded_driver: commit left the transaction active"

(* Nearest-rank percentile of a sorted array. *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0
              (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let windows marks ~width ~horizon =
  let n = (horizon / width) + 1 in
  let arrivals = Array.make n 0 and committed = Array.make n 0 in
  let aborted = Array.make n 0 and lats = Array.make n [] in
  List.iter
    (fun (time, m) ->
      let w = min (n - 1) (time / width) in
      match m with
      | Arrived -> arrivals.(w) <- arrivals.(w) + 1
      | Committed lat ->
        committed.(w) <- committed.(w) + 1;
        lats.(w) <- lat :: lats.(w)
      | Abandoned -> aborted.(w) <- aborted.(w) + 1)
    marks;
  List.init n (fun w ->
      let sorted = Array.of_list lats.(w) in
      Array.sort Float.compare sorted;
      {
        w_start = w * width;
        w_arrivals = arrivals.(w);
        w_committed = committed.(w);
        w_aborted = aborted.(w);
        w_p50 = exact_percentile sorted 50.;
        w_p99 = exact_percentile sorted 99.;
      })

let finish t ~width ~horizon ~ticks ~t0 =
  let ns = Int64.sub (Monotonic_clock.now ()) t0 in
  {
    t.o with
    windows = windows t.marks ~width ~horizon;
    ticks;
    elapsed = Int64.to_float ns /. 1e9;
  }

(* ------------------------------------------------------------------ *)
(* The event loop: virtual time, one commit at a time *)

(* Ticks per operation, before a blocked retry, and before a client's
   retry after an abort (plus 0-2 ticks of seeded jitter). *)
let op_cost = 1
let wait_backoff = 4
let restart_backoff = 5

(* A closed-loop client, or one open-loop arrival. *)
type seat = { sid : int; mutable job : job option; mutable queued : bool }

let run ?(config = default_config) ?tracer
    ?(on_commit = fun group g ~nth_multi:_ -> Group.commit group g) group
    workload =
  let closed, load =
    match config.arrivals with
    | Clients n -> (true, n)
    | Poisson rate ->
      if rate <= 0. then invalid_arg "Sharded_driver.run: rate must be positive";
      (false, 1 + int_of_float (rate *. float_of_int config.duration))
  in
  if config.window <= 0 then
    invalid_arg "Sharded_driver.run: window must be positive";
  let t = create Events config group workload in
  let t0 = Monotonic_clock.now () in
  let pq : int Pqueue.t = Pqueue.create () in
  let now = ref 0 in
  (match tracer with
  | None -> ()
  | Some st ->
    Weihl_obs.Shard_trace.set_now st (fun () -> float_of_int !now);
    Group.set_tracer group st);
  (* Seat ids double as queue payloads; the arrival process itself is
     the reserved payload [-1]. *)
  let seats : (int, seat) Hashtbl.t = Hashtbl.create 256 in
  let next_sid = ref 0 in
  let new_seat () =
    let s = { sid = !next_sid; job = None; queued = false } in
    incr next_sid;
    Hashtbl.replace seats s.sid s;
    s
  in
  (* A client has at most one pending turn.  An arrival may hold
     several — a deadlock restart re-queues a job already waiting for
     its retry — and the seeded open-loop series depend on that. *)
  let schedule s ~time =
    if not (closed && s.queued) then begin
      s.queued <- true;
      Pqueue.push pq ~time s.sid
    end
  in
  (* The seat's job is over: a client draws its next script at [time],
     an arrival leaves. *)
  let vacate s ~time =
    if closed then begin
      s.job <- None;
      schedule s ~time
    end
    else Hashtbl.remove seats s.sid
  in
  (* A client retries after a jittered backoff, an arrival after the
     wait backoff. *)
  let after_abort ~time j =
    let s = Hashtbl.find seats j.seat in
    let again = retry t j ~time in
    let time =
      if closed then time + restart_backoff + Rng.int t.rng 3
      else time + wait_backoff
    in
    if again then schedule s ~time else vacate s ~time
  in
  let multi_attempts = ref 0 in
  let commit s j g ~time =
    let multi = Gtxn.fanout g >= 2 in
    if multi then incr multi_attempts;
    ignore (on_commit group g ~nth_multi:!multi_attempts);
    if settle t j g ~time ~multi then vacate s ~time:(time + op_cost)
    else after_abort ~time j
  in
  let turn s ~time =
    s.queued <- false;
    let j =
      match s.job with
      | Some j -> j
      | None ->
        let j = draw t ~seat:s.sid ~time in
        s.job <- Some j;
        j
    in
    (* A shard crash may have aborted the transaction between turns;
       rerun the script against the surviving shards. *)
    (match j.txn with
    | Some g when not (Gtxn.is_active g) -> drop t j
    | _ -> ());
    let g = match j.txn with Some g -> g | None -> begin_txn t j in
    match j.steps with
    | [] -> commit s j g ~time
    | step :: _ -> (
      match Group.invoke group g step.Workload.obj step.Workload.op with
      | Group.Granted v ->
        (* A client commits as soon as its program is done, an arrival
           on its next turn. *)
        let ready = granted t j step v in
        if ready && closed then commit s j g ~time:(time + op_cost)
        else schedule s ~time:(time + op_cost)
      | Group.Wait _ ->
        count_wait t;
        if break_deadlock t ~restart:(after_abort ~time) then
          schedule s ~time:(time + 1)
        else if within_budget t j g then
          schedule s ~time:(time + wait_backoff)
        else after_abort ~time j
      | Group.Refused _ ->
        refuse t g;
        after_abort ~time j)
  in
  let arrival_clock = ref 0. in
  let next_arrival () =
    match config.arrivals with
    | Clients _ -> ()
    | Poisson rate ->
      let u = Rng.float t.rng 1.0 in
      arrival_clock := !arrival_clock +. (-.log (1. -. u) /. rate);
      let time = int_of_float !arrival_clock in
      if time <= config.duration then Pqueue.push pq ~time (-1)
  in
  let arrive ~time =
    let s = new_seat () in
    s.job <- Some (draw t ~seat:s.sid ~time);
    schedule s ~time;
    next_arrival ()
  in
  if closed then
    for _ = 1 to load do
      schedule (new_seat ()) ~time:(Rng.int t.rng 2)
    done;
  next_arrival ();
  let last_time = ref 0 in
  let events = ref 0 in
  let max_events = 200 * config.duration * load in
  let rec loop () =
    incr events;
    if !events <= max_events then
      match Pqueue.pop pq with
      | Some (time, sid) when time <= config.duration ->
        last_time := max !last_time time;
        now := max !now time;
        (if sid < 0 then arrive ~time
         else Option.iter (turn ~time) (Hashtbl.find_opt seats sid));
        loop ()
      | Some _ | None -> ()
  in
  loop ();
  (* Transactions still open when the clock runs out are abandoned in
     flight: abort the active ones so they do not linger as waiters
     (in-doubt ones stay — only a replayed decision may resolve them). *)
  for sid = 0 to !next_sid - 1 do
    match Hashtbl.find_opt seats sid with
    | Some { job = Some { txn = Some g; _ }; _ } when Gtxn.is_active g ->
      Group.abort ~reason:"end of run" group g
    | _ -> ()
  done;
  finish t ~width:config.window ~horizon:config.duration
    ~ticks:(max 1 !last_time) ~t0

(* ------------------------------------------------------------------ *)
(* The round loop: batched invokes, one commit wave per round *)

let run_rounds ?(config = default_config) group workload =
  if config.jobs < 0 then
    invalid_arg "Sharded_driver.run_rounds: jobs must be >= 0";
  if config.inflight <= 0 then
    invalid_arg "Sharded_driver.run_rounds: inflight must be positive";
  if config.window <= 0 then
    invalid_arg "Sharded_driver.run_rounds: window must be positive";
  let t = create Rounds config group workload in
  let t0 = Monotonic_clock.now () in
  (* A restarted job reopens its transaction at once, so the next round
     batches its first step again. *)
  let restart ~time j = if retry t j ~time then ignore (begin_txn t j) in
  let live = ref [] in
  let rounds = ref 0 in
  while t.o.committed + t.o.gave_up + t.o.in_doubt < config.jobs do
    incr rounds;
    let time = !rounds in
    (* refill the window, in generator order *)
    let room = config.inflight - List.length !live in
    let fresh =
      List.init
        (max 0 (min room (config.jobs - t.o.started)))
        (fun _ ->
          let j = draw t ~seat:t.o.started ~time in
          ignore (begin_txn t j);
          j)
    in
    live := !live @ fresh;
    (* one pending operation per running job, batched across shards *)
    let entries =
      List.filter_map
        (fun j -> match j.steps with st :: _ -> Some (j, st) | [] -> None)
        !live
    in
    let results =
      Group.invoke_batch group
        (List.map
           (fun (j, st) -> (txn j, st.Workload.obj, st.Workload.op))
           entries)
    in
    let blocked = ref false in
    List.iter2
      (fun (j, st) r ->
        match r with
        | Group.Granted v -> ignore (granted t j st v)
        | Group.Wait _ ->
          blocked := true;
          count_wait t;
          if not (within_budget t j (txn j)) then restart ~time j
        | Group.Refused _ ->
          refuse t (txn j);
          restart ~time j)
      entries results;
    (* cross-shard cycles can only involve waiters, and every waiter
       just surfaced in this round's results *)
    if !blocked then
      while break_deadlock t ~restart:(restart ~time) do
        ()
      done;
    (* commit every finished program as one batch — one sync per shard
       covers all of them *)
    let ready = List.filter (fun j -> j.txn <> None && j.steps = []) !live in
    if ready <> [] then begin
      let fanouts = List.map (fun j -> (j, Gtxn.fanout (txn j))) ready in
      Group.commit_batch group (List.map txn ready);
      List.iter
        (fun (j, fanout) ->
          if not (settle t j (txn j) ~time ~multi:(fanout >= 2)) then
            restart ~time j)
        fanouts
    end;
    live := List.filter (fun j -> j.txn <> None) !live
  done;
  finish t ~width:config.window ~horizon:!rounds ~ticks:!rounds ~t0

let pp_window ppf w =
  Fmt.pf ppf "[%5d) arr %3d commit %3d abort %3d p50 %5.1f p99 %5.1f"
    w.w_start w.w_arrivals w.w_committed w.w_aborted w.w_p50 w.w_p99

let pp ppf o =
  let throughput =
    if o.elapsed > 0. then float_of_int o.committed /. o.elapsed else 0.
  in
  Fmt.pf ppf
    "@[<v>started %d, committed %d (read-only %d, 2pc %d), in flight %d@,\
     aborted: %d deadlock, %d refused, %d starved, %d tpc; gave up %d; \
     in doubt %d@,\
     waits %d, restarts %d; %d ticks in %.3fs (%.0f txn/s)@,\
     latency: %a@,\
     %a@]"
    o.started o.committed o.committed_read_only o.committed_multi
    (in_flight o) o.aborted_deadlock o.aborted_refused o.aborted_starved
    o.aborted_tpc o.gave_up o.in_doubt o.waits o.restarts o.ticks o.elapsed
    throughput Histogram.pp (latency o)
    Fmt.(list ~sep:cut pp_window)
    o.windows
