module Pqueue = Weihl_sim.Pqueue
module Rng = Weihl_sim.Rng

type 'msg event =
  | Deliver of { dst : int; msg : 'msg }
  | Crash of int
  | Heal_all

type faults = { drop : float; duplicate : float; reorder : float }

let no_faults = { drop = 0.; duplicate = 0.; reorder = 0. }

let check_prob name p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Msim.create: %s not a probability" name)

type 'msg t = {
  rng : Rng.t;
  min_delay : int;
  max_delay : int;
  faults : faults;
  queue : 'msg event Pqueue.t;
  crashed_nodes : (int, unit) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t; (* keyed (min, max) *)
  handler : 'msg t -> node:int -> 'msg -> unit;
  metrics : Weihl_obs.Metrics.Registry.t option;
  mutable time : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  nodes : int;
}

let create ?(min_delay = 1) ?(max_delay = 5) ?(faults = no_faults) ?metrics
    ~seed ~nodes ~handler () =
  if min_delay < 0 || max_delay < min_delay then
    invalid_arg "Msim.create: bad delay range";
  check_prob "drop" faults.drop;
  check_prob "duplicate" faults.duplicate;
  check_prob "reorder" faults.reorder;
  {
    rng = Rng.create seed;
    min_delay;
    max_delay;
    faults;
    queue = Pqueue.create ();
    crashed_nodes = Hashtbl.create 4;
    partitions = Hashtbl.create 4;
    handler;
    metrics;
    time = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    nodes;
  }

let crashed t node = Hashtbl.mem t.crashed_nodes node

let pair_key a b = if a <= b then (a, b) else (b, a)
let partition t a b = Hashtbl.replace t.partitions (pair_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (pair_key a b)
let heal_all t = Hashtbl.reset t.partitions
let partitioned t a b = Hashtbl.mem t.partitions (pair_key a b)

let count t name =
  match t.metrics with
  | None -> ()
  | Some reg ->
    Weihl_obs.Metrics.Counter.incr (Weihl_obs.Metrics.Registry.counter reg name)

let drop t why =
  t.dropped <- t.dropped + 1;
  count t ("msim.dropped." ^ why)

(* Each fault draws from the rng only when its probability is positive,
   so a fault-free simulation consumes exactly the draws it did before
   faults existed — seeds stay stable. *)
let flip t p = p > 0. && Rng.float t.rng 1.0 < p

let enqueue t ~dst msg =
  let delay = Rng.int_range t.rng t.min_delay t.max_delay in
  let delay =
    if flip t t.faults.reorder then begin
      t.reordered <- t.reordered + 1;
      count t "msim.reordered";
      (* Push the message past anything sent within a normal delay
         window: delivery order no longer matches send order. *)
      delay + Rng.int_range t.rng t.max_delay (4 * t.max_delay)
    end
    else delay
  in
  Pqueue.push t.queue ~time:(t.time + delay) (Deliver { dst; msg })

let send t ~src ~dst msg =
  if dst < 0 || dst >= t.nodes then invalid_arg "Msim.send: bad destination";
  if crashed t src then drop t "crashed_src"
  else if partitioned t src dst then drop t "partition"
  else if flip t t.faults.drop then drop t "fault"
  else begin
    enqueue t ~dst msg;
    if flip t t.faults.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      count t "msim.duplicated";
      enqueue t ~dst msg
    end
  end

(* Timers are local alarms, not network traffic: they never drop,
   duplicate or reorder, or no protocol could make progress under
   faults. *)
let set_timer t ~node ~after msg =
  if not (crashed t node) then
    Pqueue.push t.queue ~time:(t.time + after) (Deliver { dst = node; msg })

let crash t node = Hashtbl.replace t.crashed_nodes node ()
let crash_at t ~time node = Pqueue.push t.queue ~time (Crash node)
let heal_all_at t ~time = Pqueue.push t.queue ~time Heal_all
let now t = t.time
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_reordered t = t.reordered

let run ?(until = 100_000) t =
  let rec loop () =
    match Pqueue.pop t.queue with
    | None -> ()
    | Some (time, ev) ->
      if time <= until then begin
        t.time <- max t.time time;
        (match ev with
        | Crash node -> crash t node
        | Heal_all -> heal_all t
        | Deliver { dst; msg } ->
          if crashed t dst then drop t "crashed_dst"
          else begin
            t.delivered <- t.delivered + 1;
            t.handler t ~node:dst msg
          end);
        loop ()
      end
  in
  loop ()
