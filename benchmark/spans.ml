(* Wall-clock spans recorded by the benchmark around its calls into the
   system.

   A traced run appends one (kind, start, stop, arg, lane) row per span
   to a flat growable int array, so tracing costs two clock reads and a
   few stores per call; nothing is formatted until the run exits.
   Times are nanoseconds from the monotonic clock.  An untraced run
   passes [None] and pays only the closure call. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type kind =
  (* layers: the public calls the driver times *)
  | Begin_txn
  | Invoke_batch
  | Find_deadlock
  | Abort
  | Commit_batch
  | Crash_shard
  | Recover_shard
  | Pump
  | Read
  | Sync
  (* the driver's own spans *)
  | Round
  | Txn  (** one job, admission to acknowledgement; arg = gid *)
  | Read_req  (** one snapshot read; arg = read_ts *)

let layers =
  [
    Begin_txn;
    Invoke_batch;
    Find_deadlock;
    Abort;
    Commit_batch;
    Crash_shard;
    Recover_shard;
    Pump;
    Read;
    Sync;
  ]

let index = function
  | Begin_txn -> 0
  | Invoke_batch -> 1
  | Find_deadlock -> 2
  | Abort -> 3
  | Commit_batch -> 4
  | Crash_shard -> 5
  | Recover_shard -> 6
  | Pump -> 7
  | Read -> 8
  | Sync -> 9
  | Round -> 10
  | Txn -> 11
  | Read_req -> 12

let kind_count = 13

let name = function
  | Begin_txn -> "group.begin_txn"
  | Invoke_batch -> "group.invoke_batch"
  | Find_deadlock -> "group.find_deadlock"
  | Abort -> "group.abort"
  | Commit_batch -> "group.commit_batch"
  | Crash_shard -> "group.crash_shard"
  | Recover_shard -> "group.recover_shard"
  | Pump -> "tier.pump"
  | Read -> "tier.read"
  | Sync -> "tier.sync"
  | Round -> "driver.round"
  | Txn -> "txn"
  | Read_req -> "read"

(* A growable int array. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let bigger = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 bigger 0 v.n;
      v.a <- bigger
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

let stride = 5

type t = Vec.t

let create = Vec.create
let count (t : t) = t.Vec.n / stride

let add t kind ~t0 ~t1 ~arg ~lane =
  Vec.push t (index kind);
  Vec.push t t0;
  Vec.push t t1;
  Vec.push t arg;
  Vec.push t lane

(* Time one layer call; [arg] is the round it belongs to. *)
let timed tr kind ~arg f =
  match tr with
  | None -> f ()
  | Some t ->
    let t0 = now () in
    let r = f () in
    add t kind ~t0 ~t1:(now ()) ~arg ~lane:0;
    r

(* Span durations (ns) grouped by kind index, in record order. *)
let durations (t : t) =
  let out = Array.init kind_count (fun _ -> Vec.create ()) in
  for i = 0 to count t - 1 do
    let at = i * stride in
    Vec.push out.(t.Vec.a.(at)) (t.Vec.a.(at + 2) - t.Vec.a.(at + 1))
  done;
  Array.map Vec.to_array out

let kinds = Array.of_list (layers @ [ Round; Txn; Read_req ])

(* Chrome trace: rounds and layer spans on pid 1 (layers nest inside
   their round by time), jobs on pid 2 with one lane per window slot,
   reads on pid 3.  Timestamps in µs from the first span. *)
let to_chrome (t : t) =
  let module T = Weihl_obs.Trace in
  let module J = Weihl_obs.Json in
  let origin = ref max_int in
  for i = 0 to count t - 1 do
    origin := min !origin t.Vec.a.((i * stride) + 1)
  done;
  let us ns = float_of_int ns /. 1e3 in
  List.init (count t) (fun i ->
      let at = i * stride in
      let kind = kinds.(t.Vec.a.(at)) in
      let t0 = t.Vec.a.(at + 1) and t1 = t.Vec.a.(at + 2) in
      let arg = float_of_int t.Vec.a.(at + 3) in
      let pid, tid, args =
        match kind with
        | Txn -> (2, t.Vec.a.(at + 4), [ ("gid", J.Num arg) ])
        | Read_req -> (3, 0, [ ("read_ts", J.Num arg) ])
        | _ -> (1, 0, [ ("round", J.Num arg) ])
      in
      {
        T.name = name kind;
        cat = (match kind with Round | Txn | Read_req -> "driver" | _ -> "layer");
        ph = T.X;
        ts = us (t0 - !origin);
        dur = Some (us (t1 - t0));
        pid;
        tid;
        id = None;
        args;
      })

let write_chrome t file =
  let oc = open_out file in
  output_string oc (Weihl_obs.Trace.export_events (to_chrome t));
  close_out oc
