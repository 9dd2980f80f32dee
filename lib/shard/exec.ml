(* The shard execution layer: where shard work actually runs.

   [Inline] is the pre-multicore semantics — all shard work runs on the
   caller's domain, in submission order.  It is the default
   ([domains = 1]) and is byte-for-byte today's sequential behavior,
   which is what keeps virtual-time benches, fault schedules and trace
   tests seed-stable.

   [Pool] spreads the shards over [domains] owners: shard s belongs to
   owner [s mod domains].  Owner 0 is the calling domain itself and
   runs its shards' work inline; owners 1.. are worker domains fed by
   bounded mailboxes.  A phase posts one job per worker owner with
   work, runs owner 0's share while the jobs are in flight, and joins
   on one latch.  A shard's work executes in submission order on its
   owner, so each non-thread-safe [Cc.System.t] is only ever touched by
   one domain at a time (domain confinement), and per-shard execution
   order — hence results — stays deterministic at any domain count.
   Only wall-clock timing varies. *)

type job = unit -> unit

type worker = {
  mailbox : job Mailbox.t;
  mutable domain : unit Domain.t option;
}

(* Outstanding worker jobs of the running phase.  Only the caller runs
   phases, one at a time, so the pool keeps a single latch. *)
type latch = { m : Mutex.t; c : Condition.t; mutable pending : int }

type pool = {
  workers : worker array; (* owner o >= 1 is workers.(o - 1) *)
  owner : int array; (* shard -> owner; 0 is the caller *)
  latch : latch;
  mutable posted : int;
}

type t = Inline | Pool of pool

let worker_loop w () =
  let rec loop () =
    match Mailbox.pop w.mailbox with
    | None -> ()
    | Some job ->
      job ();
      loop ()
  in
  loop ()

let create ?(domains = 1) ~shards () =
  if shards <= 0 then invalid_arg "Exec.create: shards must be positive";
  let n = min domains shards in
  if n <= 1 then Inline
  else begin
    let workers =
      Array.init (n - 1) (fun _ -> { mailbox = Mailbox.create (); domain = None })
    in
    Array.iter
      (fun w -> w.domain <- Some (Domain.spawn (worker_loop w)))
      workers;
    Pool
      {
        workers;
        owner = Array.init shards (fun s -> s mod n);
        latch = { m = Mutex.create (); c = Condition.create (); pending = 0 };
        posted = 0;
      }
  end

let domain_count = function
  | Inline -> 1
  | Pool p -> Array.length p.workers + 1

(* Run [thunks] in order, each failure kept in its own slot. *)
let run_each thunks errors idxs =
  List.iter (fun i -> try thunks.(i) () with e -> errors.(i) <- Some e) idxs

let reraise_first errors =
  match Array.find_map Fun.id errors with Some e -> raise e | None -> ()

let run_phase ?(on_posted = ignore) t pairs =
  let thunks = Array.of_list (List.map snd pairs) in
  let errors = Array.make (Array.length thunks) None in
  (match t with
  | Inline ->
    on_posted ();
    run_each thunks errors (List.init (Array.length thunks) Fun.id)
  | Pool p ->
    let shards = Array.length p.owner in
    (* Each owner's pair indices, in list order. *)
    let share = Array.make (Array.length p.workers + 1) [] in
    List.iteri
      (fun i (s, _) ->
        if s < 0 || s >= shards then invalid_arg "Exec.run_phase: shard out of range";
        let o = p.owner.(s) in
        share.(o) <- i :: share.(o))
      pairs;
    let l = p.latch in
    let remote = ref [] in
    for o = Array.length share - 1 downto 1 do
      if share.(o) <> [] then remote := (o, List.rev share.(o)) :: !remote
    done;
    (* Count the jobs before posting any: a worker may finish first. *)
    l.pending <- List.length !remote;
    List.iter
      (fun (o, idxs) ->
        p.posted <- p.posted + 1;
        Mailbox.push p.workers.(o - 1).mailbox (fun () ->
            run_each thunks errors idxs;
            Mutex.lock l.m;
            l.pending <- l.pending - 1;
            if l.pending = 0 then Condition.signal l.c;
            Mutex.unlock l.m))
      !remote;
    on_posted ();
    run_each thunks errors (List.rev share.(0));
    Mutex.lock l.m;
    while l.pending > 0 do
      Condition.wait l.c l.m
    done;
    Mutex.unlock l.m);
  reraise_first errors

let call t ~shard f =
  match t with
  | Pool p when p.owner.(shard) <> 0 ->
    let r = ref None in
    run_phase t [ (shard, fun () -> r := Some (f ())) ];
    Option.get !r
  | Inline | Pool _ -> f ()

let jobs_posted = function Inline -> 0 | Pool p -> p.posted

let mailbox_of t ~shard =
  match t with
  | Pool p when p.owner.(shard) <> 0 -> Some p.workers.(p.owner.(shard) - 1).mailbox
  | Inline | Pool _ -> None

let mailbox_depth t ~shard =
  match mailbox_of t ~shard with Some mb -> Mailbox.depth mb | None -> 0

let mailbox_max_depth t ~shard =
  match mailbox_of t ~shard with Some mb -> Mailbox.max_depth mb | None -> 0

let shutdown t =
  match t with
  | Inline -> ()
  | Pool { workers; _ } ->
    Array.iter (fun w -> Mailbox.close w.mailbox) workers;
    Array.iter
      (fun w ->
        match w.domain with
        | None -> ()
        | Some d ->
          w.domain <- None;
          Domain.join d)
      workers
