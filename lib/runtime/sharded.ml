module Cc = Weihl_cc
module Shard = Weihl_shard

(* Lock audit (multicore): [mutex] guards the facade's own state —
   [victims], [completed], and the group's coordinator-side metadata
   (gtxn tables, controls, journal).  It does NOT guard shard
   execution: with [domains > 1] the System calls inside
   [Shard.Group.invoke]/[commit] run on the shard's worker domain
   while the facade caller holds the mutex and blocks on the reply.
   That is safe — the mutex still serializes coordinator entry, so at
   most one facade call is in flight and each shard system stays
   domain-confined — but it means the blocking facade cannot overlap
   shard work across callers.  Parallel throughput comes from the
   batch APIs ([Group.invoke_batch]/[commit_batch] via
   [Sharded_driver.run_rounds]), not from this facade.

   [victims] and [completed] are only ever touched with [mutex] held:
   [resolve_deadlock] and the victim checks run inside [invoke]'s
   locked section, [Condition.wait] reacquires the mutex before the
   waiter re-reads [victims], and commit/abort broadcast while locked.
   No shard domain ever touches either. *)
type t = {
  group : Shard.Group.t;
  mutex : Mutex.t;
  completed : Condition.t;
      (* signalled whenever a transaction commits or aborts *)
  victims : (int, unit) Hashtbl.t;
      (* global transactions sacrificed to deadlock resolution *)
}

exception Refused of string
exception Deadlock_victim

let create ?policy ?metrics ?seed ?domains ?group_commit ?sync_cost ~shards ()
    =
  {
    group =
      Shard.Group.create ?policy ?metrics ?seed ?domains ?group_commit
        ?sync_cost ~shards ();
    mutex = Mutex.create ();
    completed = Condition.create ();
    victims = Hashtbl.create 8;
  }

let group t = t.group
let shutdown t = Shard.Group.shutdown t.group

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let shard_count t = Shard.Group.shard_count t.group
let shard_of t x = Shard.Group.shard_of t.group x

let add_object t x make =
  locked t (fun () -> Shard.Group.add_object t.group x make)

let begin_txn t activity =
  locked t (fun () -> Shard.Group.begin_txn t.group activity)

(* Break any cross-shard deadlock by aborting the youngest cycle
   member; mark it so its invoking thread raises on wake-up.  Returns
   whether anything was aborted (the caller must then retry instead of
   sleeping — the wakeup it just broadcast cannot wake itself). *)
let resolve_deadlock t =
  match Shard.Group.find_deadlock t.group with
  | None -> false
  | Some cycle ->
    let victim = Shard.Group.victim cycle in
    Shard.Group.abort ~reason:"deadlock" t.group victim;
    Hashtbl.replace t.victims (Shard.Gtxn.gid victim) ();
    Condition.broadcast t.completed;
    true

let invoke t g x op =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let rec attempt () =
        if Hashtbl.mem t.victims (Shard.Gtxn.gid g) then begin
          Hashtbl.remove t.victims (Shard.Gtxn.gid g);
          raise Deadlock_victim
        end;
        match Shard.Group.invoke t.group g x op with
        | Shard.Group.Granted v -> v
        | Shard.Group.Refused why -> raise (Refused why)
        | Shard.Group.Wait _ ->
          let resolved = resolve_deadlock t in
          if Hashtbl.mem t.victims (Shard.Gtxn.gid g) then begin
            Hashtbl.remove t.victims (Shard.Gtxn.gid g);
            raise Deadlock_victim
          end;
          if not resolved then Condition.wait t.completed t.mutex;
          attempt ()
      in
      attempt ())

let commit t g =
  locked t (fun () ->
      Shard.Group.commit t.group g;
      Condition.broadcast t.completed;
      match Shard.Gtxn.status g with
      | Shard.Gtxn.Committed -> ()
      | Shard.Gtxn.Aborted -> raise (Refused "2pc round decided abort")
      | Shard.Gtxn.In_doubt ->
        (* Unreachable without injected faults: the synchronous
           fault-free round always reaches a decision. *)
        raise (Refused "2pc round left the transaction in doubt")
      | Shard.Gtxn.Active -> invalid_arg "Sharded.commit: txn still active")

let abort t g =
  locked t (fun () ->
      Shard.Group.abort t.group g;
      Condition.broadcast t.completed)

let history t s =
  locked t (fun () -> Cc.System.history (Shard.Group.system t.group s))

let durable_shard t s = locked t (fun () -> Shard.Group.durable_shard t.group s)
let committed_count t = locked t (fun () -> Shard.Group.committed_count t.group)

let atomically t activity body =
  let g = begin_txn t activity in
  match body g (fun x op -> invoke t g x op) with
  | result ->
    commit t g;
    Ok result
  | exception Refused why ->
    (if Shard.Gtxn.is_active g then abort t g);
    Error why
  | exception Deadlock_victim -> Error "deadlock victim"
  | exception e ->
    (* The transaction may already be dead if the exception raced a
       deadlock resolution; abort best-effort. *)
    (try if Shard.Gtxn.is_active g then abort t g
     with Invalid_argument _ -> ());
    raise e
