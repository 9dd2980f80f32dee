module Cc = Weihl_cc

type t = {
  system : Cc.System.t;
  mutex : Mutex.t;
  completed : Condition.t;
      (* signalled whenever a transaction commits or aborts *)
  victims : (int, unit) Hashtbl.t;
      (* transactions sacrificed to deadlock resolution *)
  metrics : Weihl_obs.Metrics.Registry.t option;
  mutable blocked_threads : int;
}

exception Refused of string
exception Deadlock_victim

let create ?policy ?metrics () =
  {
    system = Cc.System.create ?policy ();
    mutex = Mutex.create ();
    completed = Condition.create ();
    victims = Hashtbl.create 8;
    metrics;
    blocked_threads = 0;
  }

let count t name =
  match t.metrics with
  | None -> ()
  | Some reg ->
    Weihl_obs.Metrics.Counter.incr (Weihl_obs.Metrics.Registry.counter reg name)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let add_object t obj = locked t (fun () -> Cc.System.add_object t.system obj)

(* Real time in microseconds since probe installation — the natural
   unit for Chrome-trace timestamps. *)
let default_now () =
  let t0 = Unix.gettimeofday () in
  fun () -> (Unix.gettimeofday () -. t0) *. 1e6

let set_probe ?now t sink =
  let now = match now with Some f -> f | None -> default_now () in
  locked t (fun () -> Cc.System.set_probe t.system ~now sink)

let clear_probe t = locked t (fun () -> Cc.System.clear_probe t.system)

let emit_blocked_gauge t =
  if Cc.System.probe_installed t.system then
    Cc.System.emit_probe t.system
      (Weihl_obs.Probe.Gauge_set
         {
           name = "threads.blocked";
           value = float_of_int t.blocked_threads;
         })
let log t = Cc.System.log t.system
let begin_txn t activity = locked t (fun () -> Cc.System.begin_txn t.system activity)

(* Break any deadlock by aborting the youngest cycle member; mark it so
   its invoking thread raises on wake-up.  Returns whether anything was
   aborted (the caller must then retry instead of sleeping — the wakeup
   it just broadcast cannot wake itself). *)
let resolve_deadlock t =
  match Cc.System.find_deadlock t.system with
  | None -> false
  | Some cycle ->
    let victim = Cc.Waits_for.victim cycle in
    if Cc.System.probe_installed t.system then
      Cc.System.emit_probe t.system
        (Weihl_obs.Probe.Deadlock_victim
           {
             victim = Cc.Txn.id victim;
             cycle = List.map Cc.Txn.id cycle;
           });
    Cc.System.abort ~reason:"deadlock" t.system victim;
    Hashtbl.replace t.victims (Cc.Txn.id victim) ();
    Condition.broadcast t.completed;
    true

let invoke t txn x op =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let rec attempt () =
        if Hashtbl.mem t.victims (Cc.Txn.id txn) then begin
          Hashtbl.remove t.victims (Cc.Txn.id txn);
          raise Deadlock_victim
        end;
        match Cc.System.invoke t.system txn x op with
        | Cc.Atomic_object.Granted v -> v
        | Cc.Atomic_object.Refused why -> raise (Refused why)
        | Cc.Atomic_object.Wait _ ->
          let resolved = resolve_deadlock t in
          if Hashtbl.mem t.victims (Cc.Txn.id txn) then begin
            Hashtbl.remove t.victims (Cc.Txn.id txn);
            raise Deadlock_victim
          end;
          (* If we just broke a deadlock, the blocker may be gone:
             retry at once (our own broadcast cannot wake us).
             Otherwise sleep until some transaction completes. *)
          if not resolved then begin
            t.blocked_threads <- t.blocked_threads + 1;
            emit_blocked_gauge t;
            Fun.protect
              ~finally:(fun () ->
                t.blocked_threads <- t.blocked_threads - 1;
                emit_blocked_gauge t)
              (fun () -> Condition.wait t.completed t.mutex)
          end;
          attempt ()
      in
      attempt ())

let commit t txn =
  locked t (fun () ->
      Cc.System.commit t.system txn;
      Condition.broadcast t.completed)

let abort t txn =
  locked t (fun () ->
      Cc.System.abort t.system txn;
      Condition.broadcast t.completed)

let history t = locked t (fun () -> Cc.System.history t.system)

let atomically t activity body =
  let txn = begin_txn t activity in
  match body txn (fun x op -> invoke t txn x op) with
  | result ->
    commit t txn;
    count t "txn.committed";
    Ok result
  | exception Refused why ->
    abort t txn;
    count t "txn.abort.refused";
    Error why
  | exception Deadlock_victim ->
    count t "txn.abort.deadlock";
    Error "deadlock victim"
  | exception e ->
    (* The transaction may already be dead if the exception raced a
       deadlock resolution; abort best-effort. *)
    (try abort t txn with Invalid_argument _ -> ());
    raise e
