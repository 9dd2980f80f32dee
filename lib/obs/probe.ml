type event =
  | Txn_begin of { txn : int; name : string; read_only : bool }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; reason : string }
  | Op_invoke of { txn : int; obj : string; op : string; depth : int }
  | Op_grant of { txn : int; obj : string; op : string }
  | Op_wait of { txn : int; obj : string; op : string; blockers : int list }
  | Op_refuse of { txn : int; obj : string; op : string; why : string }
  | Deadlock_victim of { victim : int; cycle : int list }
  | Gauge_set of { name : string; value : float }
  | Count of { name : string; site : int }

type sink = { emit : time:float -> event -> unit }

let tee sinks =
  { emit = (fun ~time ev -> List.iter (fun s -> s.emit ~time ev) sinks) }
