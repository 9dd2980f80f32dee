type phase = B | E | X | I | C | S | F

let string_of_phase = function
  | B -> "B"
  | E -> "E"
  | X -> "X"
  | I -> "i"
  | C -> "C"
  | S -> "s"
  | F -> "f"

let phase_of_string = function
  | "B" -> Some B
  | "E" -> Some E
  | "X" -> Some X
  | "i" | "I" -> Some I
  | "C" -> Some C
  | "s" -> Some S
  | "f" -> Some F
  | _ -> None


type ev = {
  name : string;
  cat : string;
  ph : phase;
  ts : float;
  dur : float option;
  pid : int;
  tid : int;
  id : int option; (* binds a flow's s/f endpoints together *)
  args : (string * Json.t) list;
}

type open_op = { oo_obj : string; oo_op : string; oo_start : float }

type open_wait = {
  ow_obj : string;
  ow_op : string;
  ow_start : float;
  ow_blockers : int list;
}

type t = {
  pid : int;
  mutable events : ev list; (* newest first *)
  txn_names : (int, string) Hashtbl.t;
  open_ops : (int, open_op) Hashtbl.t;
  open_waits : (int, open_wait) Hashtbl.t;
}

let create ?(pid = 1) () =
  {
    pid;
    events = [];
    txn_names = Hashtbl.create 64;
    open_ops = Hashtbl.create 64;
    open_waits = Hashtbl.create 64;
  }

let push t ev = t.events <- ev :: t.events
let add = push
let pid t = t.pid

let txn_name t txn =
  match Hashtbl.find_opt t.txn_names txn with
  | Some n -> Fmt.str "txn %s" n
  | None -> Fmt.str "txn #%d" txn

(* Close the transaction's wait interval, if one is open. *)
let close_wait t ~time ~outcome txn =
  match Hashtbl.find_opt t.open_waits txn with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.open_waits txn;
    push t
      {
        name = Fmt.str "wait %s" w.ow_obj;
        cat = "wait";
        ph = X;
        ts = w.ow_start;
        dur = Some (time -. w.ow_start);
        pid = t.pid;
        id = None;
        tid = txn;
        args =
          [
            ("op", Json.Str w.ow_op);
            ("outcome", Json.Str outcome);
            ( "blockers",
              Json.List
                (List.map (fun b -> Json.Num (float_of_int b)) w.ow_blockers)
            );
          ];
      }

(* Close the transaction's operation span, if one is open. *)
let close_op t ~time ~outcome txn =
  match Hashtbl.find_opt t.open_ops txn with
  | None -> ()
  | Some o ->
    Hashtbl.remove t.open_ops txn;
    push t
      {
        name = Fmt.str "%s.%s" o.oo_obj o.oo_op;
        cat = "op";
        ph = X;
        ts = o.oo_start;
        dur = Some (time -. o.oo_start);
        pid = t.pid;
        id = None;
        tid = txn;
        args = [ ("outcome", Json.Str outcome) ];
      }

let finish_txn t ~time ~outcome txn =
  close_wait t ~time ~outcome txn;
  close_op t ~time ~outcome txn;
  push t
    {
      name = txn_name t txn;
      cat = "txn";
      ph = E;
      ts = time;
      dur = None;
      pid = t.pid;
      id = None;
      tid = txn;
      args = [ ("outcome", Json.Str outcome) ];
    };
  Hashtbl.remove t.txn_names txn

let on_event t ~time (ev : Probe.event) =
  match ev with
  | Probe.Txn_begin { txn; name; read_only } ->
    Hashtbl.replace t.txn_names txn name;
    push t
      {
        name = Fmt.str "txn %s" name;
        cat = "txn";
        ph = B;
        ts = time;
        dur = None;
        pid = t.pid;
        id = None;
        tid = txn;
        args = [ ("read_only", Json.Bool read_only) ];
      }
  | Probe.Txn_commit { txn } -> finish_txn t ~time ~outcome:"commit" txn
  | Probe.Txn_abort { txn; reason } -> finish_txn t ~time ~outcome:reason txn
  | Probe.Op_invoke { txn; obj; op; depth = _ } ->
    if not (Hashtbl.mem t.open_ops txn) then
      Hashtbl.replace t.open_ops txn
        { oo_obj = obj; oo_op = op; oo_start = time }
  | Probe.Op_grant { txn; _ } ->
    close_wait t ~time ~outcome:"granted" txn;
    close_op t ~time ~outcome:"granted" txn
  | Probe.Op_wait { txn; obj; op; blockers } ->
    if not (Hashtbl.mem t.open_waits txn) then
      Hashtbl.replace t.open_waits txn
        { ow_obj = obj; ow_op = op; ow_start = time; ow_blockers = blockers }
  | Probe.Op_refuse { txn; obj; op; why } ->
    close_wait t ~time ~outcome:"refused" txn;
    close_op t ~time ~outcome:"refused" txn;
    push t
      {
        name = Fmt.str "refused %s.%s" obj op;
        cat = "refuse";
        ph = I;
        ts = time;
        dur = None;
        pid = t.pid;
        id = None;
        tid = txn;
        args = [ ("why", Json.Str why) ];
      }
  | Probe.Deadlock_victim { victim; cycle } ->
    push t
      {
        name = "deadlock victim";
        cat = "deadlock";
        ph = I;
        ts = time;
        dur = None;
        pid = t.pid;
        id = None;
        tid = victim;
        args =
          [
            ( "cycle",
              Json.List (List.map (fun x -> Json.Num (float_of_int x)) cycle)
            );
          ];
      }
  | Probe.Gauge_set { name; value } ->
    push t
      {
        name;
        cat = "gauge";
        ph = C;
        ts = time;
        dur = None;
        pid = t.pid;
        id = None;
        tid = 0;
        args = [ ("value", Json.Num value) ];
      }
  | Probe.Count { name; site } ->
    push t
      {
        name;
        cat = "count";
        ph = I;
        ts = time;
        dur = None;
        pid = t.pid;
        id = None;
        tid = site;
        args = [];
      }

let sink t = { Probe.emit = (fun ~time ev -> on_event t ~time ev) }
let events t = List.rev t.events

let ev_to_json e =
  Json.Obj
    (List.concat
       [
         [
           ("name", Json.Str e.name);
           ("cat", Json.Str e.cat);
           ("ph", Json.Str (string_of_phase e.ph));
           ("ts", Json.Num e.ts);
         ];
         (match e.dur with
         | Some d -> [ ("dur", Json.Num d) ]
         | None -> []);
         (match e.ph with
         | I -> [ ("s", Json.Str "t") ] (* instant scope: thread *)
         | _ -> []);
         (match e.id with
         | Some id -> [ ("id", Json.Num (float_of_int id)) ]
         | None -> []);
         [
           ("pid", Json.Num (float_of_int e.pid));
           ("tid", Json.Num (float_of_int e.tid));
         ];
         (match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ]);
       ])

let events_to_json evs = Json.List (List.map ev_to_json evs)
let export_events evs = Json.to_string (events_to_json evs)
let to_json t = events_to_json (events t)
let export t = Json.to_string (to_json t)

let ev_of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Fmt.str "trace event missing or ill-typed %S" name)
  in
  let* name = field "name" Json.to_str in
  let* ph_s = field "ph" Json.to_str in
  let* ph =
    Option.to_result
      ~none:(Fmt.str "unknown trace phase %S" ph_s)
      (phase_of_string ph_s)
  in
  let* ts = field "ts" Json.to_float in
  let* pid = field "pid" Json.to_int in
  let* tid = field "tid" Json.to_int in
  let cat =
    Option.value ~default:""
      (Option.bind (Json.member "cat" j) Json.to_str)
  in
  let dur = Option.bind (Json.member "dur" j) Json.to_float in
  let id = Option.bind (Json.member "id" j) Json.to_int in
  let args =
    match Json.member "args" j with
    | Some (Json.Obj fields) -> fields
    | _ -> []
  in
  Ok { name; cat; ph; ts; dur; pid; tid; id; args }

let parse s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
        match ev_of_json j with
        | Ok e -> go (e :: acc) rest
        | Error e -> Error e)
    in
    go [] items
  | Ok _ -> Error "trace file is not a JSON array"
