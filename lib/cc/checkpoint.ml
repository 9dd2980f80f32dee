open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec
module Names = Hashtbl.Make (String)

let magic = "weihl-ckpt 3"

type t = {
  covered : int;
  label : string option;
  folded : int;
  skip : string list;
  rebuild : History.t;
  rebuild_ops : int;
  in_doubt : (int * Activity.t) list;
}

let covered t = t.covered
let label t = t.label
let folded t = t.folded
let skip t = t.skip
let rebuild t = t.rebuild
let rebuild_ops t = t.rebuild_ops
let in_doubt t = t.in_doubt

(* ------------------------------------------------------------------ *)
(* Capture *)

type status = Live | Committed | Aborted

(* One activity's records as the stream has seen them: the first and
   latest positions, its first logged timestamp (-1 before one), and
   its 2PC marks. *)
type entry = {
  activity : Activity.t;
  first : int;
  mutable last : int;
  mutable ts : int;
  mutable status : status;
  mutable gid : int;  (* of its first Prepared record; -1 before one *)
  mutable decided : bool;
}

(* One object's cached state line: the frontier it was derived from,
   the line without its newline ("" while the object is back at its
   specification's initial state), and how many rebuild operations the
   line holds. *)
type slot = {
  obj : Object_id.t;
  mutable from : Seq_spec.frontier;
  mutable line : string;
  mutable ops : int;
}

type stream = {
  policy : System.ts_policy;
  fold : Fold.t;
  mutable fed : int;
  live : entry Names.t;
      (* neither folded nor aborted: they hold the redo point *)
  settled : entry Names.t;
      (* folded or aborted, whose records may reach the redo point *)
  gids : (int, entry) Hashtbl.t;  (* live entries by Prepared gid *)
  mutable folded : int;
  mutable max_ts : int;  (* the largest folded timestamp *)
  slots : slot Names.t;  (* by object name: every object the fold moved *)
  mutable order : slot array;  (* [slots] in object order *)
}

let stream ~policy ~spec =
  {
    policy;
    fold = Fold.create ~ts_ordered:(policy <> `None_) ~spec;
    fed = 0;
    live = Names.create 16;
    settled = Names.create 16;
    gids = Hashtbl.create 8;
    folded = 0;
    max_ts = -1;
    slots = Names.create 16;
    order = [||];
  }

let fed st = st.fed

(* The live entry of [a], opened at [pos] by its first record; [None]
   for a settled activity, whose trailing records only move its
   latest position. *)
let entry st pos a =
  let name = Activity.name a in
  match Names.find_opt st.live name with
  | Some e ->
    e.last <- pos;
    Some e
  | None -> (
    match Names.find_opt st.settled name with
    | Some e ->
      e.last <- pos;
      None
    | None ->
      let e =
        {
          activity = a;
          first = pos;
          last = pos;
          ts = -1;
          status = Live;
          gid = -1;
          decided = false;
        }
      in
      Names.replace st.live name e;
      Some e)

let feed_record st pos = function
  | Wal.Event ev -> (
    Fold.feed st.fold ev;
    match entry st pos (Event.activity ev) with
    | None -> ()
    | Some e -> (
      (match Event.timestamp ev with
      | Some ts when e.ts < 0 -> e.ts <- Timestamp.to_int ts
      | _ -> ());
      match ev with
      | Event.Commit _ -> if e.status = Live then e.status <- Committed
      | Event.Abort _ -> e.status <- Aborted
      | _ -> ()))
  | Wal.Control (Wal.Prepared { gid; activity }) -> (
    match entry st pos activity with
    | Some e when e.gid < 0 ->
      e.gid <- gid;
      Hashtbl.replace st.gids gid e
    | _ -> ())
  | Wal.Control (Wal.Decided { gid; _ }) -> (
    match Hashtbl.find_opt st.gids gid with
    | Some e ->
      e.last <- pos;
      e.decided <- true
    | None -> ())
  | Wal.Control (Wal.Checkpointed _) -> ()

let feed st records =
  List.iter
    (fun r ->
      feed_record st st.fed r;
      st.fed <- st.fed + 1)
    records

(* The rebuild transaction's events: per object its operations, then
   one commit per object, as the system logs a transaction. *)
let rebuild_events policy rb ts objects =
  let per_object (x, steps) =
    let ops =
      List.concat_map
        (fun (op, v) -> [ Event.Invoke (rb, x, op); Event.Respond (rb, x, v) ])
        steps
    in
    match policy with `Static -> Event.Initiate (rb, x, ts) :: ops | _ -> ops
  in
  let commit_ts = match policy with `Hybrid -> Some ts | _ -> None in
  List.concat_map per_object objects
  @ List.map (fun (x, _) -> Event.Commit (rb, x, commit_ts)) objects

let policy_name = function
  | `None_ -> "none"
  | `Static -> "static"
  | `Hybrid -> "hybrid"

let policy_of_name = function
  | "none" -> Some `None_
  | "static" -> Some `Static
  | "hybrid" -> Some `Hybrid
  | _ -> None

(* An operation as one token: its arguments joined by bare commas. *)
let add_operation b op =
  Buffer.add_string b (Operation.name op);
  match Operation.args op with
  | [] -> ()
  | v :: vs ->
    Buffer.add_char b '(';
    Value.to_buffer b v;
    List.iter
      (fun v ->
        Buffer.add_char b ',';
        Value.to_buffer b v)
      vs;
    Buffer.add_char b ')'

(* "<crc> <object> <op> <result> ...", the CRC taken over the text
   after it. *)
let state_line x steps =
  let b = Buffer.create 64 in
  Buffer.add_string b (Object_id.name x);
  List.iter
    (fun (op, v) ->
      Buffer.add_char b ' ';
      add_operation b op;
      Buffer.add_char b ' ';
      Value.to_buffer b v)
    steps;
  let body = Buffer.contents b in
  Printf.sprintf "%08x %s" (Wal.crc32 body) body

(* Bring the slot of every object the fold moved up to date: an object
   is re-derived only when its frontier is not physically the one its
   line came from.  The order is re-sorted only when a new object
   appears.  Returns how many objects were re-derived. *)
let refresh st =
  let rederived = ref 0 and fresh = ref false and error = ref None in
  Fold.iter_moved st.fold (fun x f ->
      let name = Object_id.name x in
      let slot = Names.find_opt st.slots name in
      match slot with
      | Some s when s.from == f -> ()
      | _ when !error <> None -> ()
      | None when name = "" || String.exists (fun c -> c = ' ' || c = '\n') name
        ->
        error := Some (Fmt.str "object %S cannot name a state line" name)
      | _ -> (
        match Seq_spec.rebuild f with
        | Error msg -> error := Some (Fmt.str "%a: %s" Object_id.pp x msg)
        | Ok steps -> (
          incr rederived;
          let line = match steps with [] -> "" | _ -> state_line x steps in
          let ops = List.length steps in
          match slot with
          | Some s ->
            s.from <- f;
            s.line <- line;
            s.ops <- ops
          | None ->
            fresh := true;
            Names.replace st.slots name { obj = x; from = f; line; ops })));
  if !fresh then begin
    let order = Array.of_seq (Names.to_seq_values st.slots) in
    Array.sort (fun a b -> Object_id.compare a.obj b.obj) order;
    st.order <- order
  end;
  match !error with Some msg -> Error msg | None -> Ok !rederived

type capture = {
  file : string;
  covered : int;
  objects : int;
  rebuild_ops : int;
  rederived : int;
}

let one_line s =
  if String.contains s '\n' then
    invalid_arg "Checkpoint.capture: a label or name contains a newline";
  s

let capture st ~mark ~name ?label () =
  let ts_ordered = st.policy <> `None_ in
  if ts_ordered then Fold.upto st.fold mark;
  (* Settle every entry the fold rule releases: aborted ones, and
     committed ones the fold has folded. *)
  let ready =
    Names.fold
      (fun name e acc ->
        match e.status with
        | Aborted -> (name, e) :: acc
        | Committed when (not ts_ordered) || (e.ts >= 0 && e.ts <= mark) ->
          (name, e) :: acc
        | Committed | Live -> acc)
      st.live []
  in
  List.iter
    (fun (name, e) ->
      if e.status = Committed then begin
        st.folded <- st.folded + 1;
        st.max_ts <- max st.max_ts e.ts
      end;
      Names.remove st.live name;
      if e.gid >= 0 then Hashtbl.remove st.gids e.gid;
      Names.replace st.settled name e)
    ready;
  let covered = Names.fold (fun _ e acc -> min acc e.first) st.live st.fed in
  Names.filter_map_inplace
    (fun _ e -> if e.last < covered then None else Some e)
    st.settled;
  match Fold.broken st.fold with
  | Some msg -> Error msg
  | None -> (
    match refresh st with
    | Error msg -> Error msg
    | Ok rederived ->
      let skip =
        Names.fold
          (fun name e acc -> if e.status = Committed then name :: acc else acc)
          st.settled []
        |> List.sort String.compare
      in
      let in_doubt =
        Names.fold
          (fun _ e acc ->
            if e.gid >= 0 && (not e.decided) && e.status = Live then
              (e.gid, e.activity) :: acc
            else acc)
          st.live []
        |> List.sort (fun (g, _) (g', _) -> Int.compare g g')
        |> List.map (fun (gid, activity) ->
               Wal.Control (Wal.Prepared { gid; activity }))
      in
      let objects = ref 0 and ops = ref 0 and bytes = ref 0 in
      Array.iter
        (fun s ->
          if s.line <> "" then begin
            incr objects;
            ops := !ops + s.ops;
            bytes := !bytes + String.length s.line + 1
          end)
        st.order;
      let b = Buffer.create (!bytes + 256) in
      let add s =
        Buffer.add_string b s;
        Buffer.add_char b '\n'
      in
      let line s = add (one_line s) in
      line
        (Printf.sprintf "%s @%d %d %d%s" magic covered st.folded !objects
           (match label with None -> "" | Some l -> " " ^ l));
      line
        (Printf.sprintf "rebuild %s %d %s" (policy_name st.policy)
           (max 0 st.max_ts) name);
      line (Printf.sprintf "skip %d" (List.length skip));
      List.iter line skip;
      Array.iter (fun s -> if s.line <> "" then add s.line) st.order;
      Buffer.add_string b (Wal.encode_records in_doubt);
      Ok
        {
          file = Buffer.contents b;
          covered;
          objects = !objects;
          rebuild_ops = !ops;
          rederived;
        })

(* ------------------------------------------------------------------ *)
(* The durable file *)

let digest = Wal.crc32

let nat s =
  match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None

(* One state line's object and steps, checked against its CRC; [k]
   numbers it for the reason. *)
let state_of_line k l =
  let n = String.length l in
  if n < 10 || l.[8] <> ' ' then Error (Fmt.str "state line %d: bad framing" k)
  else
    let body = String.sub l 9 (n - 9) in
    match int_of_string_opt ("0x" ^ String.sub l 0 8) with
    | Some crc when crc = Wal.crc32 body -> (
      match String.split_on_char ' ' body with
      | x :: (_ :: _ as toks) when x <> "" ->
        let fail fmt =
          Fmt.kstr (fun m -> Error m) ("state line %d (%s): " ^^ fmt) k x
        in
        let rec steps acc = function
          | [] -> Ok (Object_id.v x, List.rev acc)
          | [ _ ] -> fail "an operation without its result"
          | op :: v :: rest -> (
            match
              (Notation.operation_of_string op, Notation.value_of_string v)
            with
            | Ok op, Some v -> steps ((op, v) :: acc) rest
            | Error _, _ -> fail "step %S does not parse" op
            | _, None -> fail "result %S does not parse" v)
        in
        steps [] toks
      | _ -> Error (Fmt.str "state line %d: no object and steps" k))
    | _ -> Error (Fmt.str "state line %d: checksum mismatch" k)

let decode text =
  let ( let* ) = Result.bind in
  (* The line at [pos], and the position after its newline. *)
  let line pos what =
    match String.index_from_opt text pos '\n' with
    | Some nl -> Ok (String.sub text pos (nl - pos), nl + 1)
    | None -> Error ("cut short in the " ^ what)
  in
  let* header, pos = line 0 "header" in
  let* covered, folded, objects, label =
    match String.split_on_char ' ' header with
    | "weihl-ckpt" :: "3" :: at :: folded :: objects :: label_toks
      when String.length at > 1 && at.[0] = '@' -> (
      match
        (nat (String.sub at 1 (String.length at - 1)), nat folded, nat objects)
      with
      | Some covered, Some folded, Some objects ->
        let label =
          match label_toks with [] -> None | ts -> Some (String.concat " " ts)
        in
        Ok (covered, folded, objects, label)
      | _ -> Error "bad covered sequence number, folded count or line count")
    | _ -> Error "bad or missing header"
  in
  let* rb, pos = line pos "rebuild line" in
  let* policy, ts, name =
    match String.split_on_char ' ' rb with
    | "rebuild" :: policy :: ts :: name -> (
      let name = String.concat " " name in
      match (policy_of_name policy, nat ts) with
      | Some policy, Some ts when name <> "" -> Ok (policy, ts, name)
      | _ -> Error "bad rebuild line")
    | _ -> Error "bad rebuild line"
  in
  let* count, pos = line pos "skip count" in
  let* n =
    match String.split_on_char ' ' count with
    | [ "skip"; n ] -> Option.to_result ~none:"bad skip count" (nat n)
    | _ -> Error "bad skip count"
  in
  let rec names k pos acc =
    if k = 0 then Ok (List.rev acc, pos)
    else
      let* name, pos = line pos "skip set" in
      names (k - 1) pos (name :: acc)
  in
  let* skip, pos = names n pos [] in
  (* The state lines run up to the in-doubt set's WAL header. *)
  let rec states k pos prev acc =
    let* l, next = line pos "state lines" in
    if String.starts_with ~prefix:Wal.magic l then
      if k = objects then Ok (List.rev acc, pos)
      else
        Error
          (Fmt.str "the header counts %d state lines, the file holds %d"
             objects k)
    else if k = objects then
      Error
        (Fmt.str "the header counts %d state lines, the file holds more"
           objects)
    else
      let* x, steps = state_of_line (k + 1) l in
      match prev with
      | Some p when Object_id.compare p x >= 0 ->
        Error
          (Fmt.str "state line %d: %a follows %a: out of order or repeated"
             (k + 1) Object_id.pp x Object_id.pp p)
      | _ -> states (k + 1) next (Some x) ((x, steps) :: acc)
  in
  let* states, pos = states 0 pos None [] in
  let* in_doubt =
    match
      Wal.decode_records (String.sub text pos (String.length text - pos))
    with
    | Error e -> Error (Fmt.str "damaged in-doubt set: %a" Wal.pp_error e)
    | Ok (_, Wal.Torn n) ->
      Error (Fmt.str "torn in-doubt set: %d record(s) missing" n)
    | Ok (records, Wal.Intact) ->
      let rec prepared acc = function
        | [] -> Ok (List.rev acc)
        | Wal.Control (Wal.Prepared { gid; activity }) :: rest ->
          prepared ((gid, activity) :: acc) rest
        | _ -> Error "the in-doubt set holds a record other than Prepared"
      in
      prepared [] records
  in
  Ok
    {
      covered;
      label;
      folded;
      skip;
      rebuild =
        History.of_list
          (rebuild_events policy (Activity.update name) (Timestamp.v ts)
             states);
      rebuild_ops =
        List.fold_left (fun n (_, steps) -> n + List.length steps) 0 states;
      in_doubt;
    }
