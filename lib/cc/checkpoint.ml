open Weihl_event
module Names = Hashtbl.Make (String)

let magic = "weihl-ckpt 2"

type t = {
  covered : int;
  label : string option;
  folded : int;
  skip : string list;
  records : Wal.record list;
      (* the rebuild transaction's events, then one Prepared control per
         in-doubt transaction at the snapshot *)
}

let covered t = t.covered
let label t = t.label
let folded t = t.folded
let skip t = t.skip

let events t =
  List.filter_map
    (function Wal.Event e -> Some e | Wal.Control _ -> None)
    t.records

let rebuild t = History.of_list (events t)

let rebuild_ops t = List.length (List.filter Event.is_invoke (events t))

let in_doubt t =
  List.filter_map
    (function
      | Wal.Control (Wal.Prepared { gid; activity }) -> Some (gid, activity)
      | _ -> None)
    t.records

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
    match Fold.rebuild st.fold with
    | Error msg -> Error msg
    | Ok objects ->
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
      let events =
        rebuild_events st.policy (Activity.update name)
          (Timestamp.v (max 0 st.max_ts))
          objects
      in
      Ok
        {
          covered;
          label;
          folded = st.folded;
          skip;
          records = List.map (fun e -> Wal.Event e) events @ in_doubt;
        })

(* ------------------------------------------------------------------ *)
(* The durable file *)

let digest = Wal.crc32

let encode t =
  let line s =
    if String.contains s '\n' then
      invalid_arg "Checkpoint.encode: a label or name contains a newline";
    s ^ "\n"
  in
  let label = match t.label with None -> "" | Some l -> " " ^ l in
  String.concat ""
    (line (Printf.sprintf "%s @%d %d%s" magic t.covered t.folded label)
    :: line (Printf.sprintf "skip %d" (List.length t.skip))
    :: List.map line t.skip)
  ^ Wal.encode_records t.records

(* The header, the skip count and the skipped names, one per line, then
   the framed payload. *)
let decode text =
  let rec lines n from acc =
    if n = 0 then Some (List.rev acc, from)
    else
      match String.index_from_opt text from '\n' with
      | None -> None
      | Some nl ->
        lines (n - 1) (nl + 1) (String.sub text from (nl - from) :: acc)
  in
  let payload body =
    match
      Wal.decode_records (String.sub text body (String.length text - body))
    with
    | Error e -> Error (Fmt.str "damaged payload: %a" Wal.pp_error e)
    | Ok (_, Wal.Torn n) ->
      Error (Fmt.str "torn payload: %d record(s) missing" n)
    | Ok (records, Wal.Intact) -> Ok records
  in
  match lines 2 0 [] with
  | Some ([ header; count ], next) -> (
    match (String.split_on_char ' ' header, String.split_on_char ' ' count) with
    | "weihl-ckpt" :: "2" :: at :: folded :: label_toks, [ "skip"; n ]
      when String.length at > 1 && at.[0] = '@' -> (
      match
        ( int_of_string_opt (String.sub at 1 (String.length at - 1)),
          int_of_string_opt folded,
          int_of_string_opt n )
      with
      | Some covered, Some folded, Some n
        when covered >= 0 && folded >= 0 && n >= 0 -> (
        match lines n next [] with
        | None -> Error "cut short in the skip set"
        | Some (skip, body) ->
          let label =
            match label_toks with
            | [] -> None
            | ts -> Some (String.concat " " ts)
          in
          Result.map
            (fun records -> { covered; label; folded; skip; records })
            (payload body))
      | _ -> Error "bad covered sequence number, folded count or skip count")
    | _ -> Error "bad or missing header")
  | _ -> Error "cut short: no header and skip count"
