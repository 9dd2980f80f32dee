open Weihl_event

let magic = "weihl-wal 1"

(* CRC-32 (IEEE 802.3), table-driven.  OCaml's 63-bit immediates hold
   the 32-bit arithmetic comfortably.  Built eagerly at module init:
   a [lazy] here would be forced concurrently from shard domains. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let table = crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

type status = Intact | Torn of int
type error = { record : int; reason : string }

type control =
  | Prepared of { gid : int; activity : Activity.t }
  | Decided of { gid : int; verdict : [ `Commit of Timestamp.t option | `Abort ] }
  | Checkpointed of { seq : int; digest : int }

type record = Event of Event.t | Control of control

let pp_status ppf = function
  | Intact -> Fmt.string ppf "intact"
  | Torn n -> Fmt.pf ppf "torn tail (%d record(s) dropped)" n

let pp_error ppf { record; reason } =
  if record < 0 then Fmt.pf ppf "WAL header: %s" reason
  else Fmt.pf ppf "WAL record %d: %s" record reason

let control_text = function
  | Prepared { gid; activity } ->
    Printf.sprintf "!prepared %d %s %s" gid
      (if Activity.is_read_only activity then "r" else "u")
      (Activity.name activity)
  | Decided { gid; verdict = `Commit (Some ts) } ->
    Printf.sprintf "!decided %d commit %d" gid (Timestamp.to_int ts)
  | Decided { gid; verdict = `Commit None } ->
    Printf.sprintf "!decided %d commit -" gid
  | Decided { gid; verdict = `Abort } -> Printf.sprintf "!decided %d abort" gid
  | Checkpointed { seq; digest } ->
    Printf.sprintf "!checkpointed %d %08x" seq digest

(* Control bodies start with '!' — no event notation does. *)
let control_of_text text =
  match String.split_on_char ' ' text with
  | "!prepared" :: gid :: kind :: (_ :: _ as rest) -> (
    match (int_of_string_opt gid, kind) with
    | Some gid, ("u" | "r") ->
      let name = String.concat " " rest in
      let activity =
        if String.equal kind "r" then Activity.read_only name
        else Activity.update name
      in
      Ok (Prepared { gid; activity })
    | _ -> Error "unparseable control: bad prepared record")
  | [ "!decided"; gid; "commit"; ts ] -> (
    match int_of_string_opt gid with
    | None -> Error "unparseable control: bad decided record"
    | Some gid ->
      if String.equal ts "-" then Ok (Decided { gid; verdict = `Commit None })
      else (
        match int_of_string_opt ts with
        | Some n when n >= 0 ->
          Ok (Decided { gid; verdict = `Commit (Some (Timestamp.v n)) })
        | _ -> Error "unparseable control: bad decided timestamp"))
  | [ "!decided"; gid; "abort" ] -> (
    match int_of_string_opt gid with
    | Some gid -> Ok (Decided { gid; verdict = `Abort })
    | None -> Error "unparseable control: bad decided record")
  | [ "!checkpointed"; seq; digest ] -> (
    match (int_of_string_opt seq, int_of_string_opt ("0x" ^ digest)) with
    | Some seq, Some digest when seq >= 0 -> Ok (Checkpointed { seq; digest })
    | _ -> Error "unparseable control: bad checkpointed record")
  | _ -> Error "unparseable control record"

let record_text = function
  | Event e -> Event.to_string e
  | Control c -> control_text c

let record_of_text text =
  if String.length text > 0 && text.[0] = '!' then (
    match control_of_text text with
    | Ok c -> Ok (Control c)
    | Error m -> Error m)
  else (
    match Notation.event_of_string text with
    | Ok e -> Ok (Event e)
    | Error m -> Error ("unparseable event: " ^ m))

(* A truncated log keeps the absolute sequence numbers of its surviving
   records; the header records where they start ("weihl-wal 1 shard-3
   @512").  The ['@'] prefix keeps the base token distinguishable from a
   label, which may not contain one as its last space-separated token. *)
let header_line ?(base = 0) label =
  (match label with
  | Some l when String.contains l '\n' ->
    invalid_arg "Wal.encode_records: label contains a newline"
  | _ -> ());
  if base < 0 then invalid_arg "Wal.encode_records: negative base";
  String.concat " "
    (List.concat
       [
         [ magic ];
         (match label with None -> [] | Some l -> [ l ]);
         (if base = 0 then [] else [ Printf.sprintf "@%d" base ]);
       ])

let encode_records ?label ?(base = 0) records =
  let buf = Buffer.create (64 * (List.length records + 1)) in
  Buffer.add_string buf (header_line ~base label);
  Buffer.add_char buf '\n';
  List.iteri
    (fun i r ->
      let body = Printf.sprintf "%d %s" (base + i) (record_text r) in
      Buffer.add_string buf (Printf.sprintf "%08x %s\n" (crc32 body) body))
    records;
  Buffer.contents buf

let encode h =
  let records = ref [] in
  History.iter (fun e -> records := Event e :: !records) h;
  encode_records (List.rev !records)

(* Header tokens after the magic: an optional label (any tokens) and an
   optional trailing ["@<base>"].  Malformed trailing '@' tokens are
   treated as label text — the seq check will catch a truncated log
   whose base token was damaged. *)
let header_fields header =
  if String.equal header magic then (None, 0)
  else
    let extra =
      String.sub header
        (String.length magic + 1)
        (String.length header - String.length magic - 1)
    in
    let toks = String.split_on_char ' ' extra in
    let base, label_toks =
      match List.rev toks with
      | last :: rev_front
        when String.length last > 1
             && last.[0] = '@'
             && int_of_string_opt (String.sub last 1 (String.length last - 1))
                |> Option.fold ~none:false ~some:(fun n -> n >= 0) ->
        ( int_of_string (String.sub last 1 (String.length last - 1)),
          List.rev rev_front )
      | _ -> (0, toks)
    in
    let label =
      match label_toks with
      | [] | [ "" ] -> None
      | ts -> Some (String.concat " " ts)
    in
    (label, base)

(* Parse one record line.  [seq] is the index the record must carry for
   the log to be gapless. *)
let parse_record ~seq line =
  let n = String.length line in
  if n < 10 then Error "record cut short"
  else if line.[8] <> ' ' then Error "bad framing"
  else
    match int_of_string_opt ("0x" ^ String.sub line 0 8) with
    | None -> Error "unreadable checksum field"
    | Some crc ->
      let body = String.sub line 9 (n - 9) in
      if crc <> crc32 body then Error "checksum mismatch"
      else (
        match String.index_opt body ' ' with
        | None -> Error "missing sequence number"
        | Some sp -> (
          match int_of_string_opt (String.sub body 0 sp) with
          | None -> Error "unreadable sequence number"
          | Some s when s <> seq ->
            Error (Printf.sprintf "sequence gap: expected %d, found %d" seq s)
          | Some _ ->
            record_of_text (String.sub body (sp + 1) (String.length body - sp - 1))))

(* A line that checks out structurally (checksum over its own content,
   parseable sequence and record) regardless of where it sits.  Evidence
   that real data exists beyond a damaged record. *)
let well_framed line =
  let n = String.length line in
  n >= 10
  && line.[8] = ' '
  &&
  match int_of_string_opt ("0x" ^ String.sub line 0 8) with
  | None -> false
  | Some crc -> (
    let body = String.sub line 9 (n - 9) in
    crc = crc32 body
    &&
    match String.index_opt body ' ' with
    | None -> false
    | Some sp -> (
      int_of_string_opt (String.sub body 0 sp) <> None
      &&
      match
        record_of_text (String.sub body (sp + 1) (String.length body - sp - 1))
      with
      | Ok _ -> true
      | Error _ -> false))

let header_ok header =
  String.equal header magic
  || String.length header > String.length magic
     && String.sub header 0 (String.length magic + 1) = magic ^ " "

let label text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl ->
    let header = String.sub text 0 nl in
    if header_ok header then fst (header_fields header) else None

let base text =
  match String.index_opt text '\n' with
  | None -> 0
  | Some nl ->
    let header = String.sub text 0 nl in
    if header_ok header then snd (header_fields header) else 0

let decode_records text =
  match String.split_on_char '\n' text with
  | [] -> Error { record = -1; reason = "empty" }
  | header :: rest ->
    if not (header_ok header) then
      Error { record = -1; reason = "bad or missing header" }
    else
      let _, base = header_fields header in
      (* A final trailing newline yields one empty trailing element;
         drop exactly that one (an empty line elsewhere is damage). *)
      let lines =
        match List.rev rest with "" :: tl -> List.rev tl | _ -> rest
      in
      let rec go seq acc = function
        | [] -> Ok (List.rev acc, Intact)
        | line :: tl -> (
          match parse_record ~seq line with
          | Ok r -> go (seq + 1) (r :: acc) tl
          | Error reason ->
            if List.exists well_framed tl then
              Error { record = seq; reason = "mid-log corruption: " ^ reason }
            else Ok (List.rev acc, Torn (List.length tl + 1)))
      in
      go base [] lines

(* Streaming segments: a shipped slice of the record stream is just a
   WAL text whose header base is the slice's absolute start position.
   Unlike a log read back from disk, a segment that arrives damaged is
   refused whole — applying the intact prefix of a torn segment would
   silently diverge the replica from the stream. *)
let segment ?label ~base records = encode_records ?label ~base records

let decode_segment ~expected_base text =
  match decode_records text with
  | Error _ as e -> e
  | Ok (records, Torn n) ->
    Error
      {
        record = base text + List.length records;
        reason = Printf.sprintf "segment torn in flight (%d record(s))" n;
      }
  | Ok (records, Intact) ->
    let b = base text in
    if b <> expected_base then
      Error
        {
          record = -1;
          reason =
            Printf.sprintf "segment base mismatch: expected %d, found %d"
              expected_base b;
        }
    else Ok records

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let rec drop_n n = function
  | _ :: tl when n > 0 -> drop_n (n - 1) tl
  | l -> l

let records_from ~pos text =
  match decode_records text with
  | Error _ as e -> e
  | Ok (records, _) ->
    let b = base text in
    if pos < b then
      Error
        {
          record = -1;
          reason =
            Printf.sprintf
              "position %d is behind the log's base %d (truncated away)" pos b;
        }
    else Ok (drop_n (pos - b) records)

let decode text =
  match decode_records text with
  | Error e -> Error e
  | Ok (records, status) ->
    let events =
      List.filter_map (function Event e -> Some e | Control _ -> None) records
    in
    Ok (History.of_list events, status)

(* Append/sync decoupling for group commit.  [append] buffers a framed
   record in volatile memory; [sync] moves everything buffered into the
   durable image in one device operation.  The durable image after a
   crash is exactly [synced_text] — appended-but-unsynced records are
   gone, which is why a commit must not be acknowledged before the sync
   that covers it returns. *)
module Writer = struct
  type t = {
    m : Mutex.t;
    durable : Buffer.t; (* header + synced records *)
    mutable tail : record list; (* appended, unsynced (newest first) *)
    mutable next_seq : int;
    mutable synced_records : int;
    mutable appends : int;
    mutable syncs : int;
    sync_cost : unit -> unit; (* paid inside every [sync] *)
  }

  let create ?label ?(sync_cost = Fun.id) () =
    let durable = Buffer.create 256 in
    Buffer.add_string durable (header_line label);
    Buffer.add_char durable '\n';
    {
      m = Mutex.create ();
      durable;
      tail = [];
      next_seq = 0;
      synced_records = 0;
      appends = 0;
      syncs = 0;
      sync_cost;
    }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let append t r =
    locked t (fun () ->
        t.tail <- r :: t.tail;
        t.appends <- t.appends + 1)

  let append_list t rs = List.iter (append t) rs

  let sync t =
    let batch =
      locked t (fun () ->
          let batch = List.rev t.tail in
          List.iter
            (fun r ->
              let body = Printf.sprintf "%d %s" t.next_seq (record_text r) in
              Buffer.add_string t.durable
                (Printf.sprintf "%08x %s\n" (crc32 body) body);
              t.next_seq <- t.next_seq + 1)
            batch;
          t.tail <- [];
          let n = List.length batch in
          t.synced_records <- t.synced_records + n;
          t.syncs <- t.syncs + 1;
          n)
    in
    (* The device latency is paid outside the lock: syncs on different
       writers (one per shard) overlap in wall-clock time. *)
    t.sync_cost ();
    batch

  let pending t = locked t (fun () -> List.length t.tail)
  let synced_text t = locked t (fun () -> Buffer.contents t.durable)

  let text t =
    locked t (fun () ->
        let buf = Buffer.create (Buffer.length t.durable + 64) in
        Buffer.add_buffer buf t.durable;
        let seq = ref t.next_seq in
        List.iter
          (fun r ->
            let body = Printf.sprintf "%d %s" !seq (record_text r) in
            Buffer.add_string buf
              (Printf.sprintf "%08x %s\n" (crc32 body) body);
            incr seq)
          (List.rev t.tail);
        Buffer.contents buf)

  let synced_records t = locked t (fun () -> t.synced_records)
  let appends t = locked t (fun () -> t.appends)
  let syncs t = locked t (fun () -> t.syncs)
end
