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
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
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

(* Eight lower-case hex digits, zero-padded: the CRC field and the
   checkpoint digest. *)
let add_hex8 b n =
  for i = 7 downto 0 do
    Buffer.add_char b "0123456789abcdef".[(n lsr (4 * i)) land 0xf]
  done

let add_control b c =
  let add = Buffer.add_string b in
  let int n = add (Int.to_string n) in
  match c with
  | Prepared { gid; activity } ->
    add "!prepared ";
    int gid;
    add (if Activity.is_read_only activity then " r " else " u ");
    add (Activity.name activity)
  | Decided { gid; verdict } -> (
    add "!decided ";
    int gid;
    match verdict with
    | `Commit (Some ts) ->
      add " commit ";
      int (Timestamp.to_int ts)
    | `Commit None -> add " commit -"
    | `Abort -> add " abort")
  | Checkpointed { seq; digest } ->
    add "!checkpointed ";
    int seq;
    add " ";
    add_hex8 b digest

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

(* An event's notation names its activity but not the activity's kind;
   the parser reads the kind off the name by the paper's convention (r,
   s, t read-only).  An event whose activity breaks the convention is
   written with an explicit kind tag, ["r "] or ["u "], before its
   notation.  Conventional events stay untagged, byte for byte. *)
let add_event b e =
  let act = Event.activity e in
  let ro = Activity.is_read_only act in
  if ro <> Notation.default_read_only (Activity.name act) then
    Buffer.add_string b (if ro then "r " else "u ");
  Event.to_buffer b e

let add_record b = function
  | Event e -> add_event b e
  | Control c -> add_control b c

let record_of_text text =
  let n = String.length text in
  if n > 0 && text.[0] = '!' then (
    match control_of_text text with
    | Ok c -> Ok (Control c)
    | Error m -> Error m)
  else
    let parsed =
      if n > 2 && (text.[0] = 'r' || text.[0] = 'u') && text.[1] = ' ' then
        let ro = text.[0] = 'r' in
        Notation.event_of_string
          ~read_only:(fun _ -> ro)
          (String.sub text 2 (n - 2))
      else Notation.event_of_string text
    in
    match parsed with
    | Ok e -> Ok (Event e)
    | Error m -> Error ("unparseable event: " ^ m)

(* A truncated log keeps the absolute sequence numbers of its surviving
   records; the header records where they start ("weihl-wal 1 shard-3
   @512").  The ['@'] prefix keeps the base token distinguishable from a
   label, which may not contain one as its last space-separated token. *)
let header_line ~base label =
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

(* Each line is "<crc> <seq> <record>\n", the CRC taken over the body
   "<seq> <record>".  The body is built once in a scratch buffer and
   copied after its CRC. *)
let encode_records ?label ?(base = 0) records =
  let buf = Buffer.create (64 * (List.length records + 1)) in
  Buffer.add_string buf (header_line ~base label);
  Buffer.add_char buf '\n';
  let body = Buffer.create 128 in
  List.iteri
    (fun i r ->
      Buffer.clear body;
      Buffer.add_string body (Int.to_string (base + i));
      Buffer.add_char body ' ';
      add_record body r;
      let text = Buffer.contents body in
      add_hex8 buf (crc32 text);
      Buffer.add_char buf ' ';
      Buffer.add_string buf text;
      Buffer.add_char buf '\n')
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
