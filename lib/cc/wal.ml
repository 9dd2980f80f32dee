open Weihl_event

let magic = "weihl-wal 1"

(* CRC-32 (IEEE 802.3), slicing-by-4.  Entry [256 k + n] is the CRC
   register after byte [n] followed by [k] zero bytes, so one step of
   four table lookups folds four bytes.  OCaml's 63-bit immediates hold
   the 32-bit arithmetic comfortably.  Built eagerly at module init: a
   [lazy] here would be forced concurrently from shard domains. *)
let crc_tables =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 1023 do
    let p = t.(i - 256) in
    t.(i) <- (p lsr 8) lxor t.(p land 0xff)
  done;
  t

(* The range is checked once, so the loops index unchecked: every
   string index lies in [pos, pos + len), and every table index is a
   byte plus a multiple of 256 below 1024 (the register stays below
   2^32). *)
let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Wal.crc32_sub: range outside the string";
  let t = crc_tables in
  let stop = pos + len in
  let c = ref 0xFFFFFFFF and i = ref pos in
  while !i + 4 <= stop do
    let r = !c and j = !i in
    let b0 = Char.code (String.unsafe_get s j)
    and b1 = Char.code (String.unsafe_get s (j + 1))
    and b2 = Char.code (String.unsafe_get s (j + 2))
    and b3 = Char.code (String.unsafe_get s (j + 3)) in
    c :=
      Array.unsafe_get t (768 + ((r lxor b0) land 0xff))
      lxor Array.unsafe_get t (512 + (((r lsr 8) lxor b1) land 0xff))
      lxor Array.unsafe_get t (256 + (((r lsr 16) lxor b2) land 0xff))
      lxor Array.unsafe_get t ((r lsr 24) lxor b3);
    i := j + 4
  done;
  while !i < stop do
    let b = Char.code (String.unsafe_get s !i) in
    c := Array.unsafe_get t ((!c lxor b) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

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

(* The record whose text is [text.[pos .. stop - 1]]. *)
let record_of_text text ~pos ~stop =
  let n = stop - pos in
  if n > 0 && text.[pos] = '!' then (
    match control_of_text (String.sub text pos n) with
    | Ok c -> Ok (Control c)
    | Error m -> Error m)
  else
    let parsed =
      if n > 2 && (text.[pos] = 'r' || text.[pos] = 'u') && text.[pos + 1] = ' '
      then
        let ro = text.[pos] = 'r' in
        Notation.event_of_string
          ~read_only:(fun _ -> ro)
          (String.sub text (pos + 2) (n - 2))
      else Notation.event_of_string (String.sub text pos n)
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

(* The first [c] in [text.[i .. stop - 1]], or [stop]. *)
let rec find text c i stop =
  if i = stop || text.[i] = c then i else find text c (i + 1) stop

(* The framing of the record line [text.[pos .. stop - 1]]: the CRC
   field, the CRC over the rest of the line, and the sequence number
   after it.  [Ok (s, r)]: the line carries number [s], and its record
   text starts at byte [r]. *)
let frame text ~pos ~stop =
  if stop - pos < 10 then Error "record cut short"
  else if text.[pos + 8] <> ' ' then Error "bad framing"
  else
    match int_of_string_opt ("0x" ^ String.sub text pos 8) with
    | None -> Error "unreadable checksum field"
    | Some crc when crc <> crc32_sub text ~pos:(pos + 9) ~len:(stop - pos - 9) ->
      Error "checksum mismatch"
    | Some _ -> (
      let sp = find text ' ' (pos + 9) stop in
      if sp = stop then Error "missing sequence number"
      else
        match int_of_string_opt (String.sub text (pos + 9) (sp - pos - 9)) with
        | None -> Error "unreadable sequence number"
        | Some s -> Ok (s, sp + 1))

(* Where the walker stopped: the line of record [at] failed [why];
   [so_far] is what the records before it folded to, and the lines
   after it start at byte [rest]. *)
type 'a halt = { so_far : 'a; at : int; rest : int; why : string }

(* The one line walker.  From byte [pos] of [text], each line — up to
   its newline, a last line up to the end of the text — is the record
   numbered [seq], [seq + 1], ...: its framing, its CRC over the line's
   own bytes and its sequence number are checked in place, and
   [step acc ~pos ~stop] is handed the byte range of its record text, to
   parse or not.  Stops at the first line that fails; [Ok (acc, next)]
   carries the number after the last record. *)
let walk text ~pos ~seq step acc =
  let n = String.length text in
  let rec go pos seq acc =
    if pos >= n then Ok (acc, seq)
    else
      let stop = find text '\n' pos n in
      let checked =
        match frame text ~pos ~stop with
        | Ok (s, r) when s = seq -> step acc ~pos:r ~stop
        | Ok (s, _) ->
          Error (Printf.sprintf "sequence gap: expected %d, found %d" seq s)
        | Error why -> Error why
      in
      match checked with
      | Ok acc -> go (stop + 1) (seq + 1) acc
      | Error why -> Error { so_far = acc; at = seq; rest = stop + 1; why }
  in
  go pos seq acc

(* The lines from byte [pos] on: how many, and whether any checks out
   structurally — framing, CRC, a readable sequence number and record —
   wherever it sits: evidence that real data exists beyond a damaged
   record. *)
let lines_after text pos =
  let n = String.length text in
  let rec go pos count framed =
    if pos >= n then (count, framed)
    else
      let stop = find text '\n' pos n in
      go (stop + 1) (count + 1)
        (framed
        ||
        match frame text ~pos ~stop with
        | Ok (_, r) -> Result.is_ok (record_of_text text ~pos:r ~stop)
        | Error _ -> false)
  in
  go pos 0 false

let header_ok header =
  String.equal header magic
  || String.length header > String.length magic
     && String.sub header 0 (String.length magic + 1) = magic ^ " "

(* The header line — the text up to its first newline, all of it when
   there is none — as (label, base), and the byte where the record
   lines start.  Only a complete header line carries a label or base. *)
let header text =
  let n = String.length text in
  let nl = find text '\n' 0 n in
  let h = String.sub text 0 nl in
  if not (header_ok h) then Error { record = -1; reason = "bad or missing header" }
  else Ok ((if nl < n then header_fields h else (None, 0)), nl + 1)

let label text = match header text with Ok ((l, _), _) -> l | Error _ -> None
let base text = match header text with Ok ((_, b), _) -> b | Error _ -> 0

let decode_records text =
  match header text with
  | Error e -> Error e
  | Ok ((_, base), pos) -> (
    let parse acc ~pos ~stop =
      Result.map (fun r -> r :: acc) (record_of_text text ~pos ~stop)
    in
    match walk text ~pos ~seq:base parse [] with
    | Ok (rev, _) -> Ok (List.rev rev, Intact)
    | Error h ->
      let after, framed = lines_after text h.rest in
      if framed then
        Error { record = h.at; reason = "mid-log corruption: " ^ h.why }
      else Ok (List.rev h.so_far, Torn (after + 1)))

let iter_records ~pos ~seq f text =
  let parse () ~pos ~stop = Result.map f (record_of_text text ~pos ~stop) in
  match walk text ~pos ~seq parse () with
  | Ok ((), next) -> Ok (next - seq)
  | Error h -> Error { record = h.at; reason = h.why }

(* Streaming segments: a shipped slice of the record stream is just a
   WAL text whose header base is the slice's absolute start position.
   Unlike a log read back from disk, a segment that arrives damaged is
   refused whole — applying the intact prefix of a torn segment would
   silently diverge the replica from the stream. *)
let segment ?label ~base records = encode_records ?label ~base records

let check_segment text =
  match header text with
  | Error e -> Error e
  | Ok ((_, base), pos) -> (
    match walk text ~pos ~seq:base (fun () ~pos:_ ~stop:_ -> Ok ()) () with
    | Ok ((), next) -> Ok (base, next - base)
    | Error h -> Error { record = h.at; reason = h.why })

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
