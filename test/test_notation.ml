(* Parsing and printing the paper's <op,x,a> notation. *)

open Core
open Helpers

let parse s =
  match Notation.event_of_string s with
  | Ok e -> e
  | Error m -> Alcotest.fail (Fmt.str "parse %S: %s" s m)

let event = Alcotest.testable Event.pp Event.equal

let test_event_forms () =
  Alcotest.check event "invocation with argument"
    (Event.invoke a x (Intset.insert 3))
    (parse "<insert(3),x,a>");
  Alcotest.check event "invocation without argument"
    (Event.invoke c x (Fifo_queue.dequeue))
    (parse "<dequeue,x,c>");
  Alcotest.check event "boolean result"
    (Event.respond a x (Value.Bool true))
    (parse "<true,x,a>");
  Alcotest.check event "symbolic result"
    (Event.respond b x Value.ok)
    (parse "<ok,x,b>");
  Alcotest.check event "integer result"
    (Event.respond c x (Value.Int 2))
    (parse "<2,x,c>");
  Alcotest.check event "commit" (Event.commit a x) (parse "<commit,x,a>");
  Alcotest.check event "timestamped commit"
    (Event.commit_ts a x (ts 2))
    (parse "<commit(2),x,a>");
  Alcotest.check event "abort" (Event.abort c x) (parse "<abort,x,c>");
  Alcotest.check event "initiation"
    (Event.initiate r x (ts 1))
    (parse "<initiate(1),x,r>");
  Alcotest.check event "multi-argument operation"
    (Event.invoke a x (Kv_map.put 1 10))
    (parse "<put(1,10),x,a>")

let test_read_only_convention () =
  check_bool "r is read-only" true
    (Activity.is_read_only (Event.activity (parse "<commit,x,r>")));
  check_bool "a is an update" false
    (Activity.is_read_only (Event.activity (parse "<commit,x,a>")))

let test_whitespace () =
  Alcotest.check event "spaces tolerated"
    (Event.invoke a x (Intset.insert 3))
    (parse "  < insert(3) , x , a >  ")

let test_errors () =
  let bad s =
    match Notation.event_of_string s with
    | Ok _ -> Alcotest.fail (Fmt.str "expected failure on %S" s)
    | Error _ -> ()
  in
  bad "";
  bad "insert(3),x,a";
  bad "<>";
  bad "<,x,a>";
  bad "<insert(3,x,a>";
  bad "<commit(x),x,a>";
  bad "<initiate,x,a>";
  bad "<abort(1),x,a>"

let test_negative_and_multiarg_values () =
  Alcotest.check event "negative result"
    (Event.respond a x (Value.Int (-3)))
    (parse "<-3,x,a>");
  Alcotest.check event "unit result"
    (Event.respond a x Value.Unit)
    (parse "<(),x,a>")

let test_history_round_trip () =
  List.iter
    (fun h ->
      let text = Notation.history_to_string h in
      match Notation.history_of_string text with
      | Ok h' -> Alcotest.check history "round trip" h h'
      | Error e -> Alcotest.fail (Fmt.str "%a" Notation.pp_error e))
    [
      sec3_atomic; sec41_dynamic; sec42_static; sec43_well_formed;
      sec51_withdrawals; sec51_queue;
    ]

let test_history_comments_and_errors () =
  let src = "# the paper's Section 3 example\n\n<member(3),x,a>\n<commit,x,a>\n" in
  (match Notation.history_of_string src with
  | Ok h -> check_int "two events" 2 (History.length h)
  | Error e -> Alcotest.fail (Fmt.str "%a" Notation.pp_error e));
  match Notation.history_of_string "<commit,x,a>\nnot an event\n" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check_int "error on line 2" 2 e.Notation.line

(* --- the printers, byte for byte against the Format ones ------------ *)

(* The Format-based printers the Buffer ones replaced, and the Printf
   line framing of the WAL, kept verbatim as the oracle. *)
module Fmt_printers = struct
  let rec value ppf = function
    | Value.Unit -> Fmt.string ppf "()"
    | Value.Bool b -> Fmt.bool ppf b
    | Value.Int i -> Fmt.int ppf i
    | Value.Sym s -> Fmt.string ppf s
    | Value.List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") value) vs
    | Value.Pair (a, b) -> Fmt.pf ppf "(%a, %a)" value a value b

  let operation ppf op =
    match Operation.args op with
    | [] -> Fmt.string ppf (Operation.name op)
    | args ->
      Fmt.pf ppf "@[<h>%s(%a)@]" (Operation.name op)
        Fmt.(list ~sep:comma value)
        args

  let obj = Fmt.string
  let act ppf a = Fmt.string ppf (Activity.name a)
  let ts ppf t = Fmt.int ppf (Timestamp.to_int t)

  let event ppf = function
    | Event.Invoke (a, x, op) ->
      Fmt.pf ppf "@[<h><%a,%a,%a>@]" operation op obj (Object_id.name x) act a
    | Event.Respond (a, x, v) ->
      Fmt.pf ppf "<%a,%a,%a>" value v obj (Object_id.name x) act a
    | Event.Commit (a, x, None) ->
      Fmt.pf ppf "<commit,%a,%a>" obj (Object_id.name x) act a
    | Event.Commit (a, x, Some t) ->
      Fmt.pf ppf "<commit(%a),%a,%a>" ts t obj (Object_id.name x) act a
    | Event.Abort (a, x) -> Fmt.pf ppf "<abort,%a,%a>" obj (Object_id.name x) act a
    | Event.Initiate (a, x, t) ->
      Fmt.pf ppf "<initiate(%a),%a,%a>" ts t obj (Object_id.name x) act a

  let crc32 s =
    let table =
      Array.init 256 (fun n ->
          let c = ref n in
          for _ = 0 to 7 do
            c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
          done;
          !c)
    in
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
      s;
    !c lxor 0xFFFFFFFF

  let control_text = function
    | Wal.Prepared { gid; activity } ->
      Printf.sprintf "!prepared %d %s %s" gid
        (if Activity.is_read_only activity then "r" else "u")
        (Activity.name activity)
    | Wal.Decided { gid; verdict = `Commit (Some ts) } ->
      Printf.sprintf "!decided %d commit %d" gid (Timestamp.to_int ts)
    | Wal.Decided { gid; verdict = `Commit None } ->
      Printf.sprintf "!decided %d commit -" gid
    | Wal.Decided { gid; verdict = `Abort } -> Printf.sprintf "!decided %d abort" gid
    | Wal.Checkpointed { seq; digest } ->
      Printf.sprintf "!checkpointed %d %08x" seq digest

  let event_text e =
    let act = Event.activity e in
    let ro = Activity.is_read_only act in
    let text = Fmt.str "%a" event e in
    if ro = Notation.default_read_only (Activity.name act) then text
    else (if ro then "r " else "u ") ^ text

  (* The record lines of [Wal.encode_records ~base records]. *)
  let record_lines ~base records =
    List.mapi
      (fun i r ->
        let text =
          match r with Wal.Event e -> event_text e | Wal.Control c -> control_text c
        in
        let body = Printf.sprintf "%d %s" (base + i) text in
        Printf.sprintf "%08x %s" (crc32 body) body)
      records
end

module Gen = QCheck2.Gen

(* Names of any length — past Format's margin too — over letters that
   start the read-only convention's names and ones that do not, digits,
   and characters Format would treat specially in a format string. *)
let name_gen =
  Gen.(
    let char =
      oneofl [ 'a'; 'r'; 's'; 't'; 'u'; 'x'; 'Z'; '0'; '7'; '_'; '@'; '%'; ' ' ]
    in
    oneof
      [
        string_size ~gen:char (int_range 1 8);
        string_size ~gen:char (int_range 60 120);
      ])

let value_gen =
  Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Value.Unit;
                 map (fun b -> Value.Bool b) bool;
                 map (fun i -> Value.Int i) (oneof [ int_range (-1000) 1000; int ]);
                 map (fun s -> Value.Sym s) name_gen;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map
                   (fun vs -> Value.List vs)
                   (list_size (int_bound 3) (self (n - 1)));
                 map2 (fun a b -> Value.Pair (a, b)) (self (n - 1)) (self (n - 1));
               ]))

let operation_gen =
  Gen.map2 Operation.make name_gen (Gen.list_size (Gen.int_bound 3) value_gen)

(* The activity's kind is drawn independently of its name, so some
   activities break the r/s/t naming rule. *)
let activity_gen =
  Gen.map2
    (fun name ro -> if ro then Activity.read_only name else Activity.update name)
    name_gen Gen.bool

let ts_gen =
  Gen.map Timestamp.v (Gen.oneof [ Gen.int_bound 1000; Gen.int_bound max_int ])

let event_gen =
  Gen.(
    let* a = activity_gen and* x = map Object_id.v name_gen in
    oneof
      [
        map (fun op -> Event.Invoke (a, x, op)) operation_gen;
        map (fun v -> Event.Respond (a, x, v)) value_gen;
        pure (Event.Commit (a, x, None));
        map (fun t -> Event.Commit (a, x, Some t)) ts_gen;
        pure (Event.Abort (a, x));
        map (fun t -> Event.Initiate (a, x, t)) ts_gen;
      ])

let control_gen =
  Gen.(
    let gid = int_bound 100_000 in
    oneof
      [
        map2 (fun gid activity -> Wal.Prepared { gid; activity }) gid activity_gen;
        map2
          (fun gid t -> Wal.Decided { gid; verdict = `Commit (Some t) })
          gid ts_gen;
        map (fun gid -> Wal.Decided { gid; verdict = `Commit None }) gid;
        map (fun gid -> Wal.Decided { gid; verdict = `Abort }) gid;
        map2
          (fun seq digest -> Wal.Checkpointed { seq; digest })
          (int_bound 100_000) (int_bound 0xFFFFFFFF);
      ])

let record_gen =
  Gen.(
    frequency
      [
        (4, map (fun e -> Wal.Event e) event_gen);
        (1, map (fun c -> Wal.Control c) control_gen);
      ])

let prop_printers_byte_identical =
  QCheck2.Test.make ~count:300
    ~name:"printers: Buffer output equals the Format printers byte for byte"
    Gen.(triple event_gen (list_size (int_bound 12) record_gen) (int_bound 100_000))
    (fun (e, records, base) ->
      let old pp v = Fmt.str "%a" pp v in
      let same what got want =
        String.equal got want
        || QCheck2.Test.fail_reportf "%s: %S, Format printer %S" what got want
      in
      same "Event.to_string" (Event.to_string e) (old Fmt_printers.event e)
      && same "Event.pp" (old Event.pp e) (old Fmt_printers.event e)
      && (match e with
         | Event.Invoke (_, _, op) ->
           same "Operation.to_string" (Operation.to_string op)
             (old Fmt_printers.operation op)
           && List.for_all
                (fun v ->
                  same "Value.to_string" (Value.to_string v)
                    (old Fmt_printers.value v))
                (Operation.args op)
         | Event.Respond (_, _, v) ->
           same "Value.to_string" (Value.to_string v) (old Fmt_printers.value v)
         | _ -> true)
      &&
      match String.split_on_char '\n' (Wal.encode_records ~base records) with
      | _header :: lines ->
        List.for_all2
          (same "Wal.encode_records line")
          lines
          (Fmt_printers.record_lines ~base records @ [ "" ])
      | [] -> false)

(* [Wal.crc32] steps four bytes at a time; the byte-wise reference
   above is the oracle.  Every offset below 8 and length up to 20 puts
   the four-byte steps at every alignment with every short tail, and
   the lengths around multiples of 4 run the step loop to its edge. *)
let test_crc32_reference () =
  Alcotest.(check int) "check value" 0xcbf43926 (Wal.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Wal.crc32 "");
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (pos, len) ->
      raises (Fmt.str "pos %d len %d of 3 bytes" pos len) (fun () ->
          Wal.crc32_sub "abc" ~pos ~len))
    [ (-1, 1); (0, 4); (2, 2); (4, 0); (0, -1); (1, max_int) ]

let prop_crc32_sub_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"crc32_sub: slicing-by-4 equals the byte-wise CRC-32"
    Gen.(string_size ~gen:char (int_range 0 200))
    (fun s ->
      let n = String.length s in
      let same pos len =
        let want = Fmt_printers.crc32 (String.sub s pos len) in
        Wal.crc32_sub s ~pos ~len = want
        || QCheck2.Test.fail_reportf "pos %d len %d of %S" pos len s
      in
      let short = List.init 8 (fun pos -> List.init 21 (fun len -> (pos, len))) in
      let around4 =
        List.init 8 (fun pos ->
            List.concat_map
              (fun k -> [ (pos, (4 * k) - 1); (pos, 4 * k); (pos, (4 * k) + 1) ])
              (List.init ((n / 4) + 2) Fun.id))
      in
      Wal.crc32 s = Fmt_printers.crc32 s
      && List.for_all
           (fun (pos, len) -> len < 0 || pos + len > n || same pos len)
           (List.concat (short @ around4)))

let suite =
  [
    Alcotest.test_case "event forms" `Quick test_event_forms;
    Alcotest.test_case "read-only naming convention" `Quick
      test_read_only_convention;
    Alcotest.test_case "whitespace" `Quick test_whitespace;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "negative and unit values" `Quick
      test_negative_and_multiarg_values;
    Alcotest.test_case "history round trip" `Quick test_history_round_trip;
    Alcotest.test_case "comments and line numbers" `Quick
      test_history_comments_and_errors;
    QCheck_alcotest.to_alcotest prop_printers_byte_identical;
    Alcotest.test_case "crc32: check value and range checks" `Quick
      test_crc32_reference;
    QCheck_alcotest.to_alcotest prop_crc32_sub_matches_reference;
  ]
