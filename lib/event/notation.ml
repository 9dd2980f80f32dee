type error = { line : int; message : string }

let pp_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.message

let default_read_only name =
  String.length name > 0
  && (match name.[0] with 'r' | 's' | 't' -> true | _ -> false)

let default_results = [ "ok"; "insufficient_funds"; "empty"; "none" ]

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* Split [s] on top-level commas (none of our values nest, so every
   comma splits). *)
let split_commas s = String.split_on_char ',' s |> List.map String.trim

let parse_nat s = int_of_string_opt s

let value_of_string s =
  let s = String.trim s in
  if s = "()" then Some Value.Unit
  else if s = "true" then Some (Value.Bool true)
  else if s = "false" then Some (Value.Bool false)
  else
    match parse_nat s with
    | Some n -> Some (Value.Int n)
    | None ->
      if s <> "" && String.for_all is_ident_char s then Some (Value.Sym s)
      else None

(* Split "name(arg1,arg2)" into (name, Some "arg1,arg2"), or
   (body, None) when there are no parentheses. *)
let split_call s =
  match String.index_opt s '(' with
  | None -> Ok (s, None)
  | Some i ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then
      Error "unbalanced parentheses"
    else
      let name = String.sub s 0 i in
      let args = String.sub s (i + 1) (String.length s - i - 2) in
      Ok (String.trim name, Some args)

(* The operation [name(args)], its arguments split on commas. *)
let call name args =
  let parsed = List.map value_of_string (split_commas args) in
  if List.exists Option.is_none parsed then
    Error (Fmt.str "cannot parse arguments of %s" name)
  else Ok (Operation.make name (List.filter_map Fun.id parsed))

let operation_of_string s =
  match split_call (String.trim s) with
  | Error e -> Error e
  | Ok (name, args) when name <> "" && String.for_all is_ident_char name -> (
    match args with
    | Some args -> call name args
    | None -> Ok (Operation.make name []))
  | Ok _ -> Error (Fmt.str "cannot parse operation %S" s)

let event_of_string ?(read_only = default_read_only)
    ?(results = default_results) s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '<' || s.[n - 1] <> '>' then
    Error "expected <body,object,activity>"
  else
    let inner = String.sub s 1 (n - 2) in
    (* The activity and object are the last two comma-separated
       fields; everything before belongs to the body (operation
       arguments may themselves contain commas). *)
    match List.rev (split_commas inner) with
    | act_name :: obj_name :: body_rev when act_name <> "" && obj_name <> ""
      ->
      let body = String.concat "," (List.rev body_rev) |> String.trim in
      if body = "" then Error "empty event body"
      else begin
        let activity =
          if read_only act_name then Activity.read_only act_name
          else Activity.update act_name
        in
        let obj = Object_id.v obj_name in
        if body = "()" then Ok (Event.respond activity obj Value.Unit)
        else
        match split_call body with
        | Error e -> Error e
        | Ok ("commit", None) -> Ok (Event.commit activity obj)
        | Ok ("commit", Some arg) -> (
          match parse_nat (String.trim arg) with
          | Some t -> Ok (Event.commit_ts activity obj (Timestamp.v t))
          | None -> Error "commit timestamp must be a natural number")
        | Ok ("abort", None) -> Ok (Event.abort activity obj)
        | Ok ("abort", Some _) -> Error "abort takes no argument"
        | Ok ("initiate", Some arg) -> (
          match parse_nat (String.trim arg) with
          | Some t -> Ok (Event.initiate activity obj (Timestamp.v t))
          | None -> Error "initiation timestamp must be a natural number")
        | Ok ("initiate", None) -> Error "initiate requires a timestamp"
        | Ok (name, Some args) -> (
          match call name args with
          | Ok op -> Ok (Event.invoke activity obj op)
          | Error e -> Error e)
        | Ok (bare, None) -> (
          (* A bare body is a result if it looks like a literal or is a
             registered symbolic result; otherwise a no-argument
             invocation. *)
          match value_of_string bare with
          | Some (Value.Sym sym) when not (List.mem sym results) ->
            Ok (Event.invoke activity obj (Operation.make sym []))
          | Some v -> Ok (Event.respond activity obj v)
          | None -> Error (Fmt.str "cannot parse body %S" bare))
      end
    | _ -> Error "expected <body,object,activity>"

let history_of_string ?read_only ?results s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (History.of_list (List.rev acc))
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
      else begin
        match event_of_string ?read_only ?results trimmed with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error message -> Error { line = lineno; message }
      end
  in
  go 1 [] lines

let history_to_string h =
  String.concat "\n" (List.map Event.to_string (History.to_list h))
