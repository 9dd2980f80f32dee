type t =
  | Invoke of Activity.t * Object_id.t * Operation.t
  | Respond of Activity.t * Object_id.t * Value.t
  | Commit of Activity.t * Object_id.t * Timestamp.t option
  | Abort of Activity.t * Object_id.t
  | Initiate of Activity.t * Object_id.t * Timestamp.t

let invoke a x op = Invoke (a, x, op)
let respond a x v = Respond (a, x, v)
let commit a x = Commit (a, x, None)
let commit_ts a x t = Commit (a, x, Some t)
let abort a x = Abort (a, x)
let initiate a x t = Initiate (a, x, t)

let activity = function
  | Invoke (a, _, _) | Respond (a, _, _) | Commit (a, _, _)
  | Abort (a, _) | Initiate (a, _, _) -> a

let object_id = function
  | Invoke (_, x, _) | Respond (_, x, _) | Commit (_, x, _)
  | Abort (_, x) | Initiate (_, x, _) -> x

let is_invoke = function Invoke _ -> true | _ -> false
let is_respond = function Respond _ -> true | _ -> false
let is_commit = function Commit _ -> true | _ -> false
let is_initiate = function Initiate _ -> true | _ -> false

let timestamp = function
  | Commit (_, _, ts) -> ts
  | Initiate (_, _, t) -> Some t
  | Invoke _ | Respond _ | Abort _ -> None

let equal e f =
  match e, f with
  | Invoke (a, x, op), Invoke (b, y, op') ->
    Activity.equal a b && Object_id.equal x y && Operation.equal op op'
  | Respond (a, x, v), Respond (b, y, w) ->
    Activity.equal a b && Object_id.equal x y && Value.equal v w
  | Commit (a, x, ts), Commit (b, y, ts') ->
    Activity.equal a b && Object_id.equal x y
    && Option.equal Timestamp.equal ts ts'
  | Abort (a, x), Abort (b, y) -> Activity.equal a b && Object_id.equal x y
  | Initiate (a, x, t), Initiate (b, y, t') ->
    Activity.equal a b && Object_id.equal x y && Timestamp.equal t t'
  | (Invoke _ | Respond _ | Commit _ | Abort _ | Initiate _), _ -> false

let compare e f =
  let tag = function
    | Invoke _ -> 0 | Respond _ -> 1 | Commit _ -> 2 | Abort _ -> 3
    | Initiate _ -> 4
  in
  let c = Int.compare (tag e) (tag f) in
  if c <> 0 then c
  else
    match e, f with
    | Invoke (a, x, op), Invoke (b, y, op') ->
      let c = Activity.compare a b in
      if c <> 0 then c
      else
        let c = Object_id.compare x y in
        if c <> 0 then c else Operation.compare op op'
    | Respond (a, x, v), Respond (b, y, w) ->
      let c = Activity.compare a b in
      if c <> 0 then c
      else
        let c = Object_id.compare x y in
        if c <> 0 then c else Value.compare v w
    | Commit (a, x, ts), Commit (b, y, ts') ->
      let c = Activity.compare a b in
      if c <> 0 then c
      else
        let c = Object_id.compare x y in
        if c <> 0 then c
        else Option.compare Timestamp.compare ts ts'
    | Abort (a, x), Abort (b, y) ->
      let c = Activity.compare a b in
      if c <> 0 then c else Object_id.compare x y
    | Initiate (a, x, t), Initiate (b, y, t') ->
      let c = Activity.compare a b in
      if c <> 0 then c
      else
        let c = Object_id.compare x y in
        if c <> 0 then c else Timestamp.compare t t'
    | (Invoke _ | Respond _ | Commit _ | Abort _ | Initiate _), _ ->
      assert false

let to_buffer b e =
  let add = Buffer.add_string b in
  let int n = add (Int.to_string n) in
  (* Every event ends ",object,activity>". *)
  let close x a =
    add ",";
    add (Object_id.name x);
    add ",";
    add (Activity.name a);
    add ">"
  in
  match e with
  | Invoke (a, x, op) ->
    add "<";
    Operation.to_buffer b op;
    close x a
  | Respond (a, x, v) ->
    add "<";
    Value.to_buffer b v;
    close x a
  | Commit (a, x, None) ->
    add "<commit";
    close x a
  | Commit (a, x, Some t) ->
    add "<commit(";
    int (Timestamp.to_int t);
    add ")";
    close x a
  | Abort (a, x) ->
    add "<abort";
    close x a
  | Initiate (a, x, t) ->
    add "<initiate(";
    int (Timestamp.to_int t);
    add ")";
    close x a

let to_string e =
  let b = Buffer.create 32 in
  to_buffer b e;
  Buffer.contents b

let pp ppf e = Fmt.string ppf (to_string e)
