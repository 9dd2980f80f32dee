open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec
module Names = Hashtbl.Make (String)

(* An update activity whose commit has not arrived: its completed
   operations (newest first), its latest event — an invocation pairs
   with a response that directly follows it — and its first logged
   timestamp (-1 before one). *)
type pending = {
  mutable ops_rev : (Object_id.t * Operation.t * Value.t) list;
  mutable last : Event.t;
  mutable first_ts : int;
}

type t = {
  ts_ordered : bool;
  spec : Object_id.t -> Seq_spec.t option;
  mutable starts : (Seq_spec.t * Seq_spec.frontier) list;
      (* one start frontier per specification, shared by every object
         that has not moved from it *)
  pending : pending Names.t;  (* by activity name *)
  mutable staged : (int * (Object_id.t * Operation.t * Value.t) list) list;
      (* committed above the mark, highest timestamp first *)
  frontiers : Seq_spec.frontier Names.t;  (* by object, once moved *)
  mutable mark : int;
  mutable broken : string option;
}

let create ~ts_ordered ~spec =
  {
    ts_ordered;
    spec;
    starts = [];
    pending = Names.create 16;
    staged = [];
    frontiers = Names.create 64;
    mark = -1;
    broken = None;
  }

let mark t = t.mark
let broken t = t.broken
let break t msg = if t.broken = None then t.broken <- Some msg

let start_of t spec =
  match List.assq_opt spec t.starts with
  | Some f -> f
  | None ->
    let f = Seq_spec.start spec in
    t.starts <- (spec, f) :: t.starts;
    f

let frontier t x =
  match Names.find_opt t.frontiers (Object_id.name x) with
  | Some _ as found -> found
  | None -> Option.map (start_of t) (t.spec x)

let fold_op t (x, op, v) =
  match frontier t x with
  | None -> break t (Fmt.str "unknown object %a" Object_id.pp x)
  | Some f -> (
    match Seq_spec.advance f op v with
    | Some f' -> Names.replace t.frontiers (Object_id.name x) f'
    | None ->
      break t
        (Fmt.str
           "the log says %a answered %a at %a, but the specification permits \
            no such outcome"
           Operation.pp op Value.pp v Object_id.pp x))

let apply t ops = if t.broken = None then List.iter (fold_op t) ops

(* Newest arrivals mostly carry the highest timestamp: insert from the
   front. *)
let rec insert ((ts, _) as txn) = function
  | ((ts', _) as hd) :: tl when ts' > ts -> hd :: insert txn tl
  | l -> txn :: l

let feed t e =
  let a = Event.activity e in
  if not (Activity.is_read_only a) then
    let name = Activity.name a in
    match (e, Names.find_opt t.pending name) with
    | (Event.Invoke _ | Event.Respond _ | Event.Initiate _), None ->
      let p = { ops_rev = []; last = e; first_ts = -1 } in
      (match e with
      | Event.Initiate (_, _, ts) -> p.first_ts <- Timestamp.to_int ts
      | _ -> ());
      Names.replace t.pending name p
    | Event.Respond (_, x, v), Some p ->
      (match p.last with
      | Event.Invoke (_, x', op) when Object_id.equal x x' ->
        p.ops_rev <- (x, op, v) :: p.ops_rev
      | _ -> ());
      p.last <- e
    | Event.Initiate (_, _, ts), Some p ->
      if p.first_ts < 0 then p.first_ts <- Timestamp.to_int ts;
      p.last <- e
    | Event.Invoke _, Some p -> p.last <- e
    | Event.Abort _, Some _ -> Names.remove t.pending name
    | Event.Commit (_, _, cts), Some p ->
      (* The first commit folds or stages the activity; the commits at
         its other objects find nothing pending. *)
      Names.remove t.pending name;
      if not t.ts_ordered then apply t (List.rev p.ops_rev)
      else
        let ts =
          if p.first_ts >= 0 then p.first_ts
          else match cts with Some ts -> Timestamp.to_int ts | None -> -1
        in
        if ts >= 0 then
          if ts <= t.mark then
            break t
              (Fmt.str "%s committed at ts %d, at or below the folded mark %d"
                 name ts t.mark)
          else t.staged <- insert (ts, List.rev p.ops_rev) t.staged
    | (Event.Abort _ | Event.Commit _), None -> ()

(* The staged activities at or below [h] sit at the tail, highest
   first: fold them lowest first. *)
let upto t h =
  if h > t.mark then begin
    let rec split = function
      | ((ts, _) as hd) :: tl when ts > h ->
        let above, ready = split tl in
        (hd :: above, ready)
      | ready -> ([], ready)
    in
    let above, ready = split t.staged in
    t.staged <- above;
    List.iter (fun (_, ops) -> apply t ops) (List.rev ready);
    t.mark <- h
  end

let iter_moved t f = Names.iter (fun x fr -> f (Object_id.v x) fr) t.frontiers

let rebuild t =
  let moved =
    Names.fold (fun x f acc -> (Object_id.v x, f) :: acc) t.frontiers []
    |> List.sort (fun (x, _) (y, _) -> Object_id.compare x y)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (x, f) :: rest -> (
      match Seq_spec.rebuild f with
      | Ok [] -> go acc rest
      | Ok ops -> go ((x, ops) :: acc) rest
      | Error msg -> Error (Fmt.str "%a: %s" Object_id.pp x msg))
  in
  go [] moved

let of_events ~ts_ordered ~spec events =
  let t = create ~ts_ordered ~spec in
  List.iter (feed t) events;
  upto t max_int;
  t

let diff a b =
  match (a.broken, b.broken) with
  | Some msg, _ | None, Some msg -> Some ("fold broken: " ^ msg)
  | None, None ->
    let names =
      Names.fold (fun x _ acc -> Object_id.v x :: acc) a.frontiers []
      |> Names.fold (fun x _ acc -> Object_id.v x :: acc) b.frontiers
      |> List.sort_uniq Object_id.compare
    in
    let state t x = Option.map Seq_spec.rebuild (frontier t x) in
    let same_steps = List.equal (fun (op, v) (op', v') ->
        Operation.equal op op' && Value.equal v v')
    in
    List.find_map
      (fun x ->
        let same =
          match (state a x, state b x) with
          | Some (Ok s), Some (Ok s') -> same_steps s s'
          | _ -> false
        in
        if same then None
        else
          let pp = Fmt.(option ~none:(any "unknown") Seq_spec.pp_frontier) in
          Some
            (Fmt.str "%a: %a vs %a" Object_id.pp x pp (frontier a x) pp
               (frontier b x)))
      names
