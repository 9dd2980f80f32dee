(* Indexed histories.

   The representation keeps the event sequence as a reversed prefix so
   [append] is O(1) cons instead of the former [h @ [e]].  Derived views
   — per-object and per-activity projections, first-appearance orders,
   commit/abort sets, timestamps, and the precedes relation — live in
   lazily built indexes: the first query pays one O(n log n) fold over
   the events, and [append] extends an already-built index in O(log n)
   per event, so queries on a growing history are incremental rather
   than full re-scans.  A history whose indexes were never demanded
   stays a bare list and costs nothing beyond the spine.

   Invariants:
   - [rev] is the event sequence newest-first; [len = List.length rev].
   - [fwd], when present, is [List.rev rev] (the temporal order).
   - [proj]/[prec], when present, describe exactly the events of [rev].
   - [perm_memo], when present, is [perm] of this history.
   Indexes are only ever absent or exact; they are never stale. *)

module Pair = struct
  type t = Activity.t * Activity.t

  let compare (a, b) (a', b') =
    match Activity.compare a a' with
    | 0 -> Activity.compare b b'
    | c -> c
end

module Pair_set = Set.Make (Pair)

type proj = {
  by_obj : (int * Event.t list) Object_id.Map.t;
      (* per-object projection, newest-first, with its length *)
  by_act : (int * Event.t list) Activity.Map.t;
      (* per-activity projection, newest-first, with its length *)
  objs_rev : Object_id.t list;  (* first-appearance order, reversed *)
  acts_rev : Activity.t list;  (* first-appearance order, reversed *)
  committed_set : Activity.Set.t;
  aborted_set : Activity.Set.t;
  ts_of_map : Timestamp.t Activity.Map.t;
      (* first timestamp carried by each activity's events *)
}

type prec = {
  prec_committed : Activity.Set.t;  (* committed so far, for extension *)
  pairs_rev : (Activity.t * Activity.t) list;
      (* precedes pairs, reversed discovery order *)
  pair_set : Pair_set.t;  (* same pairs, for O(log n) membership *)
}

type t = {
  rev : Event.t list;  (* newest first *)
  len : int;
  mutable fwd : Event.t list option;  (* memoized temporal order *)
  mutable proj : proj option;
  mutable prec : prec option;
  mutable perm_memo : t option;
}

let mk rev len = { rev; len; fwd = None; proj = None; prec = None; perm_memo = None }
let empty = mk [] 0

let of_list l =
  let h = mk (List.rev l) (List.length l) in
  h.fwd <- Some l;
  h

let to_list h =
  match h.fwd with
  | Some l -> l
  | None ->
    let l = List.rev h.rev in
    h.fwd <- Some l;
    l

let length h = h.len
let equal h k = h.len = k.len && List.equal Event.equal h.rev k.rev

(* Walk in from the newest end: skip the [len - upto] newest events,
   then cons the next [upto - from] onto the result, which leaves them
   in temporal order.  No memo is built or touched. *)
let slice h ~from ~upto =
  if from < 0 || upto > h.len || from > upto then invalid_arg "History.slice";
  let rec skip n l =
    match l with _ :: tl when n > 0 -> skip (n - 1) tl | _ -> l
  in
  let rec take n l acc =
    match l with e :: tl when n > 0 -> take (n - 1) tl (e :: acc) | _ -> acc
  in
  if from = upto then [] else take (upto - from) (skip (h.len - upto) h.rev) []

(* --- projection / membership index ------------------------------- *)

let proj_empty =
  {
    by_obj = Object_id.Map.empty;
    by_act = Activity.Map.empty;
    objs_rev = [];
    acts_rev = [];
    committed_set = Activity.Set.empty;
    aborted_set = Activity.Set.empty;
    ts_of_map = Activity.Map.empty;
  }

let proj_add p e =
  let a = Event.activity e and x = Event.object_id e in
  let objs_rev =
    if Object_id.Map.mem x p.by_obj then p.objs_rev else x :: p.objs_rev
  in
  let acts_rev =
    if Activity.Map.mem a p.by_act then p.acts_rev else a :: p.acts_rev
  in
  let by_obj =
    Object_id.Map.update x
      (function None -> Some (1, [ e ]) | Some (n, es) -> Some (n + 1, e :: es))
      p.by_obj
  in
  let by_act =
    Activity.Map.update a
      (function None -> Some (1, [ e ]) | Some (n, es) -> Some (n + 1, e :: es))
      p.by_act
  in
  let committed_set =
    match e with
    | Event.Commit (a, _, _) -> Activity.Set.add a p.committed_set
    | _ -> p.committed_set
  in
  let aborted_set =
    match e with
    | Event.Abort (a, _) -> Activity.Set.add a p.aborted_set
    | _ -> p.aborted_set
  in
  let ts_of_map =
    match Event.timestamp e with
    | Some ts when not (Activity.Map.mem a p.ts_of_map) ->
      Activity.Map.add a ts p.ts_of_map
    | _ -> p.ts_of_map
  in
  { by_obj; by_act; objs_rev; acts_rev; committed_set; aborted_set; ts_of_map }

let proj h =
  match h.proj with
  | Some p -> p
  | None ->
    let p = List.fold_left proj_add proj_empty (to_list h) in
    h.proj <- Some p;
    p

(* --- precedes index ---------------------------------------------- *)

let prec_empty =
  { prec_committed = Activity.Set.empty; pairs_rev = []; pair_set = Pair_set.empty }

let prec_add p e =
  match e with
  | Event.Commit (a, _, _) ->
    { p with prec_committed = Activity.Set.add a p.prec_committed }
  | Event.Respond (b, _, _) ->
    Activity.Set.fold
      (fun a p ->
        if Activity.equal a b then p
        else if Pair_set.mem (a, b) p.pair_set then p
        else
          {
            p with
            pairs_rev = (a, b) :: p.pairs_rev;
            pair_set = Pair_set.add (a, b) p.pair_set;
          })
      p.prec_committed p
  | Event.Invoke _ | Event.Abort _ | Event.Initiate _ -> p

let prec h =
  match h.prec with
  | Some p -> p
  | None ->
    let p = List.fold_left prec_add prec_empty (to_list h) in
    h.prec <- Some p;
    p

(* --- construction ------------------------------------------------- *)

let append h e =
  let h' = mk (e :: h.rev) (h.len + 1) in
  (* Extend any index the parent already paid for; absent indexes stay
     absent so an append-only workload never builds them. *)
  (match h.proj with
  | Some p -> h'.proj <- Some (proj_add p e)
  | None -> ());
  (match h.prec with
  | Some p -> h'.prec <- Some (prec_add p e)
  | None -> ());
  h'

(* --- queries ------------------------------------------------------ *)

let project_object x h =
  match Object_id.Map.find_opt x (proj h).by_obj with
  | None -> empty
  | Some (n, rev) -> mk rev n

let project_activity a h =
  match Activity.Map.find_opt a (proj h).by_act with
  | None -> empty
  | Some (n, rev) -> mk rev n

(* First-appearance order, deduplicated.  Hash-set membership keyed by
   [key]; the former implementation scanned an accumulator list per
   element, which was quadratic. *)
let dedup_keep_order key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.replace seen k ();
        true))
    xs

let activities h = List.rev (proj h).acts_rev
let objects h = List.rev (proj h).objs_rev
let committed h = (proj h).committed_set
let aborted h = (proj h).aborted_set

let active h =
  let p = proj h in
  let resolved = Activity.Set.union p.committed_set p.aborted_set in
  List.fold_left
    (fun acc a ->
      if Activity.Set.mem a resolved then acc else Activity.Set.add a acc)
    Activity.Set.empty
    (List.rev p.acts_rev)

let perm h =
  match h.perm_memo with
  | Some p -> p
  | None ->
    let c = (proj h).committed_set in
    let rev =
      List.filter (fun e -> Activity.Set.mem (Event.activity e) c) h.rev
    in
    let p = mk rev (List.length rev) in
    h.perm_memo <- Some p;
    p

let updates h =
  let rev =
    List.filter
      (fun e -> not (Activity.is_read_only (Event.activity e)))
      h.rev
  in
  mk rev (List.length rev)

let equivalent h k =
  let acts = dedup_keep_order Activity.name (activities h @ activities k) in
  List.for_all
    (fun a -> equal (project_activity a h) (project_activity a k))
    acts

let precedes h = List.rev (prec h).pairs_rev
let precedes_mem h a b = Pair_set.mem (a, b) (prec h).pair_set
let timestamp_of h a = Activity.Map.find_opt a (proj h).ts_of_map

let timestamp_order h =
  let p = proj h in
  let acts = Activity.Set.elements p.committed_set in
  let stamped =
    List.map
      (fun a ->
        Option.map (fun t -> (a, t)) (Activity.Map.find_opt a p.ts_of_map))
      acts
  in
  if List.exists Option.is_none stamped then None
  else
    let stamped = List.filter_map Fun.id stamped in
    let sorted =
      List.sort (fun (_, t) (_, t') -> Timestamp.compare t t') stamped
    in
    Some (List.map fst sorted)

let serial h =
  (* No activity's events may resume after another activity's events
     have intervened. *)
  let rec go seen current = function
    | [] -> true
    | e :: rest -> (
      let a = Event.activity e in
      match current with
      | Some c when Activity.equal c a -> go seen current rest
      | _ ->
        if Activity.Set.mem a seen then false
        else go (Activity.Set.add a seen) (Some a) rest)
  in
  go Activity.Set.empty None (to_list h)

let is_prefix p h =
  let rec go p h =
    match (p, h) with
    | [], _ -> true
    | _, [] -> false
    | e :: p', f :: h' -> Event.equal e f && go p' h'
  in
  p.len <= h.len && go (to_list p) (to_list h)

let concat_serial order h =
  of_list (List.concat_map (fun a -> to_list (project_activity a h)) order)

let iter f h = List.iter f (to_list h)
let fold_left f init h = List.fold_left f init (to_list h)
let pp ppf h = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Event.pp) (to_list h)
let to_string h = Fmt.str "%a" pp h

(* --- naive reference ---------------------------------------------- *)

module Reference = struct
  (* The seed's list-scan implementations, retained verbatim (modulo
     [to_list]/[of_list] at the boundary) as an equivalence oracle for
     the indexed queries above, and as the benchmark's naive arm. *)

  let dedup_keep_order equal xs =
    let rec go seen = function
      | [] -> List.rev seen
      | x :: rest ->
        if List.exists (equal x) seen then go seen rest else go (x :: seen) rest
    in
    go [] xs

  let project_object x h =
    of_list
      (List.filter
         (fun e -> Object_id.equal (Event.object_id e) x)
         (to_list h))

  let project_activity a h =
    of_list
      (List.filter
         (fun e -> Activity.equal (Event.activity e) a)
         (to_list h))

  let activities h =
    dedup_keep_order Activity.equal (List.map Event.activity (to_list h))

  let objects h =
    dedup_keep_order Object_id.equal (List.map Event.object_id (to_list h))

  let committed h =
    List.fold_left
      (fun acc e ->
        match e with
        | Event.Commit (a, _, _) -> Activity.Set.add a acc
        | _ -> acc)
      Activity.Set.empty (to_list h)

  let aborted h =
    List.fold_left
      (fun acc e ->
        match e with
        | Event.Abort (a, _) -> Activity.Set.add a acc
        | _ -> acc)
      Activity.Set.empty (to_list h)

  let active h =
    let resolved = Activity.Set.union (committed h) (aborted h) in
    List.fold_left
      (fun acc a ->
        if Activity.Set.mem a resolved then acc else Activity.Set.add a acc)
      Activity.Set.empty (activities h)

  let perm h =
    let c = committed h in
    of_list
      (List.filter
         (fun e -> Activity.Set.mem (Event.activity e) c)
         (to_list h))

  let precedes h =
    let _, pairs =
      List.fold_left
        (fun (committed_so_far, pairs) e ->
          match e with
          | Event.Commit (a, _, _) ->
            (Activity.Set.add a committed_so_far, pairs)
          | Event.Respond (b, _, _) ->
            let pairs =
              Activity.Set.fold
                (fun a pairs ->
                  if Activity.equal a b then pairs
                  else if
                    List.exists
                      (fun (a', b') ->
                        Activity.equal a a' && Activity.equal b b')
                      pairs
                  then pairs
                  else (a, b) :: pairs)
                committed_so_far pairs
            in
            (committed_so_far, pairs)
          | Event.Invoke _ | Event.Abort _ | Event.Initiate _ ->
            (committed_so_far, pairs))
        (Activity.Set.empty, [])
        (to_list h)
    in
    List.rev pairs

  let precedes_mem h a b =
    List.exists
      (fun (a', b') -> Activity.equal a a' && Activity.equal b b')
      (precedes h)

  let timestamp_of h a =
    List.find_map
      (fun e ->
        if Activity.equal (Event.activity e) a then Event.timestamp e
        else None)
      (to_list h)
end
