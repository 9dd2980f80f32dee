open Weihl_event
module Spec_env = Weihl_spec.Spec_env
module Atomicity = Weihl_spec.Atomicity
module Enumerate = Weihl_spec.Enumerate
module Serializability = Weihl_spec.Serializability
module Orders = Weihl_spec.Orders
module Counter = Weihl_adt.Counter
module Intset = Weihl_adt.Intset

type refutation = {
  counter_object : Object_id.t;
  pinned_order : Activity.t list;
  computation : History.t;
  env : Spec_env.t;
}

(* A fresh object id not appearing in the history. *)
let fresh_counter_id h =
  let taken = List.map Object_id.name (History.objects h) in
  let rec go i =
    let candidate = if i = 0 then "y_counter" else Fmt.str "y_counter%d" i in
    if List.mem candidate taken then go (i + 1) else Object_id.v candidate
  in
  go 0

(* Splice the pinned counter increments into [h]: each committed
   activity invokes increment on [y] immediately before its first
   commit event (so well-formedness is preserved) and commits at [y]
   immediately after that commit event.  The increment's answer is the
   activity's 1-based position in [order] — which makes the counter's
   projection acceptable serially *only* in [order]. *)
let splice h y order =
  let position a =
    let rec go i = function
      | [] -> None
      | b :: rest -> if Activity.equal a b then Some i else go (i + 1) rest
    in
    go 1 order
  in
  let seen_commit = Hashtbl.create 8 in
  let events =
    List.concat_map
      (fun e ->
        match e with
        | Event.Commit (a, _, _) when not (Hashtbl.mem seen_commit (Activity.name a)) -> (
          Hashtbl.replace seen_commit (Activity.name a) ();
          match position a with
          | Some k ->
            [
              Event.invoke a y Counter.increment;
              Event.respond a y (Value.Int k);
              e;
              Event.commit a y;
            ]
          | None -> [ e ])
        | _ -> [ e ])
      (History.to_list h)
  in
  History.of_list events

let build env h order =
  let y = fresh_counter_id h in
  let computation = splice h y order in
  {
    counter_object = y;
    pinned_order = order;
    computation;
    env = Spec_env.add y Counter.spec env;
  }

let dynamic_refutation env h =
  let p = History.perm h in
  let acts = History.activities p in
  let bad_order =
    Orders.linear_extensions ~equal:Activity.equal (History.precedes h) acts
    |> Seq.find (fun order -> not (Serializability.in_order env p order))
  in
  Option.map (build env h) bad_order

let static_refutation env h =
  match History.timestamp_order h with
  | None -> None
  | Some order ->
    if Serializability.in_order env (History.perm h) order then None
    else Some (build env h order)

(* ------------------------------------------------------------------ *)
(* The permissiveness census *)

type census = {
  well_formed : int;
  atomic : int;
  dynamic : int;
  static : int;
  both : int;
  dynamic_only : int;
  static_only : int;
  unsound : int;
}

let census () =
  let xs = Object_id.v "s" in
  let env = Spec_env.of_list [ (xs, Intset.spec) ] in
  let ops =
    [
      (Intset.insert 1, [ Value.ok ]);
      (Intset.member 1, [ Value.Bool true; Value.Bool false ]);
      (Intset.delete 1, [ Value.ok ]);
    ]
  in
  let session name ts (op, candidates) =
    Enumerate.session ~initiate_ts:(Timestamp.v ts) (Activity.update name)
      [ Enumerate.step ~candidates xs op ]
  in
  (* (atomic, dynamic atomic, static atomic) of each well-formed history *)
  let classes =
    List.concat_map
      (fun (a, b, ta, tb) ->
        Enumerate.histories [ session "a" ta a; session "b" tb b ]
        |> Seq.filter (Wellformed.is_well_formed Wellformed.Static)
        |> Seq.map (fun h ->
               ( Atomicity.atomic env h,
                 Atomicity.dynamic_atomic env h,
                 Atomicity.static_atomic env h ))
        |> List.of_seq)
      (List.concat_map
         (fun a ->
           List.concat_map
             (fun b -> [ (a, b, 1, 2); (a, b, 2, 1) ])
             ops)
         ops)
  in
  let n p = List.length (List.filter (fun (a, d, s) -> p a d s) classes) in
  {
    well_formed = List.length classes;
    atomic = n (fun at _ _ -> at);
    dynamic = n (fun _ dy _ -> dy);
    static = n (fun _ _ st -> st);
    both = n (fun _ dy st -> dy && st);
    dynamic_only = n (fun _ dy st -> dy && not st);
    static_only = n (fun _ dy st -> st && not dy);
    unsound = n (fun at dy st -> (dy || st) && not at);
  }
