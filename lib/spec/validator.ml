open Weihl_event

type t = {
  env : Spec_env.t;
  mode : Wellformed.mode;
  max_activities : int;
  mutable events : Event.t list; (* newest first *)
}

type verdicts = {
  well_formed : bool;
  atomic : bool option;
  dynamic_atomic : bool option;
  static_atomic : bool option;
  hybrid_atomic : bool option;
}

let create ?(mode = Wellformed.Base) ?(max_activities = 6) env =
  { env; mode; max_activities; events = [] }

let feed t e = t.events <- e :: t.events
let feed_history t h = List.iter (feed t) (History.to_list h)
let history t = History.of_list (List.rev t.events)

let verdicts t =
  let h = history t in
  let well_formed = Wellformed.is_well_formed t.mode h in
  let committed = Activity.Set.cardinal (History.committed h) in
  if committed > t.max_activities then
    {
      well_formed;
      atomic = None;
      dynamic_atomic = None;
      static_atomic = None;
      hybrid_atomic = None;
    }
  else
    let timestamped = Option.is_some (History.timestamp_order h) in
    {
      well_formed;
      atomic = Some (Atomicity.atomic t.env h);
      dynamic_atomic = Some (Atomicity.dynamic_atomic t.env h);
      static_atomic =
        (if timestamped then Some (Atomicity.static_atomic t.env h) else None);
      hybrid_atomic =
        (if timestamped then Some (Atomicity.hybrid_atomic t.env h) else None);
    }
