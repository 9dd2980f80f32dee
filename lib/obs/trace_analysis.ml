type breakdown = { wait : float; exec : float }

let breakdown_total b = b.wait +. b.exec

type txn = {
  name : string;
  gid : int;
  t_begin : float;
  t_end : float;
  total : float;
  fanout : int;
  phases : breakdown;
}

type stats = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type report = {
  txns : txn list;
  committed : int;
  events : int;
  cross_shard : bool;
  phase_stats : (string * stats) list;
}

(* Interval arithmetic over [(start, stop)] float pairs.  [norm] sorts,
   drops empties and coalesces overlaps, so overlapping waits never
   double-count a tick. *)

let norm ivs =
  let ivs = List.filter (fun (a, b) -> b > a) ivs in
  match List.sort compare ivs with
  | [] -> []
  | hd :: tl ->
    let rec go (a, b) acc = function
      | [] -> List.rev ((a, b) :: acc)
      | (c, d) :: rest ->
        if c <= b then go (a, Float.max b d) acc rest
        else go (c, d) ((a, b) :: acc) rest
    in
    go hd [] tl

let clip ~lo ~hi ivs =
  List.filter_map
    (fun (a, b) ->
      let a = Float.max a lo and b = Float.min b hi in
      if b > a then Some (a, b) else None)
    ivs

let len ivs = List.fold_left (fun s (a, b) -> s +. (b -. a)) 0. ivs

let arg_int args k =
  match List.assoc_opt k args with
  | Some (Json.Num f) -> Some (int_of_float f)
  | _ -> None

let arg_str args k =
  match List.assoc_opt k args with Some (Json.Str s) -> Some s | _ -> None

(* A matched B/E transaction pair. *)
type pair = {
  p_name : string;
  p_pid : int;
  p_tid : int;
  p_gid : int;
  p_b : float;
  p_e : float;
  p_outcome : string;
}

let stats_of xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then { n = 0; mean = 0.; p50 = 0.; p95 = 0.; p99 = 0.; max = 0. }
  else
    let sum = Array.fold_left ( +. ) 0. arr in
    let pct p =
      (* nearest-rank on the sorted sample *)
      arr.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
    in
    {
      n;
      mean = sum /. float_of_int n;
      p50 = pct 0.5;
      p95 = pct 0.95;
      p99 = pct 0.99;
      max = arr.(n - 1);
    }

let analyze evs =
  let evs =
    List.stable_sort (fun (a : Trace.ev) (b : Trace.ev) -> compare a.ts b.ts) evs
  in
  let opens : (int * int, Trace.ev) Hashtbl.t = Hashtbl.create 64 in
  let pairs = ref [] in
  let waits : (int * int, (float * float) list) Hashtbl.t = Hashtbl.create 64 in
  let push tbl k iv =
    Hashtbl.replace tbl k
      (iv :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (e : Trace.ev) ->
      match (e.ph, e.cat) with
      | Trace.B, "txn" -> Hashtbl.replace opens (e.pid, e.tid) e
      | Trace.E, "txn" -> (
        match Hashtbl.find_opt opens (e.pid, e.tid) with
        | None -> ()
        | Some b ->
          Hashtbl.remove opens (e.pid, e.tid);
          pairs :=
            {
              p_name = b.name;
              p_pid = e.pid;
              p_tid = e.tid;
              p_gid = Option.value ~default:e.tid (arg_int b.args "gid");
              p_b = b.ts;
              p_e = e.ts;
              p_outcome = Option.value ~default:"" (arg_str e.args "outcome");
            }
            :: !pairs)
      | Trace.X, "wait" ->
        let d = Option.value ~default:0. e.dur in
        push waits (e.pid, e.tid) (e.ts, e.ts +. d)
      | _ -> ())
    evs;
  let pairs = List.rev !pairs in
  let cross_shard = List.exists (fun p -> p.p_pid = 0) pairs in
  (* In a merged trace each shard leg carries the same span name as its
     coordinator transaction, so legs group by name. *)
  let legs_by_name = Hashtbl.create 64 in
  if cross_shard then
    List.iter
      (fun p -> if p.p_pid > 0 then push legs_by_name p.p_name (p.p_pid, p.p_tid))
      pairs;
  let roots =
    List.filter
      (fun p -> p.p_outcome = "commit" && ((not cross_shard) || p.p_pid = 0))
      pairs
  in
  let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let txns =
    List.map
      (fun p ->
        let legs =
          if cross_shard then get legs_by_name p.p_name
          else [ (p.p_pid, p.p_tid) ]
        in
        let lo = p.p_b and hi = p.p_e in
        let wait_ivs =
          norm
            (clip ~lo ~hi
               (List.concat_map (fun l -> get waits l)
                  ((p.p_pid, p.p_tid) :: legs)))
        in
        let total = hi -. lo in
        let w = len wait_ivs in
        {
          name = p.p_name;
          gid = p.p_gid;
          t_begin = lo;
          t_end = hi;
          total;
          fanout = max 1 (List.length legs);
          phases = { wait = w; exec = Float.max 0. (total -. w) };
        })
      roots
  in
  let phase_stats =
    [
      ("wait", stats_of (List.map (fun t -> t.phases.wait) txns));
      ("exec", stats_of (List.map (fun t -> t.phases.exec) txns));
      ("total", stats_of (List.map (fun t -> t.total) txns));
    ]
  in
  {
    txns;
    committed = List.length txns;
    events = List.length evs;
    cross_shard;
    phase_stats;
  }

let top_slowest r k =
  let sorted =
    List.sort (fun a b -> compare (b.total, b.gid) (a.total, a.gid)) r.txns
  in
  List.filteri (fun i _ -> i < k) sorted

let pct_of part total = if total <= 0. then 0. else 100. *. part /. total

let render ?(top = 5) r =
  let buf = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  pf "trace analysis: %d events, %d committed transactions%s\n" r.events
    r.committed
    (if r.cross_shard then " (cross-shard)" else "");
  pf "%-8s %8s %8s %8s %8s %8s\n" "phase" "mean" "p50" "p95" "p99" "max";
  List.iter
    (fun (name, s) ->
      pf "%-8s %8.1f %8.1f %8.1f %8.1f %8.1f\n" name s.mean s.p50 s.p95 s.p99
        s.max)
    r.phase_stats;
  let slow = top_slowest r top in
  if slow <> [] then begin
    pf "slowest transactions:\n";
    List.iter
      (fun t ->
        pf
          "  %-12s gid %-4d fanout %d  total %6.1f | wait %.1f (%.0f%%)  exec \
           %.1f (%.0f%%)\n"
          t.name t.gid t.fanout t.total t.phases.wait
          (pct_of t.phases.wait t.total)
          t.phases.exec
          (pct_of t.phases.exec t.total))
      slow
  end;
  Buffer.contents buf

let stats_to_json s =
  Json.Obj
    [
      ("n", Json.Num (float_of_int s.n));
      ("mean", Json.Num s.mean);
      ("p50", Json.Num s.p50);
      ("p95", Json.Num s.p95);
      ("p99", Json.Num s.p99);
      ("max", Json.Num s.max);
    ]

let txn_to_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("gid", Json.Num (float_of_int t.gid));
      ("begin", Json.Num t.t_begin);
      ("end", Json.Num t.t_end);
      ("total", Json.Num t.total);
      ("fanout", Json.Num (float_of_int t.fanout));
      ("wait", Json.Num t.phases.wait);
      ("exec", Json.Num t.phases.exec);
    ]

let to_json ?(top = 5) r =
  Json.Obj
    [
      ("events", Json.Num (float_of_int r.events));
      ("committed", Json.Num (float_of_int r.committed));
      ("cross_shard", Json.Bool r.cross_shard);
      ( "phases",
        Json.Obj (List.map (fun (k, s) -> (k, stats_to_json s)) r.phase_stats)
      );
      ("slowest", Json.List (List.map txn_to_json (top_slowest r top)));
    ]
