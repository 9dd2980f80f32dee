(* The observability layer: metrics, JSON, Chrome-trace round-trips,
   contention aggregation, and end-to-end instrumentation of a
   simulator run. *)

open Core
module Json = Obs.Json
module Metrics = Obs.Metrics
module Probe = Obs.Probe
module Trace = Obs.Trace

let check_f = Alcotest.(check (float 1e-9))
let check_i = Alcotest.(check int)
let to_alcotest = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  check_i "counter" 5 (Metrics.Counter.value c);
  let g = Metrics.Gauge.create () in
  Metrics.Gauge.set g 3.;
  Metrics.Gauge.add g 2.;
  Metrics.Gauge.set g 1.;
  check_f "gauge value" 1. (Metrics.Gauge.value g);
  check_f "gauge max" 5. (Metrics.Gauge.max_value g)

let test_histogram_empty () =
  let h = Metrics.Histogram.create () in
  check_i "count" 0 (Metrics.Histogram.count h);
  check_f "mean" 0. (Metrics.Histogram.mean h);
  check_f "min" 0. (Metrics.Histogram.min_value h);
  check_f "max" 0. (Metrics.Histogram.max_value h);
  check_f "p50" 0. (Metrics.Histogram.percentile h 50.)

let test_histogram_singleton () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.observe h 7.;
  check_i "count" 1 (Metrics.Histogram.count h);
  check_f "mean" 7. (Metrics.Histogram.mean h);
  (* Any percentile of one observation is that observation: the bucket
     estimate is clamped to the exact extremes. *)
  check_f "p0" 7. (Metrics.Histogram.percentile h 0.);
  check_f "p50" 7. (Metrics.Histogram.percentile h 50.);
  check_f "p100" 7. (Metrics.Histogram.percentile h 100.)

let test_histogram_exact_and_bounds () =
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe h) [ 1.; 2.; 3.; 4.; 5. ];
  check_i "count" 5 (Metrics.Histogram.count h);
  check_f "sum" 15. (Metrics.Histogram.sum h);
  check_f "mean" 3. (Metrics.Histogram.mean h);
  check_f "min" 1. (Metrics.Histogram.min_value h);
  check_f "max" 5. (Metrics.Histogram.max_value h);
  check_f "p0 clamps to min" 1. (Metrics.Histogram.percentile h 0.);
  check_f "p100 clamps to max" 5. (Metrics.Histogram.percentile h 100.);
  let p50 = Metrics.Histogram.percentile h 50. in
  Alcotest.(check bool) "p50 within range" true (p50 >= 1. && p50 <= 5.);
  (* The total of the bucket counts is the observation count. *)
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Metrics.Histogram.buckets h)
  in
  check_i "buckets cover everything" 5 total;
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Histogram.create: bounds must be strictly increasing")
    (fun () ->
      ignore (Metrics.Histogram.create ~buckets:[| 1.; 1. |] ()))

let test_registry () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Registry.counter reg "a.count" in
  Metrics.Counter.incr c;
  (* Same name yields the same instrument. *)
  Metrics.Counter.incr (Metrics.Registry.counter reg "a.count");
  check_i "shared counter" 2
    (Metrics.Counter.value (Metrics.Registry.counter reg "a.count"));
  Metrics.Gauge.set (Metrics.Registry.gauge reg "b.gauge") 2.5;
  Metrics.Histogram.observe (Metrics.Registry.histogram reg "c.hist") 3.;
  (* Asking for a registered name as a different kind is an error. *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "a.count is registered as a different instrument")
    (fun () -> ignore (Metrics.Registry.gauge reg "a.count"));
  let text = Metrics.Registry.render_text reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (needle ^ " rendered") true
        (contains text needle))
    [ "a.count"; "b.gauge"; "c.hist" ];
  (* The JSON snapshot parses back and carries the counter value. *)
  match Json.of_string (Metrics.Registry.render_json reg) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    (match Json.member "a.count" j with
    | Some v -> check_f "json counter" 2. (Option.get (Json.to_float v))
    | None -> Alcotest.fail "a.count missing from JSON")

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith \\ and \x07 control");
        ("n", Json.Num 1.5);
        ("i", Json.Num 42.);
        ("neg", Json.Num (-0.125));
        ("b", Json.Bool true);
        ("null", Json.Null);
        ("l", Json.List [ Json.Num 1.; Json.Bool false; Json.Str "" ]);
        ("empty_obj", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.fail e
  | Ok v' -> Alcotest.(check bool) "round-trip" true (Json.equal v v')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* ------------------------------------------------------------------ *)
(* Trace assembly and round-trip                                       *)
(* ------------------------------------------------------------------ *)

(* A hand-scripted event sequence: t0 begins, is granted an op, t1
   begins, waits for t0, t0 commits, t1 is granted and commits. *)
let scripted_trace () =
  let tr = Trace.create () in
  let sink = Trace.sink tr in
  let emit time ev = sink.Probe.emit ~time ev in
  emit 0. (Probe.Txn_begin { txn = 0; name = "u0"; read_only = false });
  emit 0.
    (Probe.Op_invoke { txn = 0; obj = "x"; op = "withdraw"; depth = 0 });
  emit 1. (Probe.Op_grant { txn = 0; obj = "x"; op = "withdraw" });
  emit 1. (Probe.Txn_begin { txn = 1; name = "u1"; read_only = false });
  emit 1.
    (Probe.Op_invoke { txn = 1; obj = "x"; op = "withdraw"; depth = 1 });
  emit 1.
    (Probe.Op_wait { txn = 1; obj = "x"; op = "withdraw"; blockers = [ 0 ] });
  emit 2. (Probe.Txn_commit { txn = 0 });
  emit 3. (Probe.Op_grant { txn = 1; obj = "x"; op = "withdraw" });
  emit 4. (Probe.Txn_commit { txn = 1 });
  tr

let test_trace_assembly () =
  let tr = scripted_trace () in
  let evs = Trace.events tr in
  let count ph = List.length (List.filter (fun e -> e.Trace.ph = ph) evs) in
  check_i "two txn begins" 2 (count Trace.B);
  check_i "two txn ends" 2 (count Trace.E);
  (* Three X spans: two granted ops and one wait interval. *)
  check_i "complete spans" 3 (count Trace.X);
  let waits = List.filter (fun e -> e.Trace.cat = "wait") evs in
  check_i "one wait interval" 1 (List.length waits);
  let w = List.hd waits in
  check_f "wait starts at block" 1. w.Trace.ts;
  check_f "wait lasts until grant" 2. (Option.get w.Trace.dur);
  (* The granted op's span runs first-invoke to grant. *)
  let op1 =
    List.find
      (fun e -> e.Trace.ph = Trace.X && e.Trace.cat = "op" && e.Trace.tid = 1)
      evs
  in
  check_f "op span start" 1. op1.Trace.ts;
  check_f "op span duration" 2. (Option.get op1.Trace.dur)

let test_trace_roundtrip () =
  let tr = scripted_trace () in
  let exported = Trace.export tr in
  match Trace.parse exported with
  | Error e -> Alcotest.fail e
  | Ok evs ->
    let originals = Trace.events tr in
    check_i "same event count" (List.length originals) (List.length evs);
    List.iter2
      (fun a b ->
        Alcotest.(check string) "name" a.Trace.name b.Trace.name;
        Alcotest.(check bool) "phase" true (a.Trace.ph = b.Trace.ph);
        check_f "ts" a.Trace.ts b.Trace.ts;
        check_i "pid" a.Trace.pid b.Trace.pid;
        check_i "tid" a.Trace.tid b.Trace.tid;
        Alcotest.(check (option (float 1e-9))) "dur" a.Trace.dur b.Trace.dur)
      originals evs

let test_trace_parse_rejects () =
  (* Not an array, and an event missing required fields. *)
  (match Trace.parse "{}" with
  | Ok _ -> Alcotest.fail "accepted an object"
  | Error _ -> ());
  match Trace.parse "[{\"name\":\"x\",\"ph\":\"B\"}]" with
  | Ok _ -> Alcotest.fail "accepted an event without ts/pid/tid"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Contention aggregation                                              *)
(* ------------------------------------------------------------------ *)

let test_contention () =
  let ct = Obs.Contention.create () in
  let sink = Obs.Contention.sink ct in
  let emit time ev = sink.Probe.emit ~time ev in
  emit 0. (Probe.Txn_begin { txn = 0; name = "u0"; read_only = false });
  emit 0. (Probe.Op_invoke { txn = 0; obj = "x"; op = "w"; depth = 0 });
  emit 0. (Probe.Op_grant { txn = 0; obj = "x"; op = "w" });
  emit 1. (Probe.Txn_begin { txn = 1; name = "u1"; read_only = false });
  emit 1. (Probe.Op_invoke { txn = 1; obj = "x"; op = "w"; depth = 1 });
  emit 1. (Probe.Op_wait { txn = 1; obj = "x"; op = "w"; blockers = [ 0 ] });
  emit 4. (Probe.Txn_commit { txn = 0 });
  emit 4. (Probe.Op_grant { txn = 1; obj = "x"; op = "w" });
  emit 5. (Probe.Deadlock_victim { victim = 1; cycle = [ 1 ] });
  check_i "waits on x" 1 (Obs.Contention.wait_count ct "x");
  check_i "deadlocks" 1 (Obs.Contention.deadlocks ct);
  (match Obs.Contention.per_object ct with
  | [ (name, s) ] ->
    Alcotest.(check string) "object" "x" name;
    check_i "invokes" 2 s.Obs.Contention.invokes;
    check_i "grants" 2 s.Obs.Contention.grants;
    check_i "waits" 1 s.Obs.Contention.waits;
    check_i "max depth" 1 s.Obs.Contention.max_depth;
    (* t1 blocked from 1 to 4. *)
    check_f "wait time" 3.
      (Metrics.Histogram.mean s.Obs.Contention.wait_time);
    (* t0 held x from 0 to 4. *)
    check_f "hold time" 4.
      (Metrics.Histogram.mean s.Obs.Contention.hold_time)
  | l -> Alcotest.failf "expected one object, got %d" (List.length l));
  let report = Obs.Contention.report ct in
  Alcotest.(check bool)
    "report mentions x" true
    (contains report "x")

(* ------------------------------------------------------------------ *)
(* End to end: an instrumented simulator run                           *)
(* ------------------------------------------------------------------ *)

let test_instrumented_sim () =
  (* The acceptance scenario: escrow protocol, hot-spot workload. *)
  let sys = System.create () in
  let w = Workload.hot_withdrawals () in
  List.iter
    (fun id -> System.add_object sys (Escrow_account.make (System.log sys) id))
    w.Workload.objects;
  let config =
    { Driver.default_config with clients = 8; duration = 500; seed = 11 }
  in
  let r = Obs.Recorder.create () in
  let o = Driver.run ~config ~probe:(Obs.Recorder.sink r) sys w in
  Alcotest.(check bool) "some commits" true (o.Driver.committed > 0);
  Alcotest.(check bool) "some waits" true (o.Driver.waits > 0);
  (* The probe is removed when the run ends. *)
  Alcotest.(check bool)
    "probe cleared" false
    (System.probe_installed sys);
  (* Registry counters agree with the driver's own accounting. *)
  let cval name =
    Metrics.Counter.value (Metrics.Registry.counter r.Obs.Recorder.registry name)
  in
  check_i "txn.commit" o.Driver.committed (cval "txn.commit");
  check_i "txn.abort"
    (o.Driver.aborted_deadlock + o.Driver.aborted_refused)
    (cval "txn.abort");
  check_i "op.wait" o.Driver.waits (cval "op.wait");
  check_i "deadlock victims" o.Driver.aborted_deadlock
    (cval "deadlock.victims");
  (* Per-object wait counts show up in the contention report. *)
  check_i "hot-spot waits" o.Driver.waits
    (Obs.Contention.wait_count r.Obs.Recorder.contention "hot");
  (* Latencies land in the histograms that the outcome now carries. *)
  check_i "latency histogram count" o.Driver.committed
    (Metrics.Histogram.count o.Driver.update_latencies
    + Metrics.Histogram.count o.Driver.read_only_latencies);
  (* The exported trace is a valid Chrome-trace array: every event
     carries name/ph/ts/pid/tid, and it contains begin/commit spans
     and wait intervals. *)
  match Trace.parse (Obs.Recorder.export_trace r) with
  | Error e -> Alcotest.fail e
  | Ok evs ->
    let count p = List.length (List.filter p evs) in
    Alcotest.(check bool)
      "txn begin spans" true
      (count (fun e -> e.Trace.ph = Trace.B && e.Trace.cat = "txn") > 0);
    Alcotest.(check bool)
      "txn end spans" true
      (count (fun e -> e.Trace.ph = Trace.E && e.Trace.cat = "txn") > 0);
    Alcotest.(check bool)
      "wait intervals" true
      (count (fun e -> e.Trace.ph = Trace.X && e.Trace.cat = "wait") > 0);
    Alcotest.(check bool)
      "gauge counters" true
      (count (fun e -> e.Trace.ph = Trace.C) > 0)

(* With no probe installed, a run leaves no residue and produces the
   same outcome as before instrumentation existed. *)
let test_uninstrumented_run_is_deterministic () =
  let run () =
    let sys = System.create () in
    let w = Workload.hot_withdrawals () in
    List.iter
      (fun id ->
        System.add_object sys (Escrow_account.make (System.log sys) id))
      w.Workload.objects;
    Driver.run
      ~config:{ Driver.default_config with clients = 4; duration = 300 }
      sys w
  in
  let a = run () and b = run () in
  check_i "same commits" a.Driver.committed b.Driver.committed;
  check_i "same waits" a.Driver.waits b.Driver.waits

(* ------------------------------------------------------------------ *)
(* Two-phase commit metrics                                            *)
(* ------------------------------------------------------------------ *)

let test_tpc_metrics () =
  let reg = Metrics.Registry.create () in
  let o = Tpc.run ~metrics:reg Tpc.default_config in
  Alcotest.(check bool) "all committed" true
    (List.for_all
       (function Tpc.Committed _ -> true | _ -> false)
       o.Tpc.statuses);
  let cval name = Metrics.Counter.value (Metrics.Registry.counter reg name) in
  check_i "coordinator decided commit" 1 (cval "tpc.coord.decide.commit");
  for i = 0 to 2 do
    check_i
      (Fmt.str "site %d prepared" i)
      1
      (cval (Fmt.str "tpc.site%d.prepared" i));
    check_i
      (Fmt.str "site %d voted yes" i)
      1
      (cval (Fmt.str "tpc.site%d.vote.yes" i));
    check_i
      (Fmt.str "site %d committed" i)
      1
      (cval (Fmt.str "tpc.site%d.committed" i))
  done

(* ------------------------------------------------------------------ *)
(* Histogram merge                                                     *)
(* ------------------------------------------------------------------ *)

let test_histogram_merge_unit () =
  let h1 = Metrics.Histogram.create () and h2 = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe h1) [ 1.; 50.; 300. ];
  List.iter (Metrics.Histogram.observe h2) [ 2.; 7000. ];
  let m = Metrics.Histogram.merge h1 h2 in
  let u = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.observe u) [ 1.; 50.; 300.; 2.; 7000. ];
  check_i "count" (Metrics.Histogram.count u) (Metrics.Histogram.count m);
  check_f "sum" (Metrics.Histogram.sum u) (Metrics.Histogram.sum m);
  check_f "min" (Metrics.Histogram.min_value u) (Metrics.Histogram.min_value m);
  check_f "max" (Metrics.Histogram.max_value u) (Metrics.Histogram.max_value m);
  List.iter2
    (fun (ub, uc) (mb, mc) ->
      check_f "bucket bound" ub mb;
      check_i "bucket count" uc mc)
    (Metrics.Histogram.buckets u)
    (Metrics.Histogram.buckets m);
  (* Merging histograms over different bucket bounds is refused: the
     counts would not be comparable. *)
  Alcotest.check_raises "mismatched bounds"
    (Invalid_argument "Histogram.merge: bucket bounds differ") (fun () ->
      ignore
        (Metrics.Histogram.merge h1
           (Metrics.Histogram.create ~buckets:[| 1.; 2. |] ())))

(* Lossless aggregation: merging any split of the observations is the
   same histogram as observing them all in one. *)
let prop_histogram_merge_is_union =
  QCheck2.Test.make ~name:"histogram merge = observing the union" ~count:100
    QCheck2.Gen.(
      pair
        (small_list (float_bound_inclusive 10_000.))
        (small_list (float_bound_inclusive 10_000.)))
    (fun (xs, ys) ->
      let observe vs =
        let h = Metrics.Histogram.create () in
        List.iter (Metrics.Histogram.observe h) vs;
        h
      in
      let m = Metrics.Histogram.merge (observe xs) (observe ys) in
      let u = observe (xs @ ys) in
      let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs b) in
      if Metrics.Histogram.count m <> Metrics.Histogram.count u then
        QCheck2.Test.fail_report "counts differ"
      else if not (close (Metrics.Histogram.sum m) (Metrics.Histogram.sum u))
      then QCheck2.Test.fail_report "sums differ"
      else if
        not
          (close (Metrics.Histogram.min_value m) (Metrics.Histogram.min_value u)
          && close (Metrics.Histogram.max_value m)
               (Metrics.Histogram.max_value u))
      then QCheck2.Test.fail_report "extremes differ"
      else if
        not
          (List.for_all2
             (fun (_, a) (_, b) -> a = b)
             (Metrics.Histogram.buckets m)
             (Metrics.Histogram.buckets u))
      then QCheck2.Test.fail_report "bucket counts differ"
      else true)

(* ------------------------------------------------------------------ *)
(* Merged cross-shard traces: flow events through the importer         *)
(* ------------------------------------------------------------------ *)

(* A generator for merged cross-shard event lists: spans and instants
   scattered over several pids, plus s/f flow pairs stitching pid 0 to
   a shard timeline — the shape [Shard_trace.export] produces. *)
let gen_merged_trace =
  let open QCheck2.Gen in
  let ts = map float_of_int (int_range 0 10_000) in
  let name = oneofl [ "u1"; "u2"; "prepare"; "decide" ] in
  let plain =
    let* n = name and* pid = int_range 0 4 and* tid = int_range 0 9 in
    let* t = ts in
    let* shape = oneofl [ `B; `E; `X; `I ] in
    let ph, cat, dur, args =
      match shape with
      | `B -> (Trace.B, "txn", None, [ ("gid", Json.Num 7.) ])
      | `E -> (Trace.E, "txn", None, [ ("outcome", Json.Str "commit") ])
      | `X -> (Trace.X, "tpc.phase", Some 3., [ ("gid", Json.Num 7.) ])
      | `I -> (Trace.I, "commit", None, [])
    in
    return
      [ { Trace.name = n; cat; ph; ts = t; dur; pid; tid; id = None; args } ]
  in
  let flow =
    let* n = name and* id = int_range 0 999 and* dst = int_range 1 4 in
    let* t = ts in
    return
      [
        {
          Trace.name = n;
          cat = "msg";
          ph = Trace.S;
          ts = t;
          dur = None;
          pid = 0;
          tid = 0;
          id = Some id;
          args = [];
        };
        {
          Trace.name = n;
          cat = "msg";
          ph = Trace.F;
          ts = t +. 2.;
          dur = None;
          pid = dst;
          tid = 0;
          id = Some id;
          args = [];
        };
      ]
  in
  map List.concat (small_list (oneof [ plain; flow ]))

let prop_merged_trace_roundtrip =
  QCheck2.Test.make ~name:"merged cross-shard trace round-trips" ~count:100
    gen_merged_trace (fun evs ->
      match Trace.parse (Trace.export_events evs) with
      | Error e -> QCheck2.Test.fail_report e
      | Ok evs' ->
        if List.length evs <> List.length evs' then
          QCheck2.Test.fail_report "event count changed"
        else if
          not
            (List.for_all2
               (fun a b ->
                 a.Trace.name = b.Trace.name
                 && a.Trace.cat = b.Trace.cat
                 && a.Trace.ph = b.Trace.ph
                 && a.Trace.ts = b.Trace.ts
                 && a.Trace.dur = b.Trace.dur
                 && a.Trace.pid = b.Trace.pid
                 && a.Trace.tid = b.Trace.tid
                 && a.Trace.id = b.Trace.id
                 && Json.equal (Json.Obj a.Trace.args) (Json.Obj b.Trace.args))
               evs evs')
        then QCheck2.Test.fail_report "an event changed in transit"
        else true)

(* ------------------------------------------------------------------ *)
(* Critical-path analysis                                              *)
(* ------------------------------------------------------------------ *)

(* A hand-scripted merged trace: one cross-shard transaction, gid 7,
   spanning ticks 0-20 on the coordinator with a leg on shard 1.  The
   leg waits over [2,6) and [4,9), which overlap and count once, and
   over [18,24), of which only [18,20) lies inside the interval; a
   zero-width WAL sync adds nothing.  That attributes wait 9 and exec
   11. *)
let test_trace_analysis_breakdown () =
  let ev ?dur ?id ?(args = []) ~pid ~tid name cat ph ts =
    { Trace.name; cat; ph; ts; dur; pid; tid; id; args }
  in
  let gid = [ ("gid", Json.Num 7.) ] in
  let evs =
    [
      ev ~pid:0 ~tid:7 ~args:gid "u1" "txn" Trace.B 0.;
      ev ~pid:1 ~tid:3 ~args:gid "u1" "txn" Trace.B 0.;
      ev ~pid:1 ~tid:3 ~dur:4. "blocked" "wait" Trace.X 2.;
      ev ~pid:1 ~tid:3 ~dur:5. "blocked" "wait" Trace.X 4.;
      ev ~pid:1 ~tid:3 ~dur:0. "wal.sync" "wal" Trace.X 12.;
      ev ~pid:1 ~tid:3 ~dur:6. "blocked" "wait" Trace.X 18.;
      ev ~pid:1 ~tid:3 ~args:[ ("outcome", Json.Str "commit") ] "u1" "txn"
        Trace.E 18.;
      ev ~pid:0 ~tid:7 ~args:[ ("outcome", Json.Str "commit") ] "u1" "txn"
        Trace.E 20.;
    ]
  in
  let r = Obs.Trace_analysis.analyze evs in
  Alcotest.(check bool) "cross-shard" true r.Obs.Trace_analysis.cross_shard;
  check_i "one committed txn" 1 r.Obs.Trace_analysis.committed;
  match r.Obs.Trace_analysis.txns with
  | [ t ] ->
    check_f "total" 20. t.Obs.Trace_analysis.total;
    check_i "fanout" 1 t.Obs.Trace_analysis.fanout;
    let p = t.Obs.Trace_analysis.phases in
    check_f "wait" 9. p.Obs.Trace_analysis.wait;
    check_f "exec" 11. p.Obs.Trace_analysis.exec;
    (* The phases partition the transaction's interval exactly. *)
    check_f "phases sum to the total" t.Obs.Trace_analysis.total
      (Obs.Trace_analysis.breakdown_total p);
    let rendered = Obs.Trace_analysis.render r in
    Alcotest.(check bool)
      "render mentions the phase table" true (contains rendered "p99")
  | l -> Alcotest.failf "expected one transaction, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
    Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram: singleton" `Quick test_histogram_singleton;
    Alcotest.test_case "histogram: exact stats and bounds" `Quick
      test_histogram_exact_and_bounds;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "trace assembly" `Quick test_trace_assembly;
    Alcotest.test_case "trace round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace parse rejects" `Quick test_trace_parse_rejects;
    Alcotest.test_case "contention aggregation" `Quick test_contention;
    Alcotest.test_case "instrumented simulator run" `Quick
      test_instrumented_sim;
    Alcotest.test_case "uninstrumented run deterministic" `Quick
      test_uninstrumented_run_is_deterministic;
    Alcotest.test_case "tpc metrics" `Quick test_tpc_metrics;
    Alcotest.test_case "histogram merge: union of observations" `Quick
      test_histogram_merge_unit;
    to_alcotest prop_histogram_merge_is_union;
    to_alcotest prop_merged_trace_roundtrip;
    Alcotest.test_case "trace analysis: critical-path breakdown" `Quick
      test_trace_analysis_breakdown;
  ]
