(* The repository benchmark: one workload per process, timed from
   outside with a monotonic clock.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--json FILE] [--jobs N] [--repeat K]

   A run repeats the workload's fixed work (set-up, load, closing phase,
   checks) until [--seconds] have been spent, at least once, and
   reports medians over the repetitions.  [--trace 0] prints the
   end-to-end metrics; [--trace 1] pairs every untraced repetition with
   a traced one over the same inputs and prints the per-layer metrics.
   The last line of standard output is one JSON object; the exit code is
   1 when a correctness check fails.  See README.md. *)

module J = Weihl_obs.Json

let e2e_metrics =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
    ("retained_mb", "MB");
  ]

let layer_metrics =
  List.concat_map
    (fun k ->
      let l = Spans.name k in
      [
        (l ^ ".calls", "count");
        (l ^ ".ms", "ms");
        (l ^ ".p50_us", "us");
        (l ^ ".p99_us", "us");
        (l ^ ".share", "frac");
      ])
    Spans.layers

let counter_units =
  [
    ("grant.invocations_per_commit", "1/commit");
    ("grant.granted_frac", "frac");
    ("grant.waits_per_commit", "1/commit");
    ("txn.restarts_per_commit", "1/commit");
    ("txn.aborts_deadlock", "count");
    ("txn.aborts_starved", "count");
    ("txn.aborts_refused", "count");
    ("txn.gave_up", "count");
    ("txn.multi_shard_frac", "frac");
    ("txn.committed", "count");
    ("recovery.records_replayed", "records");
    ("recovery.from_checkpoint", "shards");
    ("tier.read_waited_frac", "frac");
    ("tier.read_bounced_frac", "frac");
    ("tier.segments_per_commit", "1/commit");
    ("tier.resyncs", "count");
    ("driver.rounds", "count");
    ("driver.waves", "count");
    ("wal.syncs_per_commit", "1/commit");
    ("wal.appends_per_commit", "txn/commit");
    ("group_commit.batch_mean", "txn/sync");
    ("ckpt.count", "count");
    ("ckpt.per_1k_commits", "1/1k-commits");
    ("exec.mailbox_max_depth", "jobs");
    ("gc.minor_words_per_commit", "words/commit");
    ("gc.promoted_words_per_commit", "words/commit");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("driver.self.share", "frac");
    ("trace.overhead_frac", "frac");
  ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sorted_concat arrays =
  let a = Array.concat arrays in
  Array.sort compare a;
  a

(* Python's statistics.quantiles(xs, n=4), the default exclusive method. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let ms ns = float_of_int ns /. 1e6
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Metrics of a run *)

(* The workload's unit of work: a snapshot read on replica-read, an
   acknowledged update transaction elsewhere. *)
let op_latencies w (r : Load.result) =
  match w with
  | Load.Replica_read -> r.Load.read_lat
  | Load.Transfer | Load.Hotspot | Load.Replica_write -> r.Load.commit_lat

let end_to_end w (reps : Load.result list) =
  let per_rep f = median_f (List.map f reps) in
  let lat = sorted_concat (List.map (op_latencies w) reps) in
  let setups = sorted_concat (List.map (fun r -> r.Load.setup_ns) reps) in
  [
    ("setup_s", float_of_int (percentile setups 0.50) /. 1e9);
    ( "ops_per_s",
      per_rep (fun r ->
          float_of_int (Array.length (op_latencies w r))
          /. (float_of_int r.Load.load_ns /. 1e9)) );
    ("op_p50_ms", ms (percentile lat 0.50));
    ("op_p99_ms", ms (percentile lat 0.99));
    ("retained_mb", per_rep (fun r -> mb r.Load.retained_words));
  ]

let per_layer ~plain ~traced =
  let durations =
    List.map (fun r -> Spans.durations (Option.get r.Load.spans)) traced
  in
  let wall = List.fold_left (fun a r -> a + r.Load.wall_ns) 0 traced in
  let layer_ns = ref 0 in
  let layers =
    List.concat_map
      (fun k ->
        let per_rep = List.map (fun ds -> ds.(Spans.index k)) durations in
        let d = sorted_concat per_rep in
        let total = Array.fold_left ( + ) 0 d in
        layer_ns := !layer_ns + total;
        let l = Spans.name k in
        [
          (l ^ ".calls", float_of_int (Array.length (List.hd per_rep)));
          (l ^ ".ms", median_f (List.map (fun a -> ms (Array.fold_left ( + ) 0 a)) per_rep));
          (l ^ ".p50_us", float_of_int (percentile d 0.50) /. 1e3);
          (l ^ ".p99_us", float_of_int (percentile d 0.99) /. 1e3);
          (l ^ ".share", float_of_int total /. float_of_int wall);
        ])
      Spans.layers
  in
  let first = List.hd traced in
  let per_commit f =
    median_f
      (List.map
         (fun r -> f r /. float_of_int (max 1 (Array.length r.Load.commit_lat)))
         plain)
  in
  layers @ first.Load.counters @ first.Load.metric_counters
  @ [
      ( "exec.mailbox_max_depth",
        float_of_int
          (List.fold_left (fun a r -> max a r.Load.mailbox_max) 0 (plain @ traced)) );
      ("gc.minor_words_per_commit", per_commit (fun r -> r.Load.minor_words));
      ("gc.promoted_words_per_commit", per_commit (fun r -> r.Load.promoted_words));
      ( "gc.major_collections",
        median_f (List.map (fun r -> float_of_int r.Load.major_collections) plain) );
      ("gc.top_heap_mb", mb (List.hd plain).Load.top_heap_words);
      ("driver.self.share", float_of_int (wall - !layer_ns) /. float_of_int wall);
      ( "trace.overhead_frac",
        median_f
          (List.map2
             (fun p t -> (float_of_int t.Load.load_ns /. float_of_int p.Load.load_ns) -. 1.)
             plain traced) );
    ]

(* A traced repetition replays its untraced partner's inputs, so the
   two must report the same counters: tracing must not perturb the load,
   and outcomes must not depend on how shard work interleaves. *)
let determinism_failure pairs =
  List.find_map
    (fun ((plain : Load.result), (traced : Load.result)) ->
      List.find_map
        (fun ((name, v), (_, v')) ->
          if Float.equal v v' then None
          else Some (Fmt.str "%s differs between traced and untraced runs: %g vs %g" name v v'))
        (List.combine plain.Load.counters traced.Load.counters))
    pairs

(* ------------------------------------------------------------------ *)
(* One run *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  json : string option;
  jobs : int option;
  repeat : int;
}

let usage =
  "usage: main.exe --workload transfer|hotspot|replica-read|replica-write [--seed N] \
   [--seconds S] [--trace 0|1] [--trace-out FILE] [--json FILE] [--jobs N] [--repeat K]"

let die msg =
  prerr_endline msg;
  exit 2

let parse argv =
  let int_of k v = match int_of_string_opt v with Some n -> n | None -> die (k ^ ": not an integer") in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of "--seed" v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s -> go { o with seconds = s } rest
      | None -> die "--seconds: not a number")
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace-out" :: v :: rest -> go { o with trace = true; trace_out = Some v } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--jobs" :: v :: rest -> go { o with jobs = Some (int_of "--jobs" v) } rest
    | "--repeat" :: v :: rest -> go { o with repeat = int_of "--repeat" v } rest
    | arg :: _ -> die (Fmt.str "unexpected argument %S\n%s" arg usage)
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 0.;
      trace = false;
      trace_out = None;
      json = None;
      jobs = None;
      repeat = 0;
    }
    argv

let result_json ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit_, v) -> (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit_) ]))
             metrics) );
    ]

let run_one o w =
  let cfg = Load.config w in
  let cfg = match o.jobs with Some jobs -> { cfg with Load.jobs } | None -> cfg in
  if cfg.Load.jobs <= 0 then die "--jobs must be positive";
  let budget = o.seconds *. 1e9 in
  let t_begin = Spans.now () in
  let rep ~seed ~traced =
    let r = Load.run cfg ~seed ~traced in
    Fmt.pr "repetition (%s): set-up %.4f s, load %.4f s, %d commits, %d reads@."
      (if traced then "traced" else "untraced")
      (float_of_int r.Load.setup_ns.(0) /. 1e9)
      (float_of_int r.Load.load_ns /. 1e9)
      (Array.length r.Load.commit_lat) (Array.length r.Load.read_lat);
    r
  in
  (* Repetition i draws its inputs from seed (seed, i): the median then
     averages over several input sets instead of measuring one. *)
  let rec loop i plain traced =
    let t0 = Spans.now () in
    let seed = (o.seed * 65536) + i in
    Gc.compact ();
    let p = rep ~seed ~traced:false in
    let plain = p :: plain in
    let traced = if o.trace then (p, rep ~seed ~traced:true) :: traced else traced in
    let now = Spans.now () in
    if float_of_int (now - t_begin + (now - t0)) <= budget then loop (i + 1) plain traced
    else (List.rev plain, List.rev traced)
  in
  let plain, pairs = loop 0 [] [] in
  let traced = List.map snd pairs in
  let reps = plain @ traced in
  let failures =
    List.filter_map (fun r -> r.Load.failure) reps @ Option.to_list (determinism_failure pairs)
  in
  List.iter (fun f -> Fmt.epr "CHECK FAILED: %s@." f) failures;
  let metrics, units =
    if o.trace then (per_layer ~plain ~traced, layer_metrics @ counter_units)
    else (end_to_end w plain, e2e_metrics)
  in
  let metrics = List.map (fun (name, u) -> (name, u, List.assoc name metrics)) units in
  let first = List.hd plain in
  Fmt.pr "workload %s  seed %d  repetitions %d (%d traced)@." o.workload o.seed
    (List.length reps) (List.length traced);
  List.iter
    (fun (name, u, v) ->
      Fmt.pr "%-34s %14.4f %s" name v u;
      if name = "op_p99_ms" then
        Fmt.pr "   (commits %d, waves %.0f, reads %d per repetition)"
          (Array.length first.Load.commit_lat)
          (List.assoc "driver.waves" first.Load.counters)
          (Array.length first.Load.read_lat);
      Fmt.pr "@.")
    metrics;
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  let correct = failures = [] in
  let json =
    J.to_string
      (result_json ~correct ~attempted:(sum (fun r -> r.Load.attempted))
         ~failed:(sum (fun r -> r.Load.failed)) metrics)
  in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (json ^ "\n");
      close_out oc)
    o.json;
  Option.iter
    (fun file ->
      match List.rev traced with
      | { Load.spans = Some s; _ } :: _ -> Spans.write_chrome s file
      | _ -> ())
    o.trace_out;
  print_endline json;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* --repeat K: K child runs, then the median, quartiles and spread of
   every metric, flagging end-to-end metrics whose spread exceeds their
   bound in BENCHMARK.json. *)

let bounds () =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match J.of_string text with
  | Error e -> die ("BENCHMARK.json: " ^ e)
  | Ok j ->
    Option.value ~default:[] (Option.bind (J.member "end_to_end" j) J.to_list)
    |> List.filter_map (fun m ->
           match
             ( Option.bind (J.member "name" m) J.to_str,
               Option.bind (J.member "bound" m) J.to_float )
           with
           | Some n, Some b -> Some (n, b)
           | _ -> None)

(* The child command: this one without the flags that only the parent
   acts on. *)
let child_args argv =
  let rec go = function
    | [] -> []
    | ("--repeat" | "--json" | "--trace-out") :: _ :: rest -> go rest
    | a :: rest -> a :: go rest
  in
  go argv

let repeat o argv =
  let bounds = bounds () in
  let args = child_args argv in
  let runs =
    List.init o.repeat (fun i ->
        match Child.run Sys.executable_name args with
        | Unix.WEXITED 0, Ok j -> j
        | _ -> die (Fmt.str "run %d of %d failed" (i + 1) o.repeat))
  in
  let metrics j = match J.member "metrics" j with Some (J.Obj m) -> m | _ -> [] in
  let value name j =
    Option.bind (List.assoc_opt name (metrics j)) (fun m ->
        Option.bind (J.member "value" m) J.to_float)
  in
  Fmt.pr "workload %s  seed %d  %d runs@." o.workload o.seed o.repeat;
  Fmt.pr "%-34s %14s %14s %14s %8s@." "metric" "median" "q1" "q3" "spread";
  let flagged = ref 0 in
  List.iter
    (fun (name, _) ->
      let xs = List.filter_map (value name) runs in
      let q1, med, q3 = quartiles xs in
      let spread = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
      let flag =
        match List.assoc_opt name bounds with
        | Some b when spread > b ->
          incr flagged;
          Fmt.str "  SPREAD > BOUND %g" b
        | _ -> ""
      in
      Fmt.pr "%-34s %14.4f %14.4f %14.4f %8.4f%s@." name med q1 q3 spread flag)
    (metrics (List.hd runs));
  if !flagged > 0 then Fmt.pr "%d end-to-end metric(s) spread wider than their bound@." !flagged

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let o = parse argv in
  let w =
    match List.assoc_opt o.workload Load.workloads with
    | Some w -> w
    | None -> die usage
  in
  if o.repeat > 0 then repeat o argv else run_one o w
