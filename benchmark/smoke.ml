(* Smoke test of the benchmark, run by [dune runtest]:

     smoke.exe MAIN_EXE BENCHMARK_JSON

   Runs every workload BENCHMARK.json lists at a tiny size on seeds 1
   and 2, untraced and traced, and asserts that each run exits 0 with
   its checks passed, prints every metric BENCHMARK.json lists for its
   mode with the listed unit, that the layer shares plus driver.self sum
   to 1 within 0.01, and that the Chrome trace parses. *)

module J = Weihl_obs.Json

let tiny_jobs = "24"
let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr errors;
      prerr_endline ("smoke: " ^ m))
    fmt

let field conv name j = Option.bind (J.member name j) conv

let check_run main spec ~workload ~seed ~traced =
  let what = Printf.sprintf "%s seed %d trace %b" workload seed traced in
  let trace_file = Printf.sprintf "smoke-%s-%d.trace.json" workload seed in
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--jobs"; tiny_jobs ]
    @ if traced then [ "--trace-out"; trace_file ] else [ "--trace"; "0" ]
  in
  match Child.run main args with
  | Unix.WEXITED 0, Ok j ->
    if J.member "correct" j <> Some (J.Bool true) then fail "%s: checks failed" what;
    let metrics = Option.value ~default:J.Null (J.member "metrics" j) in
    let listed = if traced then "per_layer" else "end_to_end" in
    List.iter
      (fun m ->
        let name = Option.value ~default:"?" (field J.to_str "name" m) in
        match J.member name metrics with
        | None -> fail "%s: metric %s missing" what name
        | Some got ->
          if field J.to_str "unit" got <> field J.to_str "unit" m then
            fail "%s: metric %s has the wrong unit" what name;
          if field J.to_float "value" got = None then
            fail "%s: metric %s has no value" what name)
      (Option.value ~default:[] (field J.to_list listed spec));
    if traced then begin
      let shares =
        match metrics with
        | J.Obj fields ->
          List.fold_left
            (fun acc (name, m) ->
              let n = String.length name in
              if n > 6 && String.sub name (n - 6) 6 = ".share" then
                acc +. Option.value ~default:0. (field J.to_float "value" m)
              else acc)
            0. fields
        | _ -> 0.
      in
      if Float.abs (shares -. 1.) > 0.01 then
        fail "%s: layer shares plus driver.self sum to %g" what shares;
      (match Weihl_obs.Trace.parse (In_channel.with_open_bin trace_file In_channel.input_all) with
      | Ok (_ :: _) -> ()
      | Ok [] -> fail "%s: empty trace" what
      | Error e -> fail "%s: trace does not parse: %s" what e);
      Sys.remove trace_file
    end
  | Unix.WEXITED 0, Error e -> fail "%s: last line is not JSON: %s" what e
  | _ -> fail "%s: exited non-zero" what

let () =
  let main =
    let m = Sys.argv.(1) in
    if Filename.is_implicit m then Filename.concat Filename.current_dir_name m else m
  in
  let spec =
    match J.of_string (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) with
    | Ok j -> j
    | Error e ->
      prerr_endline ("smoke: BENCHMARK.json: " ^ e);
      exit 1
  in
  let workloads =
    List.filter_map (field J.to_str "name")
      (Option.value ~default:[] (field J.to_list "workloads" spec))
  in
  if List.length workloads < 2 then fail "BENCHMARK.json lists no workloads";
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          List.iter (fun traced -> check_run main spec ~workload ~seed ~traced) [ false; true ])
        [ 1; 2 ])
    workloads;
  if !errors > 0 then exit 1
