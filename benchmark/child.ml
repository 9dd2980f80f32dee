(* Run a benchmark process to completion: its exit status and the JSON
   object on the last line of its standard output. *)
let run prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Weihl_obs.Json.of_string !last)
