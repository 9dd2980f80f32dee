module Recovery = Weihl_cc.Recovery

type verdict = Converged | Corruption_detected | Diverged of string

let of_recovery ~pristine = function
  | Recovery.Corrupt e ->
    if pristine then
      Diverged (Fmt.str "pristine log rejected: %a" Weihl_cc.Wal.pp_error e)
    else Corruption_detected
  | Recovery.Divergent msg -> Diverged msg
  | Recovery.Checkpoint_invalid msg ->
    Diverged (Fmt.str "checkpoint invalid: %s" msg)

type 'r summary = {
  schedules : int;
  converged : int;
  corruption_detected : int;
  divergences : 'r list;
  results : 'r list;
}

let run ~verdict ~plan schedule protocols seeds =
  let n = List.length protocols in
  let results =
    List.mapi
      (fun i seed -> schedule (plan ~seed) (List.nth protocols (i mod n)))
      seeds
  in
  let count v = List.length (List.filter (fun r -> verdict r = v) results) in
  {
    schedules = List.length results;
    converged = count Converged;
    corruption_detected = count Corruption_detected;
    divergences =
      List.filter
        (fun r -> match verdict r with Diverged _ -> true | _ -> false)
        results;
    results;
  }

let pp_verdict ppf = function
  | Converged -> Fmt.string ppf "converged"
  | Corruption_detected -> Fmt.string ppf "corruption detected"
  | Diverged msg -> Fmt.pf ppf "DIVERGED: %s" msg

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>schedules: %d@,converged: %d@,corruption detected: %d@,diverged: %d@]"
    s.schedules s.converged s.corruption_detected (List.length s.divergences)
