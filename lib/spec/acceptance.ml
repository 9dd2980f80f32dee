open Weihl_event

let object_accepts spec h =
  let events = History.to_list h in
  let rec go frontier pending = function
    | [] -> true
    | e :: rest -> (
      match (e : Event.t) with
      | Invoke (a, _, op) -> go frontier (Some (a, op)) rest
      | Respond (a, _, res) -> (
        match pending with
        | Some (a', op) when Activity.equal a a' -> (
          match Seq_spec.advance frontier op res with
          | None -> false
          | Some frontier' -> go frontier' None rest)
        | Some _ | None ->
          (* A response with no pending invocation: not well-formed,
             hence not acceptable. *)
          false)
      | Abort (a, _) ->
        if
          List.exists
            (fun e' ->
              Activity.equal (Event.activity e') a
              && (Event.is_invoke e' || Event.is_respond e'))
            events
        then
          invalid_arg
            "Acceptance.object_accepts: aborted activity with operation \
             events; check perm-projections instead"
        else go frontier pending rest
      | Commit _ | Initiate _ -> go frontier pending rest)
  in
  go (Seq_spec.start spec) None events

let accepts env h =
  List.for_all
    (fun x -> object_accepts (Spec_env.find_exn env x) (History.project_object x h))
    (History.objects h)
