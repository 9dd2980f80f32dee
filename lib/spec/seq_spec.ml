open Weihl_event

module type S = sig
  type state

  val type_name : string
  val initial : state
  val step : state -> Operation.t -> (state * Value.t) list
  val equal_state : state -> state -> bool
  val pp_state : Format.formatter -> state -> unit
  val rebuild : state -> Operation.t list
end

type t = (module S)

let type_name (module S : S) = S.type_name

(* The [Type.Id.t] is minted per [start] call and carried through every
   [advance]/[outcomes]: it both witnesses the state type (so
   [equal_frontier] can compare the existentially typed state lists)
   and scopes equality to one lineage — frontiers descending from
   different [start]s are never considered equal, which is the
   conservative answer memoizers need. *)
type frontier =
  | Frontier :
      (module S with type state = 's) * 's Type.Id.t * 's list
      -> frontier

let start ((module S : S) as _spec : t) =
  Frontier ((module S), Type.Id.make (), [ S.initial ])

let spec_of (Frontier ((module S), _, _)) : t = (module S)

let dedup equal states =
  List.fold_left
    (fun acc s -> if List.exists (equal s) acc then acc else s :: acc)
    [] states
  |> List.rev

let advance (Frontier ((module S), id, states)) op res =
  let next =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (s', r) -> if Value.equal r res then Some s' else None)
          (S.step s op))
      states
    |> dedup S.equal_state
  in
  match next with [] -> None | _ -> Some (Frontier ((module S), id, next))

let outcomes (Frontier ((module S), id, states)) op =
  (* Gather every (result, next-state), then group by result. *)
  let all = List.concat_map (fun s -> S.step s op) states in
  let results =
    dedup Value.equal (List.map snd all)
  in
  List.map
    (fun res ->
      let next =
        List.filter_map
          (fun (s', r) -> if Value.equal r res then Some s' else None)
          all
        |> dedup S.equal_state
      in
      (res, Frontier ((module S), id, next)))
    results

let advance_changes (Frontier ((module S), _, states)) op res =
  let next =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (s', r) -> if Value.equal r res then Some s' else None)
          (S.step s op))
      states
    |> dedup S.equal_state
  in
  match next with
  | [] -> None
  | _ ->
    let same =
      List.length next = List.length states
      && List.for_all (fun s -> List.exists (S.equal_state s) next) states
    in
    Some (not same)

let determined f op =
  match outcomes f op with [ (res, _) ] -> Some res | _ -> None

let rebuild (Frontier ((module S), _, states)) =
  match states with
  | [ target ] ->
    let rec go s acc = function
      | [] ->
        if S.equal_state s target then Ok (List.rev acc)
        else
          Error
            (Fmt.str "%s: rebuild reaches %a, not %a" S.type_name S.pp_state s
               S.pp_state target)
      | op :: ops -> (
        match S.step s op with
        | [ (s', v) ] -> go s' ((op, v) :: acc) ops
        | outcomes ->
          Error
            (Fmt.str "%s: rebuild step %a has %d outcomes" S.type_name
               Operation.pp op (List.length outcomes)))
    in
    go S.initial [] (S.rebuild target)
  | _ ->
    Error
      (Fmt.str "%s: a frontier of %d states has no single state to rebuild"
         S.type_name (List.length states))

let frontier_size (Frontier (_, _, states)) = List.length states

let equal_frontier (Frontier ((module S), id1, s1)) (Frontier (_, id2, s2)) =
  match Type.Id.provably_equal id1 id2 with
  | None -> false
  | Some Type.Equal ->
    (* Same lineage, hence same state type: compare as sets (frontiers
       are deduplicated, so mutual inclusion plus equal length works). *)
    List.length s1 = List.length s2
    && List.for_all (fun s -> List.exists (S.equal_state s) s2) s1

let pp_frontier ppf (Frontier ((module S), _, states)) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any " | ") S.pp_state) states
