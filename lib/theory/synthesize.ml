open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec

type key = Operation.t * Value.t

type t = {
  adt : string;
  alphabet : Operation.t list;
  keys : key array;
  matrix : Commutativity.verdict array array;
  stats : Commutativity.stats;
}

let adt t = t.adt
let alphabet t = t.alphabet
let stats t = t.stats

let pp_key ppf (op, r) = Fmt.pf ppf "%a->%a" Operation.pp op Value.pp r

let classes t =
  List.map
    (fun op ->
      ( op,
        Array.to_list t.keys
        |> List.filter_map (fun (op', r) ->
               if Operation.equal op op' then Some r else None) ))
    t.alphabet

let index_of t (op, r) =
  let n = Array.length t.keys in
  let rec go i =
    if i >= n then None
    else
      let op', r' = t.keys.(i) in
      if Operation.equal op op' && Value.equal r r' then Some i
      else go (i + 1)
  in
  go 0

let synthesize ?(probe_depth = 2) ?max_states spec ~alphabet ~depth ~budget =
  (* The same dedup-depth rule as [commute_on_reachable]: a cell
     counterexample appears after two advances plus [probe_depth] levels
     of probing, so merging frontiers indistinguishable at
     [probe_depth + 2] cannot hide one. *)
  let frontiers, stats =
    Commutativity.reachable_frontiers spec ~gen_ops:alphabet ~depth
      ~grow_until:budget
      ~probe_depth:(probe_depth + 2) ?max_states
  in
  (* Result classes: every result the specification can return for an
     alphabet operation anywhere on the explored space, in a
     deterministic order (alphabet order, then [Value.compare]) so two
     syntheses of the same domain produce identical tables. *)
  let keys =
    List.concat_map
      (fun op ->
        let results =
          List.concat_map
            (fun f -> List.map fst (Seq_spec.outcomes f op))
            frontiers
          |> List.sort_uniq Value.compare
        in
        List.map (fun r -> (op, r)) results)
      alphabet
    |> Array.of_list
  in
  let n = Array.length keys in
  let matrix = Array.make_matrix n n Commutativity.Commute in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let v =
        match
          Commutativity.commute_results ~gen_ops:alphabet ~probe_depth
            ~frontiers keys.(i) keys.(j)
        with
        | Commutativity.Commute when stats.Commutativity.truncated ->
          (* Mirror [commute_on_reachable]: a truncated exploration
             cannot promise absence of counterexamples. *)
          Commutativity.Unknown
            (Fmt.str "state bound exceeded (%d frontiers enumerated)"
               stats.Commutativity.enumerated)
        | v -> v
      in
      matrix.(i).(j) <- v;
      matrix.(j).(i) <- v
    done
  done;
  { adt = Seq_spec.type_name spec; alphabet; keys; matrix; stats }

let verdict t kp kq =
  match (index_of t kp, index_of t kq) with
  | Some i, Some j -> Some t.matrix.(i).(j)
  | _ -> None

let op_verdict t p q =
  (* The operation-level projection of the table: conflict iff any
     result pair conflicts, unknown iff undecided but never refuted.
     Equivalent to [commute_on_reachable] over the same frontier set. *)
  let in_alphabet op = List.exists (Operation.equal op) t.alphabet in
  if not (in_alphabet p && in_alphabet q) then None
  else begin
    let n = Array.length t.keys in
    let acc = ref Commutativity.Commute in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let opi, _ = t.keys.(i) and opj, _ = t.keys.(j) in
        if Operation.equal opi p && Operation.equal opj q then
          match (t.matrix.(i).(j), !acc) with
          | Commutativity.Conflict _, _ -> acc := t.matrix.(i).(j)
          | Commutativity.Unknown _, Commutativity.Commute ->
            acc := t.matrix.(i).(j)
          | _ -> ()
      done
    done;
    Some !acc
  end

let conflict t kp kq =
  match verdict t kp kq with
  | Some Commutativity.Commute -> Some false
  | Some (Commutativity.Conflict _) | Some (Commutativity.Unknown _) ->
    Some true
  | None -> (
    (* An off-class result (or an op outside the alphabet): fall back to
       the operation-level projection, and past that let the caller pick
       a conservative relation. *)
    match op_verdict t (fst kp) (fst kq) with
    | Some Commutativity.Commute -> Some false
    | Some _ -> Some true
    | None -> None)

let cells t =
  let out = ref [] in
  let n = Array.length t.keys in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      out := (t.keys.(i), t.keys.(j), t.matrix.(i).(j)) :: !out
    done
  done;
  !out

let counts t =
  List.fold_left
    (fun (c, x, u) (_, _, v) ->
      match v with
      | Commutativity.Commute -> (c + 1, x, u)
      | Commutativity.Conflict _ -> (c, x + 1, u)
      | Commutativity.Unknown _ -> (c, x, u + 1))
    (0, 0, 0) (cells t)

let refinements t =
  (* Operation pairs where the op-level relation must conflict but some
     result pair commutes: exactly the data-dependent concurrency the
     synthesized table recovers over an operation-keyed lock table. *)
  let pairs = ref [] in
  let rec ops_from = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          match op_verdict t p q with
          | Some (Commutativity.Conflict _) ->
            let some_commute =
              List.exists
                (fun ((opi, _), (opj, _), v) ->
                  ((Operation.equal opi p && Operation.equal opj q)
                  || (Operation.equal opi q && Operation.equal opj p))
                  && Commutativity.equal_verdict v Commutativity.Commute)
                (cells t)
            in
            if some_commute then pairs := (p, q) :: !pairs
          | _ -> ())
        (p :: rest);
      ops_from rest
  in
  ops_from t.alphabet;
  List.rev !pairs

let equal a b =
  String.equal a.adt b.adt
  && List.equal Operation.equal a.alphabet b.alphabet
  && Array.length a.keys = Array.length b.keys
  && Array.for_all2
       (fun (op, r) (op', r') -> Operation.equal op op' && Value.equal r r')
       a.keys b.keys
  && Array.for_all2
       (Array.for_all2 Commutativity.equal_verdict)
       a.matrix b.matrix

let force_commute t kp kq =
  match (index_of t kp, index_of t kq) with
  | Some i, Some j ->
    let matrix = Array.map Array.copy t.matrix in
    matrix.(i).(j) <- Commutativity.Commute;
    matrix.(j).(i) <- Commutativity.Commute;
    { t with matrix }
  | _ ->
    invalid_arg
      (Fmt.str "Synthesize.force_commute: %a / %a not in the %s table" pp_key
         kp pp_key kq t.adt)

module Registry = Weihl_adt.Adt_registry

(* The budget headroom over the lint depth: enough for the bounded
   alphabets that do stabilize (intset, register, kv, counter close
   within a handful of levels) without letting the unbounded ones
   (account balances, queue contents) blow the exploration up. *)
let budget_for depth = depth + 3

let memo : (string * int, t) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let of_adt ?(depth = 3) (e : Registry.entry) =
  let key = (e.Registry.name, depth) in
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
  | Some t -> t
  | None ->
    let t =
      synthesize (Registry.spec e) ~alphabet:e.Registry.alphabet ~depth
        ~budget:(budget_for depth)
    in
    Mutex.protect memo_lock (fun () ->
        match Hashtbl.find_opt memo key with
        | Some t -> t
        | None ->
          Hashtbl.add memo key t;
          t)

let conflict_of e table kp kq =
  match conflict table kp kq with
  | Some b -> b
  | None ->
    (* Off-alphabet operation: no cell and no op-level projection to
       consult.  Fall back to read/write classification — exactly the
       conservative relation [Op_locking.rw] uses, so the synthesized
       protocol degrades to rw locking off its alphabet instead of
       guessing. *)
    not (Registry.read_only e (fst kp) && Registry.read_only e (fst kq))

let make_object e table log id =
  Weihl_cc.Derived_locking.make log id (Registry.spec e)
    ~conflict:(conflict_of e table)

let pp ppf t =
  let commute, conflicts, unknown = counts t in
  Fmt.pf ppf "@[<v>%s: %d result classes over %d operations (%a)@,"
    t.adt (Array.length t.keys)
    (List.length t.alphabet)
    Commutativity.pp_stats t.stats;
  Fmt.pf ppf "cells: %d commute, %d conflict, %d unknown@," commute conflicts
    unknown;
  (match refinements t with
  | [] -> Fmt.pf ppf "no data-dependent refinements over op-level locking"
  | rs ->
    Fmt.pf ppf "data-dependent refinements: %a"
      (Fmt.list ~sep:Fmt.comma (fun ppf (p, q) ->
           Fmt.pf ppf "%a/%a" Operation.pp p Operation.pp q))
      rs);
  Fmt.pf ppf "@]"

let pp_matrix ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (kp, kq, v) ->
      Fmt.pf ppf "%a | %a : %a@," pp_key kp pp_key kq Commutativity.pp_verdict
        v)
    (cells t);
  Fmt.pf ppf "@]"
