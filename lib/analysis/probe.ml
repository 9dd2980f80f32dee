open Weihl_event
module Cc = Weihl_cc
module Seq_spec = Weihl_spec.Seq_spec
module Spec_env = Weihl_spec.Spec_env
module Atomicity = Weihl_spec.Atomicity
module Commutativity = Weihl_theory.Commutativity

let obj = Object_id.v "x"

type pair_status =
  | Granted_sound
  | Granted_unsound of string
  | Blocked_justified
  | Blocked_loose of string

type pair = {
  setup : Operation.t list;
  variant : string;
  p : Operation.t;
  q : Operation.t;
  status : pair_status;
}

type triple = {
  t_setup : Operation.t list;
  t_p : Operation.t;
  t_q : Operation.t;
  t_r : Operation.t;
  branch : string;
  problem : string;
}

type multi = {
  m_setup : Operation.t list;
  m_variant : string;
  m_p1 : Operation.t;
  m_p2 : Operation.t;
  m_q : Operation.t;
  m_problem : string;
}

type t = {
  setups_enumerated : int;
  setups_distinct : int;
  setups_skipped : int;
  pairs : pair list;
  triples_probed : int;
  triples_granted : int;
  triple_unsound : triple list;
  multis_probed : int;
  multis_granted : int;
  multi_unsound : multi list;
}

(* A variant fixes everything about a pair probe other than the two
   operations: the timestamp script (static protocols are probed with
   the second transaction both later and earlier in timestamp order)
   and the kind of the second transaction (hybrid protocols are probed
   with an update and with a read-only partner). *)
type variant = {
  label : string;
  ts_script : int list option;
  t2_read_only : bool;
  t1_later : bool;
}

let variants policy =
  match policy with
  | `None_ ->
    [
      {
        label = "concurrent";
        ts_script = None;
        t2_read_only = false;
        t1_later = false;
      };
    ]
  | `Static ->
    [
      {
        label = "t1-earlier-ts";
        ts_script = Some [ 1; 10; 20 ];
        t2_read_only = false;
        t1_later = false;
      };
      {
        label = "t1-later-ts";
        ts_script = Some [ 1; 20; 10 ];
        t2_read_only = false;
        t1_later = true;
      };
    ]
  | `Hybrid ->
    [
      {
        label = "update-update";
        ts_script = None;
        t2_read_only = false;
        t1_later = false;
      };
      {
        label = "update-readonly";
        ts_script = None;
        t2_read_only = true;
        t1_later = false;
      };
    ]

let fresh (entry : Catalog.entry) ts_script =
  let sys = Cc.System.create ~policy:entry.Catalog.policy () in
  (match ts_script with
  | None -> ()
  | Some script ->
    let remaining = ref script in
    Cc.System.set_ts_source sys (fun () ->
        match !remaining with
        | t :: rest ->
          remaining := rest;
          Timestamp.v t
        | [] -> invalid_arg "probe: timestamp script exhausted"));
  Cc.System.add_object sys
    (entry.Catalog.make_object (Cc.System.log sys) obj);
  sys

(* Drive the committed setup; [None] when the protocol does not grant
   some setup operation serially (the setup is then unusable for this
   protocol and skipped). *)
let run_setup sys ops =
  let txn = Cc.System.begin_txn sys (Activity.update "setup") in
  let rec go acc = function
    | [] ->
      Cc.System.commit sys txn;
      Some (List.rev acc)
    | op :: rest -> (
      match Cc.System.invoke sys txn obj op with
      | Cc.Atomic_object.Granted res -> go (res :: acc) rest
      | Cc.Atomic_object.Wait _ | Cc.Atomic_object.Refused _ -> None)
  in
  go [] ops

(* The frontier the committed setup leaves, computed from the results
   the protocol actually returned; [None] when those results do not
   replay against the specification (a serial divergence — the granted
   pair checks will flag it). *)
let observed_frontier spec ops results =
  List.fold_left2
    (fun f op res ->
      match f with None -> None | Some f -> Seq_spec.advance f op res)
    (Some (Seq_spec.start spec))
    ops results

(* Enumerate serial setups up to [depth] operations, following the
   first outcome of each step, and keep one representative per
   observationally distinct frontier.  Probing is bounded anyway, so
   two setups the alphabet cannot tell apart in two steps would give
   identical probe behaviour at the spec level. *)
let enumerate_setups (d : Domain.t) ~depth =
  let probes = d.Domain.alphabet in
  let enumerated = ref 0 in
  let reps : (Operation.t list * Seq_spec.frontier) list ref = ref [] in
  let known f =
    let size = Seq_spec.frontier_size f in
    List.exists
      (fun (_, g) ->
        Seq_spec.frontier_size g = size
        && (Seq_spec.equal_frontier g f
           || Commutativity.observationally_equal ~probes ~depth:2 g f))
      !reps
  in
  let queue = Queue.create () in
  let add path f remaining =
    incr enumerated;
    if not (known f) then begin
      reps := (path, f) :: !reps;
      if remaining > 0 then Queue.add (path, f, remaining) queue
    end
  in
  add [] (Seq_spec.start d.Domain.spec) depth;
  while not (Queue.is_empty queue) do
    let path, f, remaining = Queue.pop queue in
    List.iter
      (fun op ->
        match Seq_spec.outcomes f op with
        | (_, f') :: _ -> add (path @ [ op ]) f' (remaining - 1)
        | [] -> ())
      d.Domain.alphabet
  done;
  (List.rev_map fst !reps, !enumerated)

(* Would granting [q] some spec-permissible result have kept every
   completion the protocol cannot prevent inside its atomicity class?
   [f] is the committed setup frontier and [rp] the result already
   granted to the first transaction.  The serialization orders that
   must replay depend on the class and the variant: a dynamic or
   hybrid update pair may be forced into either commit order by other
   objects; a static pair is pinned to timestamp order; a hybrid
   read-only partner serializes at its initiation timestamp, before
   the update's commit timestamp. *)
let grant_would_be_sound (variant : variant) policy f p rp q =
  match Seq_spec.advance f p rp with
  | None -> false
  | Some f_p ->
    List.exists
      (fun (rq, f_q) ->
        let pq = Option.is_some (Seq_spec.advance f_p q rq) in
        let qp = Option.is_some (Seq_spec.advance f_q p rp) in
        match policy with
        | `Static -> if variant.t1_later then qp else pq
        | `Hybrid -> if variant.t2_read_only then qp else pq && qp
        | `None_ -> pq && qp)
      (Seq_spec.outcomes f q)

(* A probe is a list of steps over transactions 1-3, named t1-t3, run
   on a fresh system after the committed setup.  Each transaction
   begins at its first step, so a timestamp script is drawn in the
   order the steps first name the transactions. *)
type step = [ `Invoke of int * Operation.t | `Commit of int | `Abort of int ]

let txn_names = [| "t1"; "t2"; "t3" |]

type completion = [ `CC | `CC_rev | `C1A2 | `A1C2 ]

let completion_steps = function
  | `CC -> [ `Commit 1; `Commit 2 ]
  | `CC_rev -> [ `Commit 2; `Commit 1 ]
  | `C1A2 -> [ `Commit 1; `Abort 2 ]
  | `A1C2 -> [ `Abort 1; `Commit 2 ]

let completion_name = function
  | `CC -> "both-commit"
  | `CC_rev -> "both-commit-reversed"
  | `C1A2 -> "t2-aborts"
  | `A1C2 -> "t1-aborts"

type stop =
  | Setup_blocked
  | Blocked of { how : string; setup : Value.t list; granted : Value.t list }
      (** an invoke waited or was refused: the setup's results and the
          probe's grants before it *)
  | Completed of History.t
  | Raised of string
      (** the protocol itself raised — e.g. recorded intentions that no
          longer replay at commit *)

let run_steps entry ~ts_script ~read_only setup (steps : step list) =
  let sys = fresh entry ts_script in
  match run_setup sys setup with
  | None -> Setup_blocked
  | Some setup_results -> (
    let txns = Array.make (Array.length txn_names) None in
    let txn k =
      match txns.(k - 1) with
      | Some t -> t
      | None ->
        let name = txn_names.(k - 1) in
        let t =
          Cc.System.begin_txn sys
            (if read_only k then Activity.read_only name
             else Activity.update name)
        in
        txns.(k - 1) <- Some t;
        t
    in
    let rec go granted = function
      | [] -> Completed (Cc.System.history sys)
      | `Invoke (k, op) :: rest -> (
        let blocked how =
          Blocked { how; setup = setup_results; granted = List.rev granted }
        in
        match Cc.System.invoke sys (txn k) obj op with
        | Cc.Atomic_object.Granted res -> go (res :: granted) rest
        | Cc.Atomic_object.Wait _ -> blocked "waits"
        | Cc.Atomic_object.Refused _ -> blocked "refused")
      | `Commit k :: rest ->
        Cc.System.commit sys (txn k);
        go granted rest
      | `Abort k :: rest ->
        Cc.System.abort sys (txn k);
        go granted rest
    in
    try go [] steps with exn -> Raised (Printexc.to_string exn))

(* A pair or multi-op probe under [variant]: [prefix] followed by the
   completion's steps. *)
let run_variant entry (variant : variant) setup prefix completion =
  run_steps entry ~ts_script:variant.ts_script
    ~read_only:(fun k -> k = 2 && variant.t2_read_only)
    setup
    (prefix @ (completion_steps completion :> step list))

(* The completion judge.  Once both transactions are granted the
   protocol has committed itself: it cannot prevent any completion, so
   [first] (both commit) and then every other completion — both
   commits reversed for hybrid protocols, whose commit timestamps
   follow commit order, and each one-aborts branch — must leave a
   history inside the policy's atomicity class.  The first that does
   not, or that raised, is the finding. *)
let judge policy env first rerun =
  let verdict completion = function
    | Completed h ->
      if Atomicity.of_policy policy env h then None
      else
        Some
          (Fmt.str "completion %s is not %s atomic" (completion_name completion)
             (Catalog.policy_name policy))
    | Raised exn ->
      Some (Fmt.str "completion %s raised: %s" (completion_name completion) exn)
    | Setup_blocked | Blocked _ ->
      (* Deterministic replay of an identical prefix. *)
      assert false
  in
  let later =
    match policy with
    | `Hybrid -> [ `CC_rev; `C1A2; `A1C2 ]
    | `None_ | `Static -> [ `C1A2; `A1C2 ]
  in
  match verdict `CC first with
  | Some _ as failure -> failure
  | None -> List.find_map (fun c -> verdict c (rerun c)) later

(* Pair probes: t1 executes [p], then a concurrent t2 attempts [q]. *)
let probe_pair entry (variant : variant) env setup p q =
  let spec = entry.Catalog.domain.Domain.spec in
  let run =
    run_variant entry variant setup [ `Invoke (1, p); `Invoke (2, q) ]
  in
  match run `CC with
  | Setup_blocked -> None
  | Blocked { setup = setup_results; granted = []; _ } -> (
    (* The first transaction is blocked with no concurrency at all;
       justified only if the specification itself permits no answer. *)
    match observed_frontier spec setup setup_results with
    | None -> Some Blocked_justified
    | Some f ->
      if Seq_spec.outcomes f p = [] then Some Blocked_justified
      else
        Some
          (Blocked_loose
             "blocked serially though the specification permits an answer"))
  | Blocked { how; setup = setup_results; granted = rp :: _ } -> (
    match observed_frontier spec setup setup_results with
    | None -> Some Blocked_justified
    | Some f ->
      if grant_would_be_sound variant entry.Catalog.policy f p rp q then
        Some
          (Blocked_loose
             (Fmt.str
                "%s though some permissible result keeps every completion %s \
                 atomic"
                how
                (Catalog.policy_name entry.Catalog.policy)))
      else Some Blocked_justified)
  | (Completed _ | Raised _) as first ->
    Some
      (match judge entry.Catalog.policy env first run with
      | None -> Granted_sound
      | Some why -> Granted_unsound ("granted concurrently but " ^ why))

(* Multi-op probes: t1 executes two operations before t2 tries one, so
   t1's second grant was validated against its own view (committed
   plus its first intention), not the committed frontier.  [Ok] carries
   the judge's finding once every invoke was granted, [Error] where the
   probe stopped: a blocked multi is conservative, never loose. *)
let probe_multi entry (variant : variant) env setup p1 p2 q =
  let run =
    run_variant entry variant setup
      [ `Invoke (1, p1); `Invoke (1, p2); `Invoke (2, q) ]
  in
  match run `CC with
  | (Setup_blocked | Blocked _) as stop -> Error stop
  | first -> Ok (judge entry.Catalog.policy env first run)

(* Three-transaction probes: t2 commits between two concurrent grants,
   then t3 is granted before t1 aborts or commits.  The shape no pair
   can build, and what it stresses, follows the atomicity class:

   - static: scripted timestamps (t1@10 uncommitted, t2@20 committed,
     t3@5 granted last) — the multiversion grant-guard bug, where t3's
     grant was justified by t1's pending later-timestamp execution and
     the committed history no longer replays in timestamp order once
     t1 aborts;
   - hybrid: t3 is a later reader — it initiates after a contended
     commit and must observe exactly the committed versions before its
     timestamp, whatever t1 then does;
   - dynamic: t3 is granted against a committed frontier that moved
     under t1's outstanding intentions — three views compose where a
     synthesized table's cell verdicts were quantified from single
     frontiers.

   [None] when some grant was withheld, else the (branch, problem)
   findings of the t1-aborts and t1-commits branches. *)
let probe_triple entry env setup p q r =
  let policy = entry.Catalog.policy in
  let run t1_end =
    run_steps entry
      ~ts_script:(if policy = `Static then Some [ 1; 10; 20; 5 ] else None)
      ~read_only:(fun k -> k = 3 && policy = `Hybrid)
      setup
      [ `Invoke (1, p); `Invoke (2, q); `Commit 2; `Invoke (3, r); t1_end;
        `Commit 3 ]
  in
  let finding branch = function
    | Completed h when not (Atomicity.of_policy policy env h) ->
      [ (branch, Fmt.str "committed history is not %s atomic"
                   (Catalog.policy_name policy)) ]
    | Raised exn -> [ (branch, "completion raised: " ^ exn) ]
    | Completed _ | Setup_blocked | Blocked _ -> []
  in
  match run (`Abort 1) with
  | Setup_blocked | Blocked _ -> None
  | first ->
    let aborts = finding "t1-aborts" first in
    Some (aborts @ finding "t1-commits" (run (`Commit 1)))

(* Every (setup, item) in order; [f] answers whether the setup is still
   usable, and the rest of an unusable setup's items are skipped. *)
let visit setups items f =
  List.iter
    (fun setup ->
      let rec go = function
        | [] -> ()
        | item :: rest -> if f setup item then go rest
      in
      go items)
    setups

let pairs_of xs = List.concat_map (fun a -> List.map (fun b -> (a, b)) xs) xs

let triples_of xs =
  List.concat_map (fun (a, b) -> List.map (fun c -> (a, b, c)) xs) (pairs_of xs)

let run ~depth (entry : Catalog.entry) =
  let d = entry.Catalog.domain in
  let setups, enumerated = enumerate_setups d ~depth in
  let env = Spec_env.of_list [ (obj, d.Domain.spec) ] in
  let pairs2 = pairs_of d.Domain.alphabet in
  let triples3 = triples_of d.Domain.alphabet in
  let t2_ok (variant : variant) q =
    (not variant.t2_read_only) || d.Domain.read_only q
  in
  (* Pairs count only probes whose setup proved usable. *)
  let skipped = ref 0 and pairs = ref [] in
  List.iter
    (fun variant ->
      visit setups
        (List.filter (fun (_, q) -> t2_ok variant q) pairs2)
        (fun setup (p, q) ->
          match probe_pair entry variant env setup p q with
          | None ->
            incr skipped;
            false
          | Some status ->
            pairs := { setup; variant = variant.label; p; q; status } :: !pairs;
            true))
    (variants entry.Catalog.policy);
  (* Triples never skip a setup. *)
  let triples_probed = ref 0 and triples_granted = ref 0 in
  let triple_unsound = ref [] in
  visit setups
    (List.filter
       (fun (_, _, r) ->
         entry.Catalog.policy <> `Hybrid || d.Domain.read_only r)
       triples3)
    (fun setup (p, q, r) ->
      incr triples_probed;
      Option.iter
        (fun findings ->
          incr triples_granted;
          List.iter
            (fun (branch, problem) ->
              triple_unsound :=
                { t_setup = setup; t_p = p; t_q = q; t_r = r; branch; problem }
                :: !triple_unsound)
            findings)
        (probe_triple entry env setup p q r);
      true);
  (* Multi-op probes count before their setup proves unusable. *)
  let multis_probed = ref 0 and multis_granted = ref 0 in
  let multi_unsound = ref [] in
  List.iter
    (fun variant ->
      visit setups
        (List.filter (fun (_, _, q) -> t2_ok variant q) triples3)
        (fun setup (p1, p2, q) ->
          incr multis_probed;
          match probe_multi entry variant env setup p1 p2 q with
          | Error Setup_blocked -> false
          | Error _ -> true
          | Ok finding ->
            incr multis_granted;
            Option.iter
              (fun problem ->
                multi_unsound :=
                  { m_setup = setup; m_variant = variant.label; m_p1 = p1;
                    m_p2 = p2; m_q = q; m_problem = problem }
                  :: !multi_unsound)
              finding;
            true))
    (variants entry.Catalog.policy);
  {
    setups_enumerated = enumerated;
    setups_distinct = List.length setups;
    setups_skipped = !skipped;
    pairs = List.rev !pairs;
    triples_probed = !triples_probed;
    triples_granted = !triples_granted;
    triple_unsound = List.rev !triple_unsound;
    multis_probed = !multis_probed;
    multis_granted = !multis_granted;
    multi_unsound = List.rev !multi_unsound;
  }

let pp_ops ppf ops =
  if ops = [] then Fmt.string ppf "(empty)"
  else Fmt.(list ~sep:(any ";") Operation.pp) ppf ops

let pp_pair ppf pr =
  let status =
    match pr.status with
    | Granted_sound -> "granted, sound"
    | Granted_unsound why -> "UNSOUND: " ^ why
    | Blocked_justified -> "blocked, justified"
    | Blocked_loose why -> "loose: " ^ why
  in
  Fmt.pf ppf "@[<h>[%a] %a || %a (%s): %s@]" pp_ops pr.setup Operation.pp pr.p
    Operation.pp pr.q pr.variant status

let pp_triple ppf t =
  Fmt.pf ppf "@[<h>[%a] t1:%a t2:%a(commit) t3:%a, %s: %s@]" pp_ops
    t.t_setup Operation.pp t.t_p Operation.pp t.t_q Operation.pp t.t_r
    t.branch t.problem

let pp_multi ppf m =
  Fmt.pf ppf "@[<h>[%a] t1:%a;%a || t2:%a (%s): %s@]" pp_ops m.m_setup
    Operation.pp m.m_p1 Operation.pp m.m_p2 Operation.pp m.m_q m.m_variant
    m.m_problem
