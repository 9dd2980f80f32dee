open Weihl_event

type step = {
  obj : Object_id.t;
  op : Operation.t;
  continue_if : (Value.t -> bool) option;
}

type script = {
  kind : [ `Update | `Read_only ];
  label : string;
  steps : step list;
}

type t = {
  name : string;
  objects : Object_id.t list;
  generate : Rng.t -> script;
}

let step ?continue_if obj op = { obj; op; continue_if }

(* Banking workloads mix audits in, so a read-only script turns up
   within a few draws. *)
let read_steps w rng =
  let rec go n =
    if n = 0 then None
    else
      let s = w.generate rng in
      if s.kind = `Read_only then
        Some (List.map (fun st -> (st.obj, st.op)) s.steps)
      else go (n - 1)
  in
  go 100

(* Zipfian rank sampler: key i (0-based) drawn with weight
   1/(i+1)^theta.  theta = 0 is uniform; theta around 1 is the classic
   skew where a few keys soak up most of the traffic. *)
let zipf ~theta ~n =
  if n <= 0 then invalid_arg "Workload.zipf: n must be positive";
  if theta < 0. then invalid_arg "Workload.zipf: theta must be >= 0";
  let cum = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. (1. /. (float_of_int (i + 1) ** theta));
    cum.(i) <- !total
  done;
  let total = !total in
  fun rng ->
    let u = Rng.float rng total in
    (* First index with cum.(i) >= u. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo

(* Hotspot sampler: probability [hot] of drawing uniformly from the
   first [hot_keys] keys, otherwise uniform over all [n]. *)
let hotspot ~hot ~hot_keys ~n =
  if n <= 0 then invalid_arg "Workload.hotspot: n must be positive";
  if hot < 0. || hot > 1. then
    invalid_arg "Workload.hotspot: hot not a probability";
  let hot_keys = max 1 (min hot_keys n) in
  fun rng ->
    if Rng.float rng 1.0 < hot then Rng.int rng hot_keys
    else Rng.int rng n

let account_ids n =
  List.init n (fun i -> Object_id.v (Fmt.str "acct%d" i))

let banking ?(accounts = 8) ?(transfer_max = 50) ?(audit_fraction = 0.1)
    ?(deposit_fraction = 0.2) ?key_dist () =
  let objects = account_ids accounts in
  let arr = Array.of_list objects in
  let pick rng =
    match key_dist with
    | None -> Rng.pick rng objects
    | Some dist -> arr.(dist rng)
  in
  let generate rng =
    let r = Rng.float rng 1.0 in
    if r < audit_fraction then
      {
        kind = `Read_only;
        label = "audit";
        steps = List.map (fun x -> step x Weihl_adt.Bank_account.balance) objects;
      }
    else if r < audit_fraction +. deposit_fraction then
      (* A salary split: deposits into two accounts.  Spanning two
         steps makes deposits hold their locks across simulated time,
         so protocols that let deposits commute genuinely interleave
         them while read/write locking serializes. *)
      let acct1 = pick rng in
      let acct2 = pick rng in
      let amount = Rng.int_range rng 1 transfer_max in
      {
        kind = `Update;
        label = "deposit";
        steps =
          [
            step acct1 (Weihl_adt.Bank_account.deposit amount);
            step acct2 (Weihl_adt.Bank_account.deposit amount);
          ];
      }
    else begin
      let src = pick rng in
      let rec pick_dst () =
        let dst = pick rng in
        if Object_id.equal dst src then pick_dst () else dst
      in
      let dst = pick_dst () in
      let amount = Rng.int_range rng 1 transfer_max in
      {
        kind = `Update;
        label = "transfer";
        steps =
          [
            step src
              (Weihl_adt.Bank_account.withdraw amount)
              ~continue_if:(Value.equal Value.ok);
            step dst (Weihl_adt.Bank_account.deposit amount);
          ];
      }
    end
  in
  { name = "banking"; objects; generate }

let set_object = Object_id.v "set"

let set_ops ?(keys = 16) ?(size_fraction = 0.05) () =
  let generate rng =
    if Rng.float rng 1.0 < size_fraction then
      { kind = `Read_only; label = "size";
        steps = [ step set_object Weihl_adt.Intset.size ] }
    else begin
      let n_ops = Rng.int_range rng 1 4 in
      let read_only = ref true in
      let steps =
        List.init n_ops (fun _ ->
            let k = Rng.int rng keys in
            match Rng.int rng 3 with
            | 0 ->
              read_only := false;
              step set_object (Weihl_adt.Intset.insert k)
            | 1 ->
              read_only := false;
              step set_object (Weihl_adt.Intset.delete k)
            | _ -> step set_object (Weihl_adt.Intset.member k))
      in
      {
        kind = (if !read_only then `Read_only else `Update);
        label = (if !read_only then "lookup" else "mixed");
        steps;
      }
    end
  in
  { name = "set_ops"; objects = [ set_object ]; generate }

let queue_object = Object_id.v "queue"

let queue_producers_consumers ?(producers_fraction = 0.6) () =
  let generate rng =
    if Rng.float rng 1.0 < producers_fraction then
      let n = Rng.int_range rng 1 3 in
      {
        kind = `Update;
        label = "producer";
        steps =
          List.init n (fun _ ->
              step queue_object
                (Weihl_adt.Fifo_queue.enqueue (Rng.int rng 100)));
      }
    else
      let n = Rng.int_range rng 1 2 in
      {
        kind = `Update;
        label = "consumer";
        steps = List.init n (fun _ -> step queue_object Weihl_adt.Fifo_queue.dequeue);
      }
  in
  { name = "queue"; objects = [ queue_object ]; generate }

let hot_account = Object_id.v "hot"

let hot_withdrawals ?(withdraw_max = 5) ?(deposit_fraction = 0.3) () =
  let generate rng =
    if Rng.float rng 1.0 < deposit_fraction then
      {
        kind = `Update;
        label = "deposit";
        steps =
          [
            step hot_account
              (Weihl_adt.Bank_account.deposit (Rng.int_range rng 1 withdraw_max));
            step hot_account
              (Weihl_adt.Bank_account.deposit (Rng.int_range rng 1 withdraw_max));
          ];
      }
    else
      let n1 = Rng.int_range rng 1 withdraw_max in
      let n2 = Rng.int_range rng 1 withdraw_max in
      {
        kind = `Update;
        label = "withdraw";
        steps =
          [
            step hot_account
              (Weihl_adt.Bank_account.withdraw n1)
              ~continue_if:(Value.equal Value.ok);
            step hot_account
              (Weihl_adt.Bank_account.withdraw n2)
              ~continue_if:(Value.equal Value.ok);
          ];
      }
  in
  { name = "hot_withdrawals"; objects = [ hot_account ]; generate }


let kv_object = Object_id.v "kv"

let kv_ops ?(keys = 12) ?(read_fraction = 0.5) () =
  let generate rng =
    let n_ops = Rng.int_range rng 1 3 in
    let read_only = ref true in
    let steps =
      List.init n_ops (fun _ ->
          let k = Rng.int rng keys in
          if Rng.float rng 1.0 < read_fraction then
            step kv_object (Weihl_adt.Kv_map.get k)
          else begin
            read_only := false;
            if Rng.int rng 4 = 0 then step kv_object (Weihl_adt.Kv_map.remove k)
            else step kv_object (Weihl_adt.Kv_map.put k (Rng.int rng 100))
          end)
    in
    {
      kind = (if !read_only then `Read_only else `Update);
      label = (if !read_only then "lookup" else "mutation");
      steps;
    }
  in
  { name = "kv_ops"; objects = [ kv_object ]; generate }

let semiqueue_object = Object_id.v "semiqueue"

let semiqueue_producers_consumers ?(producers_fraction = 0.5) () =
  let generate rng =
    if Rng.float rng 1.0 < producers_fraction then
      {
        kind = `Update;
        label = "producer";
        steps =
          List.init (Rng.int_range rng 1 2) (fun _ ->
              step semiqueue_object (Weihl_adt.Semiqueue.enq (Rng.int rng 50)));
      }
    else
      {
        kind = `Update;
        label = "consumer";
        steps = [ step semiqueue_object Weihl_adt.Semiqueue.deq ];
      }
  in
  { name = "semiqueue"; objects = [ semiqueue_object ]; generate }
