open Weihl_event
module Seq_spec = Weihl_spec.Seq_spec

type entry = {
  name : string;
  adt : (module Adt_sig.S);
  alphabet : Operation.t list;
}

let entries =
  [
    {
      name = "intset";
      adt = (module Intset);
      alphabet =
        Intset.
          [ insert 1; insert 2; delete 1; delete 2; member 1; member 2; size ];
    };
    {
      name = "counter";
      adt = (module Counter);
      alphabet = [ Counter.increment ];
    };
    {
      name = "account";
      adt = (module Bank_account);
      alphabet =
        Bank_account.[ deposit 5; deposit 2; withdraw 3; withdraw 6; balance ];
    };
    {
      name = "queue";
      adt = (module Fifo_queue);
      alphabet = Fifo_queue.[ enqueue 1; enqueue 2; dequeue ];
    };
    {
      name = "register";
      adt = (module Register);
      alphabet = Register.[ read; write 1; write 2 ];
    };
    {
      name = "kv";
      adt = (module Kv_map);
      alphabet =
        Kv_map.[ put 1 10; put 1 20; put 2 10; get 1; get 2; remove 1; size ];
    };
    {
      name = "semiqueue";
      adt = (module Semiqueue);
      alphabet = Semiqueue.[ enq 1; enq 2; deq ];
    };
    {
      name = "stack";
      adt = (module Stack);
      alphabet = Stack.[ push 1; push 2; pop ];
    };
    {
      name = "pqueue";
      adt = (module Priority_queue);
      alphabet = Priority_queue.[ add 1; add 5; extract_min; find_min ];
    };
    {
      name = "blind_counter";
      adt = (module Blind_counter);
      alphabet = Blind_counter.[ bump 1; bump 2; read ];
    };
    {
      name = "log";
      adt = (module Append_log);
      alphabet = Append_log.[ append 1; append 2; size; read 0 ];
    };
  ]

let spec { adt = (module A); _ } = A.spec
let read_only { adt = (module A); _ } op = A.classify op = Adt_sig.Read
let entry name = List.find_opt (fun e -> e.name = name) entries
let all = List.map (fun e -> (e.name, spec e)) entries
let find name = List.assoc_opt name all

(* Guess an object's type from the operation names appearing on it.
   The order of the tests resolves ambiguous names deterministically:
   "add" belongs to the priority queue (tested before anything a set
   might claim), "get"/"put" to the map, and so on.  Keep the order
   stable — histories in the wild rely on it. *)
let infer_spec ops =
  let has name = List.exists (fun op -> Operation.name op = name) ops in
  if has "deposit" || has "withdraw" || has "balance" then
    Some Bank_account.spec
  else if has "enqueue" || has "dequeue" then Some Fifo_queue.spec
  else if has "push" || has "pop" then Some Stack.spec
  else if has "put" || has "get" || has "remove" then Some Kv_map.spec
  else if has "add" || has "extract_min" || has "find_min" then
    Some Priority_queue.spec
  else if has "increment" then Some Counter.spec
  else if has "bump" then Some Blind_counter.spec
  else if has "append" then Some Append_log.spec
  else if has "enq" || has "deq" then Some Semiqueue.spec
  else if has "write" then Some Register.spec
  else if has "insert" || has "delete" || has "member" || has "size" then
    Some Intset.spec
  else None
