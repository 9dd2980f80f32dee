type t = { name : string; args : Value.t list }

let make name args = { name; args }
let name op = op.name
let args op = op.args

let equal a b =
  String.equal a.name b.name
  && List.length a.args = List.length b.args
  && List.for_all2 Value.equal a.args b.args

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else List.compare Value.compare a.args b.args

let to_buffer b op =
  Buffer.add_string b op.name;
  match op.args with
  | [] -> ()
  | v :: vs ->
    Buffer.add_char b '(';
    Value.to_buffer b v;
    List.iter
      (fun v ->
        Buffer.add_string b ", ";
        Value.to_buffer b v)
      vs;
    Buffer.add_char b ')'

let to_string op =
  let b = Buffer.create 16 in
  to_buffer b op;
  Buffer.contents b

let pp ppf op = Fmt.string ppf (to_string op)
