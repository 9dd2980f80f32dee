type t =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string
  | List of t list
  | Pair of t * t

let ok = Sym "ok"
let insufficient_funds = Sym "insufficient_funds"

let rec equal v w =
  match v, w with
  | Unit, Unit -> true
  | Bool b, Bool c -> Bool.equal b c
  | Int i, Int j -> Int.equal i j
  | Sym s, Sym t -> String.equal s t
  | List vs, List ws ->
    List.length vs = List.length ws && List.for_all2 equal vs ws
  | Pair (a, b), Pair (c, d) -> equal a c && equal b d
  | (Unit | Bool _ | Int _ | Sym _ | List _ | Pair _), _ -> false

let rec compare v w =
  let tag = function
    | Unit -> 0 | Bool _ -> 1 | Int _ -> 2 | Sym _ -> 3 | List _ -> 4
    | Pair _ -> 5
  in
  match v, w with
  | Unit, Unit -> 0
  | Bool b, Bool c -> Bool.compare b c
  | Int i, Int j -> Int.compare i j
  | Sym s, Sym t -> String.compare s t
  | List vs, List ws -> List.compare compare vs ws
  | Pair (a, b), Pair (c, d) ->
    let c0 = compare a c in
    if c0 <> 0 then c0 else compare b d
  | _, _ -> Int.compare (tag v) (tag w)

let rec to_buffer b = function
  | Unit -> Buffer.add_string b "()"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (Int.to_string i)
  | Sym s -> Buffer.add_string b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b "; ";
        to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Pair (x, y) ->
    Buffer.add_char b '(';
    to_buffer b x;
    Buffer.add_string b ", ";
    to_buffer b y;
    Buffer.add_char b ')'

let to_string v =
  let b = Buffer.create 16 in
  to_buffer b v;
  Buffer.contents b

let pp ppf v = Fmt.string ppf (to_string v)
