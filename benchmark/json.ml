(* Just enough JSON for the benchmark: the child-to-parent result line,
   run files for --compare, BENCHMARK.json, and the MC outcome JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON: %s at byte %d" what !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let lit word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> num ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kv -> Option.value ~default:Null (List.assoc_opt k kv)
  | _ -> Null

let to_float = function Num f -> f | _ -> failwith "JSON: expected a number"
let to_list = function Arr l -> l | _ -> failwith "JSON: expected an array"
let to_assoc = function Obj kv -> kv | _ -> failwith "JSON: expected an object"
let to_str = function Str s -> s | _ -> failwith "JSON: expected a string"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of a measurement is kept: integers print as integers,
   other values round-trip exactly. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
    let field (k, v) = escape k ^ ":" ^ to_string v in
    "{" ^ String.concat "," (List.map field kv) ^ "}"
