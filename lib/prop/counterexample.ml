type 'o t = {
  index : int;
  clause : string;
  reason : string;
  event : 'o Fd_event.t option;
  window : 'o Fd_event.t list;
  window_start : int;
}

let of_path ?(window = 8) ~clause ~reason path =
  let len = List.length path in
  let index = max 0 (len - 1) in
  let event = if len = 0 then None else Some (List.nth path index) in
  let dropped = max 0 (len - window) in
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  { index; clause; reason; event; window = drop dropped path; window_start = dropped }

let pp pp_out fmt c =
  Format.fprintf fmt "@[<v>violation at index %d (clause %s): %s" c.index c.clause
    c.reason;
  (match c.event with
  | Some e -> Format.fprintf fmt "@,offending event: %a" (Fd_event.pp pp_out) e
  | None -> ());
  if c.window <> [] then
    Format.fprintf fmt "@,window [%d..%d]: %a" c.window_start
      (c.window_start + List.length c.window - 1)
      (Fd_event.pp_trace pp_out) c.window;
  Format.fprintf fmt "@]"

let to_json ~pp_out c =
  let str = Afd_ioa.Json.string in
  let event_str = function Some e -> str (Fmt.str "%a" (Fd_event.pp pp_out) e) | None -> "null" in
  Printf.sprintf
    "{\"index\":%d,\"clause\":%s,\"reason\":%s,\"event\":%s,\"window_start\":%d,\"window\":[%s]}"
    c.index (str c.clause) (str c.reason) (event_str c.event) c.window_start
    (String.concat ","
       (List.map (fun e -> str (Fmt.str "%a" (Fd_event.pp pp_out) e)) c.window))
