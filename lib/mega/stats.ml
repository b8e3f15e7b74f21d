(* A growable int array. *)
type series = { mutable data : int array; mutable len : int }

let series () = { data = Array.make 16 0; len = 0 }

let add s v =
  let cap = Array.length s.data in
  if s.len >= cap then begin
    let d = Array.make (2 * cap) 0 in
    Array.blit s.data 0 d 0 cap;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len

let percentiles s =
  let n = s.len in
  if n = 0 then (0, 0, 0)
  else begin
    let a = Array.sub s.data 0 n in
    Array.sort compare a;
    let at p = a.(min (n - 1) (p * (n - 1) / 100)) in
    (at 50, at 95, at 99)
  end
