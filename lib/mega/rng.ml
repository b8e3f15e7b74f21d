(* The splitmix64 state lives unboxed in 8 bytes.  An [int64] record
   field boxes on every store, and a call to [Scheduler.Seed.mix64]
   across modules boxes its argument and result (no flambda), even
   when marked [@inline]: 6 minor words per draw.  So the finalizer is
   repeated here, in the body that reads the state; the test suite pins
   it against [Seed.mix64]. *)
type t = Bytes.t

let make seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int seed);
  b

let next30 t =
  let open Int64 in
  let z = add (Bytes.get_int64_le t 0) 0x9e3779b97f4a7c15L in
  Bytes.set_int64_le t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next30 t mod bound

let bool t = next30 t land 1 = 1
