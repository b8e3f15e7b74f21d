(* Bucket records are 5 consecutive ints: kind, a, b, c, d.  All
   events in a bucket share one timestamp, so insertion order is
   creation order (the heap drains a bucket's far-scheduled events
   before any near-scheduled insert can target that bucket epoch:
   direct insertion requires [at - now < wsize], and the drain runs at
   the first [now] where that holds, inside [pop], before user code at
   that time runs again).

   A bucket is a FIFO of fixed-size chunks: records are written at
   [wr] in its last chunk and read at [rd] in its first.  A chunk goes
   back on the free stack once its last record has been read, and
   [take] reuses the top of that stack before it allocates; so the
   calendar never holds more chunks than it once had in use at the same
   time. *)

let wsize = 1 lsl 12
let wmask = wsize - 1

(* 512 records per chunk *)
let chunk_words = 5 * 512

type t = {
  (* chunk [c] is [chunks.(c)] and is followed in its bucket by
     [next.(c)] (unspecified for a bucket's last chunk); the free stack
     is [free.(0 .. nfree - 1)] *)
  mutable chunks : int array array;
  mutable next : int array;
  mutable free : int array;
  mutable nchunks : int;
  mutable nfree : int;
  (* per bucket: first and last chunk (-1 when the bucket is empty),
     read offset in the first, write offset in the last *)
  head : int array;
  tail : int array;
  rd : int array;
  wr : int array;
  occ : Bytes.t;  (* occupancy per bucket, for the advance scan *)
  mutable wcount : int;  (* nonempty buckets *)
  mutable now : int;
  mutable pending : int;
  mutable seq : int;
  (* overflow min-heap on (time, seq), parallel arrays *)
  mutable ht : int array;
  mutable hs : int array;
  mutable hk : int array;
  mutable ha : int array;
  mutable hb : int array;
  mutable hc : int array;
  mutable hd : int array;
  mutable hlen : int;
  (* last popped event *)
  mutable ek : int;
  mutable ea : int;
  mutable eb : int;
  mutable ec : int;
  mutable ed : int;
}

let create () =
  { chunks = [||];
    next = [||];
    free = [||];
    nchunks = 0;
    nfree = 0;
    head = Array.make wsize (-1);
    tail = Array.make wsize (-1);
    rd = Array.make wsize 0;
    wr = Array.make wsize 0;
    occ = Bytes.make wsize '\000';
    wcount = 0;
    now = 0;
    pending = 0;
    seq = 0;
    ht = Array.make 16 0;
    hs = Array.make 16 0;
    hk = Array.make 16 0;
    ha = Array.make 16 0;
    hb = Array.make 16 0;
    hc = Array.make 16 0;
    hd = Array.make 16 0;
    hlen = 0;
    ek = 0;
    ea = 0;
    eb = 0;
    ec = 0;
    ed = 0;
  }

let now t = t.now
let pending t = t.pending
let ev_kind t = t.ek
let ev_a t = t.ea
let ev_b t = t.eb
let ev_c t = t.ec
let ev_d t = t.ed

let take t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let c = t.nchunks in
    if c = Array.length t.chunks then begin
      (* the free stack is empty, so only [chunks] and [next] are copied *)
      let cap = max 16 (2 * c) in
      let grow a x =
        let b = Array.make cap x in
        Array.blit a 0 b 0 c;
        b
      in
      t.chunks <- grow t.chunks [||];
      t.next <- grow t.next 0;
      t.free <- Array.make cap 0
    end;
    t.chunks.(c) <- Array.make chunk_words 0;
    t.nchunks <- c + 1;
    c
  end

let give t c =
  t.free.(t.nfree) <- c;
  t.nfree <- t.nfree + 1

let wheel_insert t at k a b c d =
  let i = at land wmask in
  let w = t.wr.(i) in
  let w =
    if t.head.(i) < 0 then begin
      let ch = take t in
      t.head.(i) <- ch;
      t.tail.(i) <- ch;
      t.rd.(i) <- 0;
      Bytes.unsafe_set t.occ i '\001';
      t.wcount <- t.wcount + 1;
      0
    end
    else if w = chunk_words then begin
      let ch = take t in
      t.next.(t.tail.(i)) <- ch;
      t.tail.(i) <- ch;
      0
    end
    else w
  in
  let data = t.chunks.(t.tail.(i)) in
  data.(w) <- k;
  data.(w + 1) <- a;
  data.(w + 2) <- b;
  data.(w + 3) <- c;
  data.(w + 4) <- d;
  t.wr.(i) <- w + 5

(* (time, seq) lexicographic *)
let heap_less t i j =
  t.ht.(i) < t.ht.(j) || (t.ht.(i) = t.ht.(j) && t.hs.(i) < t.hs.(j))

let heap_swap t i j =
  let sw a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  sw t.ht i j;
  sw t.hs i j;
  sw t.hk i j;
  sw t.ha i j;
  sw t.hb i j;
  sw t.hc i j;
  sw t.hd i j

let heap_insert t at seq k a b c d =
  let cap = Array.length t.ht in
  if t.hlen >= cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    t.ht <- grow t.ht;
    t.hs <- grow t.hs;
    t.hk <- grow t.hk;
    t.ha <- grow t.ha;
    t.hb <- grow t.hb;
    t.hc <- grow t.hc;
    t.hd <- grow t.hd
  end;
  let i = t.hlen in
  t.ht.(i) <- at;
  t.hs.(i) <- seq;
  t.hk.(i) <- k;
  t.ha.(i) <- a;
  t.hb.(i) <- b;
  t.hc.(i) <- c;
  t.hd.(i) <- d;
  t.hlen <- t.hlen + 1;
  let j = ref i in
  while !j > 0 && heap_less t !j ((!j - 1) / 2) do
    heap_swap t !j ((!j - 1) / 2);
    j := (!j - 1) / 2
  done

let heap_pop_into_wheel t =
  (* move the heap minimum into its wheel bucket *)
  wheel_insert t t.ht.(0) t.hk.(0) t.ha.(0) t.hb.(0) t.hc.(0) t.hd.(0);
  t.hlen <- t.hlen - 1;
  if t.hlen > 0 then begin
    heap_swap t 0 t.hlen;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < t.hlen && heap_less t l !m then m := l;
      if r < t.hlen && heap_less t r !m then m := r;
      if !m = !i then continue := false
      else begin
        heap_swap t !i !m;
        i := !m
      end
    done
  end

let drain t =
  while t.hlen > 0 && t.ht.(0) - t.now < wsize do
    heap_pop_into_wheel t
  done

let schedule t ~at ~kind ~a ~b ~c ~d =
  let at = if at <= t.now then t.now else at in
  t.pending <- t.pending + 1;
  t.seq <- t.seq + 1;
  if at - t.now < wsize then wheel_insert t at kind a b c d
  else heap_insert t at t.seq kind a b c d

let advance t =
  (* precondition: pending > 0 and the current bucket is drained *)
  if t.wcount > 0 then begin
    let b0 = t.now land wmask in
    let d = ref 1 in
    while Bytes.unsafe_get t.occ ((b0 + !d) land wmask) = '\000' do
      incr d
    done;
    t.now <- t.now + !d
  end
  else t.now <- t.ht.(0);
  drain t

let rec pop t =
  if t.pending = 0 then false
  else begin
    let i = t.now land wmask in
    let h = t.head.(i) in
    if h >= 0 then begin
      let data = t.chunks.(h) in
      let p = t.rd.(i) in
      t.ek <- data.(p);
      t.ea <- data.(p + 1);
      t.eb <- data.(p + 2);
      t.ec <- data.(p + 3);
      t.ed <- data.(p + 4);
      t.pending <- t.pending - 1;
      let p = p + 5 in
      if h = t.tail.(i) && p = t.wr.(i) then begin
        (* the bucket drained *)
        give t h;
        t.head.(i) <- -1;
        Bytes.unsafe_set t.occ i '\000';
        t.wcount <- t.wcount - 1
      end
      else if p = chunk_words then begin
        t.head.(i) <- t.next.(h);
        t.rd.(i) <- 0;
        give t h
      end
      else t.rd.(i) <- p;
      true
    end
    else begin
      advance t;
      pop t
    end
  end
