(* Spans recorded around calls into the libraries, kept in memory and
   written out at exit.  Each span carries its parent and the Gc deltas
   over its interval; a span's self time is its duration minus the
   durations of its children. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  start : float;
  mutable stop : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 0; open_ = [] }

let current t = match t.open_ with p :: _ -> p | [] -> -1

let push t ~parent name start =
  let sp =
    { id = t.next; name; parent; start; stop = start; minor_words = 0.;
      promoted_words = 0.; major_collections = 0 }
  in
  t.next <- t.next + 1;
  t.spans <- sp :: t.spans;
  sp

let with_span t name f =
  let g0 = Gc.quick_stat () in
  let sp = push t ~parent:(current t) name (Unix.gettimeofday ()) in
  t.open_ <- sp.id :: t.open_;
  let finish () =
    sp.stop <- Unix.gettimeofday ();
    let g1 = Gc.quick_stat () in
    sp.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
    sp.promoted_words <- g1.Gc.promoted_words -. g0.Gc.promoted_words;
    sp.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
    t.open_ <- List.tl t.open_
  in
  Fun.protect ~finally:finish f

(* Mc's [?timings] out-parameter reports phase durations, not their
   start times.  They become children of the span that is open, laid
   end to end from its start in the order Mc reports them; only
   top-level phases are kept ("explore.*" sub-phases nest inside
   "explore"). *)
let add_phases t timings =
  let parent = current t in
  let at =
    ref
      (match List.find_opt (fun s -> s.id = parent) t.spans with
      | Some s -> s.start
      | None -> 0.)
  in
  List.iter
    (fun (name, dt) ->
      if not (String.contains name '.') then begin
        let sp = push t ~parent name !at in
        sp.stop <- !at +. dt;
        at := sp.stop
      end)
    timings

let dur s = s.stop -. s.start
let spans t = List.rev t.spans

let self_time t s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. dur c else acc)
    (dur s) t.spans

let to_json t =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [ ("name", Json.Str s.name); ("id", Json.Num (float s.id));
             ("parent", Json.Num (float s.parent)); ("start", Json.Num s.start);
             ("end", Json.Num s.stop); ("self_s", Json.Num (self_time t s));
             ("minor_words", Json.Num s.minor_words);
             ("promoted_words", Json.Num s.promoted_words);
             ("major_collections", Json.Num (float s.major_collections)) ])
       (spans t))
