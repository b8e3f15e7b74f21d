(* Compile a formula to an incremental monitor.  Each clause becomes a
   runner; safety-flavoured runners (Always/Until/Fold steps) latch the
   first violation together with its trace index, stable-suffix
   judgements are recomputed on the current summary and never latch.
   A ring buffer of the last [window] events provides the witness
   window for counterexamples; total live memory is O(window + |acc|),
   independent of the trace length. *)

type 'o kind =
  | K_always of 'o Prop.event_check
  | K_until of {
      release : 'o Prop.state -> bool;
      check : 'o Prop.event_check;
      mutable released : bool;
    }
  | K_stable of 'o Prop.state_judge
  | K_fold : { fold : ('o, 'acc) Prop.fold; mutable acc : 'acc } -> 'o kind

type 'o runner = {
  cname : string;
  kind : 'o kind;
  mutable latched : (int * string) option;
}

type 'o t = {
  window : int;
  mutable st : 'o Prop.state;
  runners : 'o runner array;
  ring : 'o Fd_event.t option array;
  mutable first : 'o Counterexample.t option;
}

let default_window = 16

let create ?(window = default_window) ~n prop =
  let runners =
    Prop.clauses prop
    |> List.map (fun (cname, clause) ->
           let kind =
             match clause with
             | Prop.Always check -> K_always check
             | Prop.Until (release, check) -> K_until { release; check; released = false }
             | Prop.Stable judge -> K_stable judge
             | Prop.Fold fold -> K_fold { fold; acc = fold.Prop.finit }
           in
           { cname; kind; latched = None })
    |> Array.of_list
  in
  let window = max window 1 in
  { window;
    st = Prop.init ~n;
    runners;
    ring = Array.make window None;
    first = None;
  }

(* Events with indices in [max 0 (upto+1-window), upto], oldest first. *)
let window_events m upto =
  let start = max 0 (upto + 1 - m.window) in
  let evs =
    List.init (upto + 1 - start) (fun k ->
        match m.ring.((start + k) mod m.window) with
        | Some e -> e
        | None -> assert false)
  in
  (evs, start)

let latch m r idx reason e =
  r.latched <- Some (idx, reason);
  if m.first = None then begin
    let window, window_start = window_events m idx in
    m.first <-
      Some
        { Counterexample.index = idx;
          clause = r.cname;
          reason;
          event = Some e;
          window;
          window_start;
        }
  end

let observe m e =
  let pre = m.st in
  let idx = pre.Prop.len in
  m.ring.(idx mod m.window) <- Some e;
  m.st <- Prop.update pre e;
  Array.iter
    (fun r ->
      if r.latched = None then
        match r.kind with
        | K_always check -> (
          match check pre e with Ok () -> () | Error reason -> latch m r idx reason e)
        | K_until u ->
          if not u.released then
            if u.release pre then u.released <- true
            else (
              match u.check pre e with
              | Ok () -> ()
              | Error reason -> latch m r idx reason e)
        | K_stable _ -> ()
        | K_fold f -> (
          match f.fold.Prop.fstep pre f.acc e with
          | Ok acc' -> f.acc <- acc'
          | Error reason -> latch m r idx reason e))
    m.runners

let length m = m.st.Prop.len
let state m = m.st

let runner_judgement m r =
  match r.latched with
  | Some (_, reason) -> Prop.J_violated (Lazy.from_val reason)
  | None -> (
    match r.kind with
    | K_always _ | K_until _ -> Prop.J_sat
    | K_stable judge -> judge m.st
    | K_fold f -> f.fold.Prop.fjudge m.st f.acc)

let runner_verdict m r = Prop.to_verdict (runner_judgement m r)

let clause_judgements m =
  Array.to_list (Array.map (fun r -> (r.cname, runner_judgement m r)) m.runners)

let clause_verdicts m =
  List.map (fun (c, j) -> (c, Prop.to_verdict j)) (clause_judgements m)

(* [Verdict.tag] on a lazy reason. *)
let tag name = function
  | Prop.J_sat -> Prop.J_sat
  | Prop.J_violated r -> Prop.J_violated (lazy (name ^ ": " ^ Lazy.force r))
  | Prop.J_undecided r -> Prop.J_undecided (lazy (name ^ ": " ^ Lazy.force r))

let judgement m =
  Array.fold_left
    (fun acc r -> Prop.j_and acc (tag r.cname (runner_judgement m r)))
    Prop.J_sat m.runners

let verdict m = Prop.to_verdict (judgement m)

let counterexample m =
  match m.first with
  | Some _ as c -> c
  | None ->
    let rec find k =
      if k >= Array.length m.runners then None
      else
        match runner_verdict m m.runners.(k) with
        | Verdict.Violated reason ->
          let idx = max 0 (m.st.Prop.len - 1) in
          let window, window_start =
            if m.st.Prop.len = 0 then ([], 0) else window_events m idx
          in
          Some
            { Counterexample.index = idx;
              clause = m.runners.(k).cname;
              reason;
              event = None;
              window;
              window_start;
            }
        | Verdict.Sat | Verdict.Undecided _ -> find (k + 1)
    in
    find 0

let replay ?window ~n prop t =
  let m = create ?window ~n prop in
  List.iter (observe m) t;
  verdict m
