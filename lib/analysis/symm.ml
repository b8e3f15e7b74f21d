(* Static symmetry inference and orbit canonicalization.

   The soundness contract is spelled out in symm.mli and DESIGN.md: the
   inductive argument factors an arbitrary reachable state s of the
   unreduced system as rho . r with r a discovered representative, so
   it needs equivariance for EVERY permutation at EVERY representative.
   We obtain that by checking the two generators of S_n at every
   element of each representative's orbit: chained along the orbit,
   they imply every permutation at the representative.  Generator
   checks at the representative alone, or sampled checks, do not
   compose into a certificate. *)

open Afd_ioa

module Perm = struct
  type t = int array

  let identity n = Array.init n (fun i -> i)
  let apply (p : t) i = if i >= 0 && i < Array.length p then p.(i) else i

  let inverse (p : t) =
    let q = Array.make (Array.length p) 0 in
    Array.iteri (fun i j -> q.(j) <- i) p;
    q

  let compose (p : t) (q : t) = Array.init (Array.length p) (fun i -> p.(q.(i)))

  let all ~n =
    if n < 0 || n > 8 then
      invalid_arg (Printf.sprintf "Symm.Perm.all: n = %d out of range [0, 8]" n);
    (* Insert element [k] into every position of every permutation of
       [0..k-1]; n! results, identity first by construction for n <= 1. *)
    let rec go k =
      if k = 0 then [ [] ]
      else
        List.concat_map
          (fun perm ->
            let rec insert pre post =
              (List.rev_append pre ((k - 1) :: post))
              ::
              (match post with [] -> [] | x :: rest -> insert (x :: pre) rest)
            in
            insert [] perm)
          (go (k - 1))
    in
    go n |> List.map Array.of_list

  let is_identity (p : t) =
    let ok = ref true in
    Array.iteri (fun i j -> if i <> j then ok := false) p;
    !ok

  let to_string (p : t) =
    if is_identity p then "id"
    else begin
      (* Cycle notation over the moved points. *)
      let n = Array.length p in
      let seen = Array.make n false in
      let buf = Buffer.create 16 in
      for i = 0 to n - 1 do
        if (not seen.(i)) && p.(i) <> i then begin
          Buffer.add_char buf '(';
          let j = ref i in
          let first = ref true in
          while not seen.(!j) do
            seen.(!j) <- true;
            if not !first then Buffer.add_char buf ' ';
            first := false;
            Buffer.add_string buf (Loc.to_string !j);
            j := p.(!j)
          done;
          Buffer.add_char buf ')'
        end
      done;
      Buffer.contents buf
    end
end

(* Container actions. *)

let perm_set pi s = Loc.Set.map pi s

let perm_event perm_o pi = function
  | Afd_prop.Fd_event.Crash i -> Afd_prop.Fd_event.Crash (pi i)
  | Afd_prop.Fd_event.Output (i, o) -> Afd_prop.Fd_event.Output (pi i, perm_o pi o)

let rename_locs ~n pi name =
  let len = String.length name in
  let buf = Buffer.create len in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c = is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let i = ref 0 in
  while !i < len do
    let c = name.[!i] in
    if
      c = 'p'
      && (!i = 0 || not (is_word name.[!i - 1]))
      && !i + 1 < len
      && is_digit name.[!i + 1]
    then begin
      let j = ref (!i + 1) in
      while !j < len && is_digit name.[!j] do incr j done;
      (* A token whose digits overflow an int, or that names no
         location below [n], is not a location: copy it unchanged. *)
      (match int_of_string_opt (String.sub name (!i + 1) (!j - !i - 1)) with
      | Some idx when idx < n -> Buffer.add_string buf (Loc.to_string (pi idx))
      | Some _ | None -> Buffer.add_string buf (String.sub name !i (!j - !i)));
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Orbit canonicalization                                              *)
(* ------------------------------------------------------------------ *)

let canonizer_w (sy : ('s, 'a) Probe.symmetry) =
  let perms = Perm.all ~n:sy.Probe.sy_n in
  fun s ->
    let best = ref s and best_pi = ref (Perm.identity sy.Probe.sy_n) in
    List.iter
      (fun pi ->
        let s' = sy.Probe.sy_state (Perm.apply pi) s in
        if sy.Probe.sy_cmp s' !best < 0 then begin
          best := s';
          best_pi := pi
        end)
      perms;
    (!best, !best_pi)

(* ------------------------------------------------------------------ *)
(* The analyzer                                                        *)
(* ------------------------------------------------------------------ *)

type witness = {
  w_kind : [ `Signature | `Step | `Enabled | `Task | `Probe | `Field ];
  w_field : string option;
  w_task : string option;
  w_perm : string;
  w_state : int;
  w_detail : string;
}

type certificate = {
  c_n : int;
  c_states : int;
  c_perms : int;
  c_exhaustive : bool;
  c_fields : (string * [ `Indexed | `Invariant ]) list;
}

type verdict = Certified of certificate | Breaking of witness | Unsupported of string

let pp_witness fmt w =
  let kind =
    match w.w_kind with
    | `Signature -> "signature"
    | `Step -> "step"
    | `Enabled -> "enabledness"
    | `Task -> "task"
    | `Probe -> "probe"
    | `Field -> "field"
  in
  Format.fprintf fmt "%s not equivariant under %s at state #%d%s%s: %s" kind w.w_perm
    w.w_state
    (match w.w_field with Some f -> " (field " ^ f ^ ")" | None -> "")
    (match w.w_task with Some t -> " (task " ^ t ^ ")" | None -> "")
    w.w_detail

exception Broken of witness

let broken ?field ?task kind pi idx detail =
  Broken
    { w_kind = kind;
      w_field = field;
      w_task = task;
      w_perm = Perm.to_string pi;
      w_state = idx;
      w_detail = detail;
    }

(* Name the declared field on which two states disagree, for witness
   reporting.  [None] when every declared field agrees (the difference
   hides outside the declared decomposition) or no fields are declared. *)
let disagreeing_field fields s1 s2 =
  List.find_map
    (fun (Probe.F f) ->
      if f.f_equal (f.f_proj s1) (f.f_proj s2) then None
      else Some f.f_name)
    fields

(* One element [x] of a representative's orbit.  For each slot [i] of
   [x] (a probed action or a task), [src.(i)] is the representative's
   slot that it mirrors, [acts.(i)] its action (a task's enabled one,
   if any) and [succs.(i)] the successor [x] takes by it.  Only the
   walk's queue holds images; the orbit set keeps each [src] alone. *)
type ('s, 'a) image = {
  x : 's;
  src : int array;
  acts : 'a option array;
  succs : 's option array;
}

type ('s, 'a) quotient = por:bool -> (certificate * ('s, 'a) Space.t, witness) result

let prepare (type s a) ?equiv (aut : (s, a) Automaton.t) (probe : (s, a) Probe.t) :
    ((s, a) quotient, verdict) result =
  match probe.Probe.symm with
  | None -> Error (Unsupported "no declared symmetry")
  | Some sy ->
      let n = sy.Probe.sy_n in
      if n < 1 || n > 8 then Error (Unsupported (Printf.sprintf "n = %d out of range" n))
      else begin
        let perms = Perm.all ~n in
        let nontrivial = List.filter (fun p -> not (Perm.is_identity p)) perms in
        let pp_act a = Fmt.str "%a" probe.Probe.pp_action a in
        let equiv = Option.value ~default:probe.Probe.equal_state equiv in
        let equal_action = probe.Probe.equal_action in
        (* State-independent checks first: signature stability and
           probe-set closure under the group. *)
        let check_global () =
          List.iter
            (fun pi ->
              let pif = Perm.apply pi in
              List.iter
                (fun a ->
                  let a' = sy.Probe.sy_action pif a in
                  if Automaton.kind_of aut a <> Automaton.kind_of aut a' then
                    raise
                      (broken `Signature pi 0
                         (Fmt.str "kind(%s) differs from kind(%s)" (pp_act a)
                            (pp_act a')));
                  if
                    not
                      (List.exists (fun b -> equal_action a' b) probe.Probe.actions)
                  then
                    raise
                      (broken `Probe pi 0
                         (Fmt.str "probe set not closed: %s has no image for %s"
                            (pp_act a) (pp_act a'))))
                probe.Probe.actions)
            nontrivial
        in
        (* Field classification: a field is [`Indexed] once some check
           sees it move, and the check raises when the declared
           transport law fails.  Every walk marks the run's [moved]. *)
        let fields = Array.of_list sy.Probe.sy_fields in
        let check_fields moved pi pif r r' idx =
          Array.iteri
            (fun k (Probe.F f) ->
              let here = f.f_proj r in
              let there = f.f_proj r' in
              if not (f.f_equal there (f.f_perm pif here)) then
                raise
                  (broken ~field:f.f_name `Field pi idx
                     "declared transport law fails: field of permuted state is not \
                      the permuted field");
              if not (f.f_equal there here) then moved.(k) <- true)
            fields
        in
        (* A state's slots: the probed actions (in probe order), then
           the tasks (in task order).  A permutation moves a probed
           action to the first probed action equal to its image (one
           exists once [check_global] passes), and a task to its
           mirror: the task named by renaming its locations, which must
           exist and carry the same fairness flag.  Like the global
           checks, the slot maps are state-independent. *)
        let tasks = Array.of_list aut.Automaton.tasks in
        let nprobe = List.length probe.Probe.actions in
        let nslots = nprobe + Array.length tasks in
        let index p xs =
          let rec go i = function
            | [] -> None
            | x :: xs -> if p x then Some i else go (i + 1) xs
          in
          go 0 xs
        in
        let slot_map pi =
          let pif = Perm.apply pi in
          let mirror (t : (s, a) Automaton.task) =
            let name' = rename_locs ~n pif t.Automaton.task_name in
            let broken = broken ~task:t.Automaton.task_name `Task pi 0 in
            match
              index
                (fun (t' : (s, a) Automaton.task) ->
                  String.equal t'.Automaton.task_name name')
                aut.Automaton.tasks
            with
            | None -> raise (broken (Fmt.str "no task named %s to mirror it" name'))
            | Some j ->
                if tasks.(j).Automaton.fair <> t.Automaton.fair then
                  raise (broken (Fmt.str "fairness flag differs from task %s" name'));
                nprobe + j
          in
          let image a =
            Option.get (index (equal_action (sy.Probe.sy_action pif a)) probe.Probe.actions)
          in
          ( pi,
            pif,
            Array.append
              (Array.of_list (List.map image probe.Probe.actions))
              (Array.map mirror tasks) )
        in
        let own r =
          let acts =
            Array.append
              (Array.of_list (List.map Option.some probe.Probe.actions))
              (Array.map (fun (t : (s, a) Automaton.task) -> t.Automaton.enabled r) tasks)
          in
          { x = r;
            src = Array.init nslots Fun.id;
            acts;
            succs = Array.map (fun a -> Option.bind a (aut.Automaton.step r)) acts;
          }
        in
        (* Equivariance of one step: [x] takes [a] to [succ], and
           [x'], the image of [x] under [pi], must take [a_img] to the
           image of [succ], up to [equiv].  [a_img] stands for the
           permuted [a] — for task checks it is the mirror task's own
           enabled action, which is [equal_action]-equal to the
           transported one but produced by the automaton itself, exactly
           as quotient exploration produces it (transported payloads may
           be semantically equal yet structurally distinct rebuilds).
           Returns [x']'s successor, if any. *)
        let check_step pi pif x' idx a succ a_img =
          let s1 = Option.map (sy.Probe.sy_state pif) succ in
          let s2 = aut.Automaton.step x' a_img in
          match (s1, s2) with
          | None, None -> None
          | Some t1, Some t2 when equiv t1 t2 -> s2
          | Some t1, Some t2 ->
              raise
                (broken ?field:(disagreeing_field sy.Probe.sy_fields t2 t1) `Step pi idx
                   (Fmt.str "successors of %s diverge from the permuted successor"
                      (pp_act a)))
          | Some _, None | None, Some _ ->
              raise
                (broken `Step pi idx
                   (Fmt.str "%s %s in the permuted state" (pp_act a)
                      (if s1 = None then "becomes enabled" else "is disabled")))
        in
        (* Equivariance under [pi] at [e]: the declared fields, the
           probed actions' steps, and each task's mirror (its enabled
           action is the permuted one, its successor the permuted
           successor).  Returns the image of [e], with the image's own
           actions and successors in its own slots. *)
        let check_image moved pi pif slot idx e =
          let y = sy.Probe.sy_state pif e.x in
          check_fields moved pi pif e.x y idx;
          let src = Array.make nslots 0 in
          let acts = Array.make nslots None and succs = Array.make nslots None in
          Array.iteri
            (fun i a ->
              let j = slot.(i) in
              let take a a' =
                acts.(j) <- Some a';
                succs.(j) <- check_step pi pif y idx a e.succs.(i) a'
              in
              src.(j) <- e.src.(i);
              if i < nprobe then
                let a = Option.get a in
                take a (sy.Probe.sy_action pif a)
              else
                let t = tasks.(i - nprobe) and t' = tasks.(j - nprobe) in
                match (a, t'.Automaton.enabled y) with
                | None, None -> ()
                | Some a, Some a' when equal_action (sy.Probe.sy_action pif a) a' -> take a a'
                | _ ->
                    raise
                      (broken ~task:t.Automaton.task_name `Enabled pi idx
                         (Fmt.str "task %s enabled action is not the permuted one"
                            t'.Automaton.task_name)))
            e.acts;
          { x = y; src; acts; succs }
        in
        let module Orbit = Map.Make (struct
          type t = s

          let compare = sy.Probe.sy_cmp
        end) in
        (* Walk [r]'s orbit and return [r]'s own slots with their
           successors already canonized.  The orbit minimum of [r]'s
           successor in slot [k] is the minimum over the successors, at
           every orbit element, in the slots that mirror a slot of
           [k]'s class under [r]'s stabilizer; a generator step landing
           on a known element yields a stabilizer element, whose slot
           pairs are merged. *)
        let walk moved generators r idx =
          let e = own r in
          let best = Array.copy e.succs in
          let offer k = function
            | Some s -> (
                match best.(k) with
                | Some b when sy.Probe.sy_cmp s b < 0 -> best.(k) <- Some s
                | Some _ | None -> ())
            | None -> ()
          in
          let parent = Array.init nslots Fun.id in
          let rec find k = if parent.(k) = k then k else find parent.(k) in
          let union j k =
            let j = find j and k = find k in
            if j < k then parent.(k) <- j else if k < j then parent.(j) <- k
          in
          let orbit = ref (Orbit.singleton r e.src) in
          let queue = Queue.create () in
          Queue.add e queue;
          while not (Queue.is_empty queue) do
            let e = Queue.pop queue in
            List.iter
              (fun (g, gf, slot) ->
                let img = check_image moved g gf slot idx e in
                match Orbit.find_opt img.x !orbit with
                | Some src -> Array.iter2 union img.src src
                | None ->
                    Array.iteri (fun j s -> offer img.src.(j) s) img.succs;
                    orbit := Orbit.add img.x img.src !orbit;
                    Queue.add img queue)
              generators
          done;
          Array.iteri (fun k s -> if find k <> k then offer (find k) s) best;
          (e.acts, Array.init nslots (fun k -> best.(find k)))
        in
        (* When the walk breaks, the witness comes from every
           nontrivial permutation at [r] in [Perm.all] order, as a full
           sweep would name it; the generator's witness stands only if
           that sweep passes. *)
        let check_rep moved slot_maps generators r idx =
          try walk moved generators r idx
          with Broken w ->
            let e = own r in
            List.iter
              (fun (pi, pif, slot) -> ignore (check_image moved pi pif slot idx e))
              slot_maps;
            raise (Broken w)
        in
        match
          check_global ();
          List.map slot_map nontrivial
        with
        | exception Broken w -> Error (Breaking w)
        | slot_maps ->
            (* The two generators of S_n: the transposition (p0 p1) and
               the n-cycle, which coincide at n = 2.  Checked at every
               element of a representative's orbit, they imply every
               permutation at the representative (DESIGN.md, "Orbit
               reduction"). *)
            let swap = Array.init n (fun i -> if i < 2 then 1 - i else i) in
            let cycle = Array.init n (fun i -> (i + 1) mod n) in
            let generators =
              List.filter (fun (pi, _, _) -> pi = swap || pi = cycle) slot_maps
            in
            let canon =
              let c = canonizer_w sy in
              fun s -> fst (c s)
            in
            (* Diamonds are closed through canonized steps: POR compares
               representatives, as the seen-set does. *)
            let qaut =
              { aut with
                Automaton.start = canon aut.Automaton.start;
                step = (fun s a -> Option.map canon (aut.Automaton.step s a));
              }
            in
            let qprobe =
              { probe with Probe.seed_states = List.map canon probe.Probe.seed_states }
            in
            (* A representative's moves: its own enabled tasks and
               actions, each successor the class minimum the walk found. *)
            let moves moved idx r =
              let acts, best = check_rep moved slot_maps generators r idx in
              let enabled =
                Array.of_list
                  (List.filter_map
                     (fun j -> Option.map (fun a -> (j, a)) acts.(nprobe + j))
                     (List.init (Array.length tasks) Fun.id))
              in
              let move t = (tasks.(fst enabled.(t)), snd enabled.(t)) in
              { Space.m_tasks = Array.map fst enabled;
                m_acts = Array.map snd enabled;
                m_probe = (fun p -> best.(p));
                m_step = (fun t -> best.(nprobe + fst enabled.(t)));
                m_commute = (fun u t -> Space.commute qaut probe r (move u) (move t));
              }
            in
            Ok
              (fun ~por ->
                let moved = Array.make (Array.length fields) false in
                match Space.explore_with ~por (moves moved) qaut qprobe with
                | exception Broken w -> Error w
                | space ->
                    Ok
                      ( { c_n = n;
                          c_states = Array.length space.Space.states;
                          c_perms = List.length perms;
                          c_exhaustive = space.Space.verdict = Space.Exhausted;
                          c_fields =
                            List.mapi
                              (fun k (Probe.F f) ->
                                (f.f_name, if moved.(k) then `Indexed else `Invariant))
                              sy.Probe.sy_fields;
                        },
                        space ))
      end

let explore ~por q = q ~por

let analyze aut probe =
  match prepare aut probe with
  | Error v -> v
  | Ok q -> (
      match explore ~por:false q with
      | Ok (c, _) -> Certified c
      | Error w -> Breaking w)
