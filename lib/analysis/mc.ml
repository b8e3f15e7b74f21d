open Afd_ioa
module P = Afd_prop.Prop
module Fd_event = Afd_prop.Fd_event
module Counterexample = Afd_prop.Counterexample
module Monitor = Afd_prop.Monitor

type 'o violation = {
  clause : string;
  reason : string;
  kind : [ `Edge | `Judgement ];
  depth : int;
  counterexample : 'o Counterexample.t;
  confirmed : bool;
}

type 'o lasso = {
  l_clause : string;
  l_reason : string;
  l_kind : [ `Cycle | `Stop ];
  l_depth : int;
  l_stem : 'o Fd_event.t list;
  l_cycle : 'o Fd_event.t list;
  l_confirmed : bool;
}

(* How symmetry reduction went for a run: off, engaged with a
   certificate, refused with a concrete breaking witness, or refused
   because the spec or system lacks the transports certification
   needs.  Breaking and fallback runs are plain unreduced runs. *)
type sym_status =
  | Sym_off
  | Sym_quotient of Symm.certificate
  | Sym_breaking of Symm.witness
  | Sym_fallback of string

(* A permutation action on detector states together with a total
   order whose equality is structural equality, so that [Hashtbl.hash]
   is a congruent hash.  Location sets are words, so a
   [Loc.Set.map]-transported set is the very value a stepped one is. *)
type 's state_symmetry = {
  ss_perm : (int -> int) -> 's -> 's;
  ss_cmp : 's -> 's -> int;
}

let sym_set = { ss_perm = Loc.Set.map; ss_cmp = Loc.Set.compare }

let sym_pair a b =
  { ss_perm = (fun pif (x, y) -> (a.ss_perm pif x, b.ss_perm pif y));
    ss_cmp =
      (fun (x1, y1) (x2, y2) ->
        let c = a.ss_cmp x1 x2 in
        if c <> 0 then c else b.ss_cmp y1 y2);
  }

(* For identity-independent components carried alongside symmetric
   ones (flags, counters, scripted noise): the permutation leaves the
   component alone and structural identity is exact. *)
let sym_rigid = { ss_perm = (fun _ x -> x); ss_cmp = Stdlib.compare }

type 'o outcome = {
  verdict : Space.verdict;
  states : int;
  transitions : int;
  safety_clauses : string list;
  liveness_clauses : string list;
  liveness_proved : string list;
  liveness_skipped : string list;
  violations : 'o violation list;
  lassos : 'o lasso list;
  safety_proved : bool;
  proved : bool;
  por : bool;
  sym : sym_status;
  stats : Space.stats;
}

let default_max_states = 20_000

(* The trace-length cap of the product identity (see the interface). *)
let len_cap = 8

(* Phase timings are an out-parameter, never part of the outcome
   record: a profiled run stays byte-identical to an unprofiled one.
   [log] collects them newest first; [note] adds [dt] seconds to phase
   [name], logging it if new. *)
let note log name dt =
  Option.iter
    (fun l ->
      l :=
        if List.mem_assoc name !l then
          List.map (fun (k, d) -> (k, if k = name then d +. dt else d)) !l
        else (name, dt) :: !l)
    log

let timed log name f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  note log name (Unix.gettimeofday () -. t0);
  x

(* Per-clause runtime carried in each product state.  [Fold]
   accumulators are existential (each clause brings its own ['acc]);
   packing the accumulator with its fold keeps the types aligned, the
   same trick [Component.inst] uses for component states. *)
type 'o rt =
  | C_always of 'o P.event_check
  | C_until of {
      release : 'o P.state -> bool;
      check : 'o P.event_check;
      released : bool;
    }
  | C_fold : { fold : ('o, 'acc) P.fold; acc : 'acc } -> 'o rt

(* Structural comparison across an existential boundary — exact for the
   first-order accumulators the catalog uses (sets, lists, pairs);
   values that defeat [compare] (closures) compare unequal, which only
   splits states, never merges wrongly. *)
let obj_equal a b =
  try Stdlib.compare (Obj.repr a) (Obj.repr b) = 0 with Invalid_argument _ -> false

let rt_equal a b =
  match (a, b) with
  | C_always _, C_always _ -> true
  | C_until u, C_until v -> u.released = v.released
  | C_fold f, C_fold g -> obj_equal f.acc g.acc
  | _ -> false

(* Total order on runtimes, for orbit minima only: accumulators compare
   through the fold's [fcmp], which is 0 exactly on structurally equal
   accumulators (see [Prop.fold]), so the order is congruent with
   [rt_equal].  The two [C_fold]s at one array index carry the same
   clause's fold, so the cast stays inside one existential instance. *)
let rt_cmp a b =
  match (a, b) with
  | C_always _, C_always _ -> 0
  | C_until u, C_until v -> Bool.compare u.released v.released
  | C_fold f, C_fold g -> (
    match f.fold.P.fcmp with
    | Some c -> c f.acc (Obj.magic g.acc)
    | None ->
      (* [prepare] falls back before any quotient when a fold lacks
         [fcmp]; guessing here could only merge states wrongly. *)
      invalid_arg "Mc.rt_cmp: fold clause has no accumulator order (fcmp)")
  | C_always _, _ -> -1
  | _, C_always _ -> 1
  | C_until _, C_fold _ -> -1
  | C_fold _, C_until _ -> 1

type ('s, 'o) pstate =
  | Running of { sys : 's; summary : 'o P.state; rts : 'o rt array }
  | Latched of { clause : string; reason : string }

exception Latch of string * string

let no_perm_out = "spec declares no output transport (perm_out)"

(* The closed system as the stages consume it: the detector+crash pair
   automaton and — when symmetry is requested and the spec can
   transport outputs — the permutation action on pair states together
   with the one on output payloads.  Pair states and output payloads
   compare structurally. *)
type ('s, 'o) system = {
  sys : ('s * Loc.Set.t, 'o Fd_event.t) Automaton.t;
  symmetry :
    (('s * Loc.Set.t, 'o Fd_event.t) Probe.symmetry * ((int -> int) -> 'o -> 'o)) option;
}

(* --- stage 1, explore: clause runtime, product, identity, symmetry,
   exploration --- *)

(* The clause runtime: one slot per safety clause, stepped along every
   product edge; the [Stable] judges are read by the liveness stage
   only. *)
type 'o runtime = {
  names : string array;
  init_rts : 'o rt array;
  stables : (string * 'o P.state_judge) list;
}

let clause_runtime prop =
  let safety, stables =
    List.partition_map
      (fun (nm, c) ->
        match c with
        | P.Stable judge -> Either.Right (nm, judge)
        | _ -> Either.Left (nm, c))
      (P.clauses prop)
  in
  let init = function
    | P.Always chk -> C_always chk
    | P.Until (release, check) -> C_until { release; check; released = false }
    | P.Fold f -> C_fold { fold = f; acc = f.P.finit }
    | P.Stable _ -> assert false
  in
  { names = Array.of_list (List.map fst safety);
    init_rts = Array.of_list (List.map (fun (_, c) -> init c) safety);
    stables;
  }

let step_rt summary act = function
  | C_always chk as c -> (
    match chk summary act with Ok () -> c | Error r -> raise (Latch ("", r)))
  | C_until u as c ->
    if u.released then c
    else if u.release summary then C_until { u with released = true }
    else (match u.check summary act with Ok () -> c | Error r -> raise (Latch ("", r)))
  | C_fold { fold; acc } -> (
    match fold.P.fstep summary acc act with
    | Ok acc' -> C_fold { fold; acc = acc' }
    | Error r -> raise (Latch ("", r)))

(* The product of [sys] with the clause runtime: a clause that errors
   on an edge latches the edge's destination as a violating sink. *)
let product ~n rt sys =
  let pstep st act =
    match st with
    | Latched _ -> None
    | Running r -> (
      match sys.Automaton.step r.sys act with
      | None -> None
      | Some sys' -> (
        match
          Array.mapi
            (fun i c ->
              try step_rt r.summary act c
              with Latch (_, reason) -> raise (Latch (rt.names.(i), reason)))
            r.rts
        with
        | rts -> Some (Running { sys = sys'; summary = P.update r.summary act; rts })
        | exception Latch (clause, reason) -> Some (Latched { clause; reason })))
  in
  { Automaton.name = sys.Automaton.name ^ "(x)prop";
    kind = sys.Automaton.kind;
    start =
      Running { sys = sys.Automaton.start; summary = P.init ~n; rts = rt.init_rts };
    step = pstep;
    tasks =
      List.map
        (fun tk ->
          { Automaton.task_name = tk.Automaton.task_name;
            fair = tk.Automaton.fair;
            enabled =
              (function Latched _ -> None | Running r -> tk.Automaton.enabled r.sys);
          })
        sys.Automaton.tasks;
  }

(* Product identity: exactly the fields a safety clause may read (see
   the interface).  The pair state and the [Fold] accumulators compare
   structurally, the trace summary through the capped length and the
   crashed set; the stored representative is the one discovered first.
   [tl] is whether the liveness enrichment (last outputs, payloads
   compared structurally) joins the identity. *)
let pequal tl a b =
  match (a, b) with
  | Latched a, Latched b ->
    String.equal a.clause b.clause && String.equal a.reason b.reason
  | Running a, Running b ->
    Stdlib.compare a.sys b.sys = 0
    && min a.summary.P.len len_cap = min b.summary.P.len len_cap
    && Loc.Set.equal a.summary.P.crashed b.summary.P.crashed
    && Array.for_all2 rt_equal a.rts b.rts
    && ((not tl) || Loc.Map.equal ( = ) a.summary.P.last_output b.summary.P.last_output)
  | Latched _, Running _ | Running _, Latched _ -> false

let mix h v = (h * 131) + v

(* Product hash, congruent with [pequal]: it reads every field the
   equality reads, folding over maps in their key order rather than
   building lists.  Structurally equal pair states, accumulators and
   [last_output] payloads hash equal. *)
let phash tl =
  let mix_out l o h = mix (mix h l) (Hashtbl.hash o) in
  function
  | Latched { clause; reason } -> Hashtbl.hash (clause, reason)
  | Running r ->
    let s = r.summary in
    let h = mix (Composition.hash_pair r.sys) (min s.P.len len_cap) in
    let h = mix (mix h (-1)) (Loc.hash_set s.P.crashed) in
    let h =
      Array.fold_left
        (fun h c ->
          match c with
          | C_always _ -> h
          | C_until u -> mix h (Bool.to_int u.released)
          | C_fold f -> mix h (Hashtbl.hash (Obj.repr f.acc)))
        h r.rts
    in
    if not tl then h else Loc.Map.fold mix_out s.P.last_output (mix h (-2))

let perm_rt pif = function
  | (C_always _ | C_until _) as c -> c
  | C_fold { fold; acc } -> (
    match fold.P.fperm with
    | Some fp -> C_fold { fold; acc = fp pif acc }
    | None -> assert false)

let rec cmp_rts ra rb i =
  if i = Array.length ra then 0
  else
    let c = rt_cmp ra.(i) rb.(i) in
    if c <> 0 then c else cmp_rts ra rb (i + 1)

(* The system's symmetry lifted to product states. *)
let lift_symmetry (sy : (_, _ Fd_event.t) Probe.symmetry) perm_o =
  let pperm pif = function
    | Latched _ as st -> st
    | Running r ->
      Running
        { sys = sy.Probe.sy_state pif r.sys;
          summary = P.permute pif (perm_o pif) r.summary;
          rts = Array.map (perm_rt pif) r.rts;
        }
  in
  (* A total order congruent with [pequal false]: orbit minima
     are canonical representatives.  The liveness enrichment is
     deliberately absent — under a quotient, liveness is not checked,
     exactly as under POR. *)
  let pcmp a b =
    match (a, b) with
    | Latched a, Latched b -> Stdlib.compare (a.clause, a.reason) (b.clause, b.reason)
    | Latched _, Running _ -> -1
    | Running _, Latched _ -> 1
    | Running a, Running b ->
      let c = sy.Probe.sy_cmp a.sys b.sys in
      if c <> 0 then c
      else
        let len (r : _ P.state) = min r.P.len len_cap in
        let c = Stdlib.compare (len a.summary) (len b.summary) in
        if c <> 0 then c
        else
          let c = Loc.Set.compare a.summary.P.crashed b.summary.P.crashed in
          if c <> 0 then c else cmp_rts a.rts b.rts 0
  in
  { Probe.sy_n = sy.Probe.sy_n;
    sy_state = pperm;
    sy_action = sy.Probe.sy_action;
    sy_cmp = pcmp;
    sy_fields = [];
  }

let status_of = function
  | Symm.Certified c -> Sym_quotient c
  | Symm.Breaking w -> Sym_breaking w
  | Symm.Unsupported r -> Sym_fallback r

(* Lift the declared system action to product states and run the
   state-independent checks, or fall back.  The quotient's seen-set is
   the explore stage's safety identity; the walk compares latched
   states by clause only: latch reasons embed permuted location names,
   and a latch is absorbing, so the coarse identity is still a
   bisimulation on the part that matters. *)
let prepare ~max_states prop product (sy, perm_o) =
  match
    List.find_map
      (fun (nm, c) ->
        match c with
        | P.Fold f when f.P.fperm = None ->
          Some (nm, "accumulator transport (fperm)")
        | P.Fold f when f.P.fcmp = None -> Some (nm, "accumulator order (fcmp)")
        | _ -> None)
      (P.clauses prop)
  with
  | Some (nm, what) ->
    Error (Sym_fallback (Printf.sprintf "fold clause %s has no %s" nm what))
  | None -> (
    let q_sy = lift_symmetry sy perm_o in
    let equal = pequal false in
    let equiv a b =
      match (a, b) with
      | Latched a, Latched b -> String.equal a.clause b.clause
      | _ -> equal a b
    in
    let probe =
      Probe.make ~equal_state:equal ~hash_state:(phash false) ~max_states ~symm:q_sy []
    in
    match Symm.prepare ~equiv product probe with
    | Ok q -> Ok (q_sy, q)
    | Error v -> Error (status_of v))

(* The explore stage's hand-off to the safety and liveness stages: the
   product and its clause runtime (clause names, [Stable] judges), the
   explored graph, and how symmetry resolved ([quotient] is [Some]
   exactly on a certificate). *)
type ('s, 'o) explored = {
  product : (('s, 'o) pstate, 'o Fd_event.t) Automaton.t;
  runtime : 'o runtime;
  space : (('s, 'o) pstate, 'o Fd_event.t) Space.t;
  quotient : (('s, 'o) pstate, 'o Fd_event.t) Probe.symmetry option;
  status : sym_status;
}

(* The unreduced run's probe.  Stable judges read [last_output], so
   when liveness is in scope it joins the product identity.  Under POR
   the sleep sets preserve states, not edges, so fair-cycle search is
   off and the coarser safety identity suffices. *)
let unreduced_probe ~max_states ~por runtime =
  let track_live = runtime.stables <> [] && not por in
  Probe.make ~equal_state:(pequal track_live) ~hash_state:(phash track_live)
    ~max_states []

let explore ~max_states ~por ~log ~n prop system =
  let runtime = clause_runtime prop in
  let product = product ~n runtime system.sys in
  let unreduced status =
    let probe = unreduced_probe ~max_states ~por runtime in
    let space = timed log "explore" (fun () -> Space.explore ~por product probe) in
    { product; runtime; space; quotient = None; status }
  in
  match system.symmetry with
  | None -> unreduced Sym_off
  | Some lift -> (
    match
      timed log "symmetry" (fun () -> prepare ~max_states prop product lift)
    with
    | Error status -> unreduced status
    | Ok (q_sy, q) -> (
      (* The quotient run certifies as it explores: it is the explore
         phase when it certifies, and certification cost when it
         breaks.  A symmetry quotient merges fair cycles, so liveness
         is off there, as under POR. *)
      let t0 = Unix.gettimeofday () in
      let attempt = Symm.explore ~por q in
      let dt = Unix.gettimeofday () -. t0 in
      match attempt with
      | Ok (cert, space) ->
        note log "explore" dt;
        { product; runtime; space; quotient = Some q_sy; status = Sym_quotient cert }
      | Error w ->
        note log "symmetry" dt;
        unreduced (Sym_breaking w)))

(* --- stage 2, safety: judges, inescapability, candidates, path
   lifting, replay --- *)

(* The first violated [Fold] judge of a reachable Running state: its
   clause slot and its (lazy) reason. *)
let judge_violation = function
  | Latched _ -> None
  | Running r ->
    let res = ref None in
    Array.iteri
      (fun i c ->
        if Option.is_none !res then
          match c with
          | C_fold { fold; acc } -> (
            match fold.P.fjudge r.summary acc with
            | P.J_violated reason -> res := Some (i, reason)
            | P.J_sat | P.J_undecided _ -> ())
          | C_always _ | C_until _ -> ())
      r.rts;
    !res

(* Every state's first violated clause slot, or -1.  Reasons are not
   kept: the few that are printed are re-judged by [candidates]. *)
let judge_all states =
  Array.map (fun st -> match judge_violation st with Some (i, _) -> i | None -> -1) states

(* A judged violation counts only if inescapable: no path from it
   reaches a non-violated Running state.  Reverse reachability from the
   good states over the explored edges — sound as a claim about the
   system only under an [Exhausted] verdict. *)
let inescapable (space : _ Space.t) judged =
  if space.Space.verdict <> Space.Exhausted then fun _ -> false
  else begin
    let nstates = Array.length space.Space.states in
    let escapes = Array.make nstates false in
    let radj = Array.make nstates [] in
    Array.iter
      (fun e -> radj.(e.Space.dst) <- e.Space.src :: radj.(e.Space.dst))
      space.Space.edges;
    let q = Queue.create () in
    Array.iteri
      (fun i st ->
        match st with
        | Running _ when judged.(i) < 0 ->
          escapes.(i) <- true;
          Queue.add i q
        | Running _ | Latched _ -> ())
      space.Space.states;
    while not (Queue.is_empty q) do
      List.iter
        (fun p ->
          if not escapes.(p) then begin
            escapes.(p) <- true;
            Queue.add p q
          end)
        radj.(Queue.pop q)
    done;
    fun i -> judged.(i) >= 0 && not escapes.(i)
  end

(* Candidate violations, one per clause, newest first; discovery order
   is nondecreasing depth (no seed states here), so each clause's is
   its shallowest.  A judged reason is formatted only here, for the
   candidate recorded: its state is judged again. *)
let candidates names (space : _ Space.t) judged inescapable_at =
  let found = ref [] in
  let seen_clause = Hashtbl.create 8 in
  Array.iteri
    (fun i st ->
      let record kind clause reason =
        if not (Hashtbl.mem seen_clause clause) then begin
          Hashtbl.add seen_clause clause ();
          found := (i, kind, clause, reason ()) :: !found
        end
      in
      (match st with
      | Latched { clause; reason } -> record `Edge clause (fun () -> reason)
      | Running _ -> ());
      if inescapable_at i then
        record `Judgement names.(judged.(i)) (fun () ->
            match judge_violation st with
            | Some (_, reason) -> Lazy.force reason
            | None -> assert false))
    space.Space.states;
  !found

(* Under a quotient the stored parent edges carry representative states
   and orbit-internal actions; stitching them together is not a run of
   the original system.  Lift instead: walk the chain maintaining the
   permutation [rho] with s_i = rho_i(r_i) for the genuine original run
   s_0 s_1 ... — each emitted action is rho_i(a_i), and rho advances by
   the canonizing permutation of the raw successor.  The lifted path
   replays through the monitor, which independently re-derives the
   violation. *)
let lift_path ex q_sy i =
  let space = ex.space in
  let rec collect j acc =
    match space.Space.parent.(j) with
    | None -> acc
    | Some (p, a) -> collect p ((p, a) :: acc)
  in
  let canon = Symm.canonizer_w q_sy in
  let _, sigma0 = canon ex.product.Automaton.start in
  let rho = ref (Symm.Perm.inverse sigma0) in
  List.map
    (fun (j, a) ->
      let b = q_sy.Probe.sy_action (Symm.Perm.apply !rho) a in
      (match ex.product.Automaton.step space.Space.states.(j) a with
      | Some t ->
        let _, sigma = canon t in
        rho := Symm.Perm.compose !rho (Symm.Perm.inverse sigma)
      | None -> ());
      b)
    (collect i [])

let safety ~n prop ex =
  let judged = judge_all ex.space.Space.states in
  List.rev_map
    (fun (i, kind, clause, reason) ->
      let path =
        match ex.quotient with
        | None -> Space.path_actions ex.space i
        | Some q -> lift_path ex q i
      in
      let m = Monitor.create ~n prop in
      List.iter (Monitor.observe m) path;
      let replay = Monitor.judgement m in
      (* A quotient-discovered latch reason names representative
         locations; the replay of the lifted path names the real ones
         (minus the clause prefix the monitor prepends).  Unreduced
         runs read only the replay's class, so format no reason. *)
      let reason =
        match (ex.quotient, replay) with
        | Some _, P.J_violated r ->
          let r = Lazy.force r in
          let prefix = clause ^ ": " in
          let lp = String.length prefix in
          if String.length r >= lp && String.equal (String.sub r 0 lp) prefix then
            String.sub r lp (String.length r - lp)
          else r
        | _ -> reason
      in
      { clause;
        reason;
        kind;
        depth = ex.space.Space.depth.(i);
        counterexample = Counterexample.of_path ~clause ~reason path;
        confirmed =
          (match replay with P.J_violated _ -> true | P.J_sat | P.J_undecided _ -> false);
      })
    (candidates ex.runtime.names ex.space judged (inescapable ex.space judged))
  |> List.sort (fun a b -> compare a.depth b.depth)

(* --- stage 3, liveness: pivot search, lasso replay --- *)

(* The shallowest pivot of a [Stable] clause: a reachable Running state
   with a non-[Sat] judge that lies on a weakly fair cycle (the judge
   stays non-[Sat] forever along the loop — the enriched identity makes
   the judge a function of the merged state) or is a fair stop (a
   maximal fair execution ends with the "eventually" still pending).
   Discovery order is nondecreasing depth, so the first pivot found
   yields the shortest stem; the graph tests go first, so the judge
   runs only on pivot candidates, and only the returned pivot's reason
   is formatted. *)
let find_pivot live (space : _ Space.t) judge =
  let nstates = Array.length space.Space.states in
  let pivot = ref None and i = ref 0 in
  while !pivot = None && !i < nstates do
    (match space.Space.states.(!i) with
    | Latched _ -> ()
    | Running r -> (
      let kind =
        if Live.fair_cycle_through live !i then Some `Cycle
        else if Live.fair_stop_at live !i then Some `Stop
        else None
      in
      match kind with
      | None -> ()
      | Some kind -> (
        match judge r.summary with
        | P.J_sat -> ()
        | P.J_violated reason | P.J_undecided reason ->
          pivot := Some (!i, Lazy.force reason, kind))));
    incr i
  done;
  !pivot

(* Replay through the online monitor: after the stem and after every
   unrolling of the cycle, the clause's verdict must still not be
   [Sat]. *)
let lasso_confirmed ~n prop cname stem cyc =
  List.for_all
    (fun k ->
      let m = Monitor.create ~n prop in
      List.iter (Monitor.observe m) stem;
      for _ = 1 to k do
        List.iter (Monitor.observe m) cyc
      done;
      match List.assoc_opt cname (Monitor.clause_judgements m) with
      | Some P.J_sat | None -> false
      | Some (P.J_violated _ | P.J_undecided _) -> true)
    (if cyc = [] then [ 0 ] else [ 1; 2; 3 ])

(* Pivots are positive facts, so refutations are sound even on a
   truncated graph; the {e absence} of a pivot proves the clause only
   under [Exhausted].  Returns the proved and skipped clauses and the
   lassos. *)
let liveness ~por ~n prop ex =
  let stables = ex.runtime.stables in
  if stables = [] then ([], [], [])
  else if por || Option.is_some ex.quotient then ([], List.map fst stables, [])
  else begin
    let space = ex.space in
    let live = Live.analyze ex.product space in
    let proved = ref [] and skipped = ref [] and lassos = ref [] in
    List.iter
      (fun (cname, judge) ->
        match find_pivot live space judge with
        | None ->
          if space.Space.verdict = Space.Exhausted then proved := cname :: !proved
          else skipped := cname :: !skipped
        | Some (pv, reason, kind) ->
          let stem = Space.path_actions space pv in
          let cyc =
            match kind with `Cycle -> Live.cycle_actions space live pv | `Stop -> []
          in
          lassos :=
            { l_clause = cname;
              l_reason = reason;
              l_kind = kind;
              l_depth = space.Space.depth.(pv);
              l_stem = stem;
              l_cycle = cyc;
              l_confirmed = lasso_confirmed ~n prop cname stem cyc;
            }
            :: !lassos)
      stables;
    (List.rev !proved, List.rev !skipped, List.rev !lassos)
  end

(* The three stages, timed as [explore] (and [symmetry] when a lift is
   requested), [clause_eval] and [lasso]. *)
let check ~max_states ~por ~timings ~n prop system =
  let log = Option.map (fun _ -> ref []) timings in
  let ex = explore ~max_states ~por ~log ~n prop system in
  let violations = timed log "clause_eval" (fun () -> safety ~n prop ex) in
  let liveness_proved, liveness_skipped, lassos =
    timed log "lasso" (fun () -> liveness ~por ~n prop ex)
  in
  (match (timings, log) with Some r, Some l -> r := !r @ List.rev !l | _ -> ());
  let space = ex.space in
  let safety_proved = space.Space.verdict = Space.Exhausted && violations = [] in
  { verdict = space.Space.verdict;
    states = Array.length space.Space.states;
    transitions = space.Space.stats.Space.transitions;
    safety_clauses = Array.to_list ex.runtime.names;
    liveness_clauses = List.map fst ex.runtime.stables;
    liveness_proved;
    liveness_skipped;
    violations;
    lassos;
    safety_proved;
    proved = safety_proved && liveness_skipped = [] && lassos = [];
    por;
    sym = ex.status;
    stats = space.Space.stats;
  }

(* An instance size the location universe can hold: outside it, the
   crash automaton and the trace summary could not be built. *)
let check_n n =
  if n >= 1 && n <= Loc.max_locations then Ok ()
  else
    Error
      (Printf.sprintf "n = %d is outside 1..%d (Loc.max_locations)" n Loc.max_locations)

(* The one closed system every run explores: the detector paired with
   the crash automaton over [crashable] (default: every location), and,
   when symmetry is requested and the spec can transport outputs, the
   declared action lifted to pairs — the crash set permutes by
   [sym_set], actions by the spec's [perm_out]. *)
let system ?crashable ?symmetry ~n spec detector =
  let crashable = Option.value ~default:(Loc.set_of_universe ~n) crashable in
  let crash = Afd_core.Afd_automata.crash_automaton ~n ~crashable in
  let lift dsym perm_o =
    let psym = sym_pair dsym sym_set in
    ( { Probe.sy_n = n;
        sy_state = psym.ss_perm;
        sy_action = Symm.perm_event perm_o;
        sy_cmp = psym.ss_cmp;
        sy_fields = [];
      },
      perm_o )
  in
  { sys = Composition.pair ~name:(detector.Automaton.name ^ "+crash") detector crash;
    symmetry =
      (match (symmetry, spec.Afd_core.Afd.perm_out) with
      | Some dsym, Some perm_o -> Some (lift dsym perm_o)
      | _ -> None);
  }

let check_spec ?(max_states = default_max_states) ?(por = false) ?timings ?crashable
    ?symmetry ~n spec ~detector =
  Result.map
    (fun () ->
      let system = system ?crashable ?symmetry ~n spec detector in
      let o = check ~max_states ~por ~timings ~n (spec.Afd_core.Afd.prop ~n) system in
      (* Requested, but the spec cannot transport outputs: the run
         stays unreduced and says why. *)
      if Option.is_some symmetry && Option.is_none system.symmetry then
        { o with sym = Sym_fallback no_perm_out }
      else o)
    (check_n n)

(* --- the explored product, exposed for cross-checking --- *)

type ('s, 'o) product_state = ('s, 'o) pstate

type ('s, 'o) quotient_view = {
  qv_product : (('s, 'o) product_state, 'o Fd_event.t) Automaton.t;
  qv_states : ('s, 'o) product_state array;
  qv_symmetry : (('s, 'o) product_state, 'o Fd_event.t) Probe.symmetry;
}

let unreduced_view ~n spec ~detector =
  Result.map
    (fun () ->
      let ex =
        explore ~max_states:default_max_states ~por:false ~log:None ~n
          (spec.Afd_core.Afd.prop ~n) (system ~n spec detector)
      in
      (ex.product, ex.space))
    (check_n n)

(* The explore stage of [check_spec ~symmetry] (no POR), read off on a
   certificate. *)
let quotient_view ~symmetry ~n spec ~detector =
  match (check_n n, spec.Afd_core.Afd.perm_out) with
  | Error e, _ -> Error e
  | Ok (), None -> Error no_perm_out
  | Ok (), Some _ -> (
    let system = system ~symmetry ~n spec detector in
    let ex =
      explore ~max_states:default_max_states ~por:false ~log:None ~n
        (spec.Afd_core.Afd.prop ~n) system
    in
    match (ex.quotient, ex.status) with
    | Some q_sy, _ ->
      Ok { qv_product = ex.product; qv_states = ex.space.Space.states; qv_symmetry = q_sy }
    | None, Sym_breaking w -> Error (Fmt.str "symmetry-breaking: %a" Symm.pp_witness w)
    | None, Sym_fallback r -> Error ("uncertified: " ^ r)
    | None, (Sym_off | Sym_quotient _) -> Error "symmetry not engaged")

(* --- parametric cutoff search --- *)

type point = {
  pt_n : int;
  pt_orbits : int;  (** quotient states explored at this n *)
  pt_transitions : int;
  pt_verdict : Space.verdict;
  pt_proved : bool;  (** safety proved at this n (quotient exhausted, no violation) *)
  pt_violated : string list;  (** violated clauses, when any *)
  pt_raw_states : int option;
      (** unreduced state count at the same n, when the unreduced run
          exhausts within budget; [None] when it truncates at this n or
          at a smaller one *)
}

type parametric_verdict =
  | Cutoff_candidate of { n0 : int; upto : int }
  | Proved_upto of int
  | Refuted_at of int
  | Unverified of string

type parametric = {
  par_points : point list;
  par_verdict : parametric_verdict;
  par_sym : sym_status;
}

(* Proved points needed before a run of exhausted-and-proved instances
   is reported as a cutoff candidate rather than a plain bounded
   result.  Heuristic in the spirit of Emerson–Namjoshi cutoffs: the
   verdict is explicitly a candidate, never a proof for all n. *)
let cutoff_window = 3

(* An unreduced rung as the ladder reads it: the explore stage of the
   plain run (same product, identity and budget), as a count that stops
   at the first budget cut.  Neither safety nor liveness runs. *)
let raw_count ~max_states ~n spec detector =
  let system = system ~n spec detector in
  let runtime = clause_runtime (spec.Afd_core.Afd.prop ~n) in
  Space.count (product ~n runtime system.sys)
    (unreduced_probe ~max_states ~por:false runtime)

let ladder ~max_states ~ns ~symmetry spec ~detector =
  let points = ref [] in
  let sym = ref Sym_off in
  let halted = ref None in
  (* Larger instances only grow: once an unreduced rung truncates, the
     larger ones would too, so their counts are known to be [None]
     without running them. *)
  let raw_truncated = ref false in
  (try
     List.iter
       (fun n ->
         match check_spec ~max_states ~symmetry ~n spec ~detector:(detector n) with
         | Error e ->
           halted := Some (Unverified e);
           raise Exit
         | Ok o ->
           sym := o.sym;
           (match o.sym with
           | Sym_quotient _ ->
             let raw =
               if !raw_truncated then None
               else begin
                 let k = raw_count ~max_states ~n spec (detector n) in
                 raw_truncated := Option.is_none k;
                 k
               end
             in
             let violated =
               List.map (fun v -> v.clause) o.violations
               @ List.map (fun l -> l.l_clause) o.lassos
             in
             let pt =
               { pt_n = n;
                 pt_orbits = o.states;
                 pt_transitions = o.transitions;
                 pt_verdict = o.verdict;
                 pt_proved = o.safety_proved;
                 pt_violated = violated;
                 pt_raw_states = raw;
               }
             in
             points := pt :: !points;
             if violated <> [] then begin
               halted := Some (Refuted_at n);
               raise Exit
             end;
             (* Larger instances only grow: once the budget truncates,
                stop climbing. *)
             if o.verdict <> Space.Exhausted then raise Exit
           | Sym_breaking _ | Sym_fallback _ | Sym_off ->
             (* Not quotientable (or symmetry was not engaged): the
                parametric ladder has no sound footing; report why. *)
             raise Exit))
       ns
   with Exit -> ());
  let par_points = List.rev !points in
  let proved =
    List.filter (fun p -> p.pt_proved && p.pt_verdict = Space.Exhausted) par_points
  in
  let par_verdict =
    match !halted with
    | Some v -> v
    | None -> (
      match proved with
      | [] ->
        Unverified
          (match !sym with
          | Sym_breaking w -> Fmt.str "symmetry-breaking: %a" Symm.pp_witness w
          | Sym_fallback r -> "uncertified: " ^ r
          | Sym_off | Sym_quotient _ -> "no instance exhausted within budget")
      | ps ->
        let n0 = (List.hd ps).pt_n in
        let upto = (List.nth ps (List.length ps - 1)).pt_n in
        if List.length ps >= cutoff_window then Cutoff_candidate { n0; upto }
        else Proved_upto upto)
  in
  { par_points; par_verdict; par_sym = !sym }

(* A cutoff candidate reads "proved for n0..upto" off the points, so the
   ladder must climb one size at a time: a gap or a descent would claim
   a size that never ran. *)
let parametric ?(max_states = default_max_states) ?(ns = [ 2; 3; 4; 5 ]) ~symmetry spec
    ~detector =
  match ns with
  | n0 :: _ when List.equal Int.equal ns (List.mapi (fun k _ -> n0 + k) ns) ->
    ladder ~max_states ~ns ~symmetry spec ~detector
  | _ ->
    { par_points = [];
      par_verdict =
        Unverified
          (Fmt.str "ladder [%a] is not a non-empty run of consecutive ascending sizes"
             Fmt.(list ~sep:(any "; ") int)
             ns);
      par_sym = Sym_off;
    }

let pp_sym_status fmt = function
  | Sym_off -> Fmt.string fmt "off"
  | Sym_quotient c ->
    Format.fprintf fmt "certified (%d reps x %d perms%s)" c.Symm.c_states
      c.Symm.c_perms
      (if c.Symm.c_exhaustive then "" else ", bounded")
  | Sym_breaking w -> Format.fprintf fmt "breaking: %a" Symm.pp_witness w
  | Sym_fallback r -> Format.fprintf fmt "uncertified: %s" r

let sym_status_to_json s =
  let str = Json.string in
  match s with
  | Sym_off -> "{\"status\":\"off\"}"
  | Sym_quotient c ->
    Printf.sprintf
      "{\"status\":\"certified\",\"n\":%d,\"reps\":%d,\"perms\":%d,\"exhaustive\":%b,\"fields\":[%s]}"
      c.Symm.c_n c.Symm.c_states c.Symm.c_perms c.Symm.c_exhaustive
      (String.concat ","
         (List.map
            (fun (nm, cls) ->
              Printf.sprintf "{\"name\":%s,\"class\":%s}" (str nm)
                (str (match cls with `Indexed -> "indexed" | `Invariant -> "invariant")))
            c.Symm.c_fields))
  | Sym_breaking w ->
    Printf.sprintf
      "{\"status\":\"breaking\",\"kind\":%s,\"perm\":%s,\"state\":%d,\"field\":%s,\"task\":%s,\"detail\":%s}"
      (str
         (match w.Symm.w_kind with
         | `Signature -> "signature"
         | `Step -> "step"
         | `Enabled -> "enabled"
         | `Task -> "task"
         | `Probe -> "probe"
         | `Field -> "field"))
      (str w.Symm.w_perm) w.Symm.w_state
      (match w.Symm.w_field with None -> "null" | Some f -> str f)
      (match w.Symm.w_task with None -> "null" | Some t -> str t)
      (str w.Symm.w_detail)
  | Sym_fallback r -> Printf.sprintf "{\"status\":\"uncertified\",\"reason\":%s}" (str r)

let outcome_to_json ?(timings = []) ~pp_out o =
  let str = Json.string in
  let strs l = "[" ^ String.concat "," (List.map str l) ^ "]" in
  let violation v =
    Printf.sprintf
      "{\"clause\":%s,\"kind\":%s,\"depth\":%d,\"reason\":%s,\"confirmed\":%b,\"counterexample\":%s}"
      (str v.clause)
      (str (match v.kind with `Edge -> "edge" | `Judgement -> "judgement"))
      v.depth (str v.reason) v.confirmed
      (Counterexample.to_json ~pp_out v.counterexample)
  in
  let events l =
    "[" ^ String.concat "," (List.map (fun e -> str (Fmt.str "%a" (Fd_event.pp pp_out) e)) l) ^ "]"
  in
  let lasso l =
    Printf.sprintf
      "{\"clause\":%s,\"kind\":%s,\"depth\":%d,\"reason\":%s,\"confirmed\":%b,\"stem\":%s,\"cycle\":%s}"
      (str l.l_clause)
      (str (match l.l_kind with `Cycle -> "fair-cycle" | `Stop -> "fair-stop"))
      l.l_depth (str l.l_reason) l.l_confirmed (events l.l_stem) (events l.l_cycle)
  in
  (* The profile field appears only when timings were collected, and
     the sym field only when symmetry was requested, so default
     reports stay byte-identical across explorer choices and across
     this feature's introduction. *)
  let profile_field =
    match timings with
    | [] -> ""
    | ts ->
      Printf.sprintf ",\"profile\":{%s}"
        (String.concat ","
           (List.map (fun (k, dt) -> Printf.sprintf "%s:%.6f" (str k) dt) ts))
  in
  let sym_field =
    match o.sym with
    | Sym_off -> ""
    | s -> Printf.sprintf ",\"sym\":%s" (sym_status_to_json s)
  in
  Printf.sprintf
    "{\"verdict\":%s,\"proved\":%b,\"safety_proved\":%b,\"states\":%d,\"transitions\":%d,\"por\":%b,\"slept\":%d,\"cut\":%d,\"safety_clauses\":%s,\"liveness_clauses\":%s,\"liveness_proved\":%s,\"liveness_skipped\":%s,\"violations\":[%s],\"lassos\":[%s]%s%s}"
    (str (Space.verdict_string o.verdict))
    o.proved o.safety_proved o.states o.transitions o.por o.stats.Space.slept
    o.stats.Space.cut (strs o.safety_clauses) (strs o.liveness_clauses)
    (strs o.liveness_proved) (strs o.liveness_skipped)
    (String.concat "," (List.map violation o.violations))
    (String.concat "," (List.map lasso o.lassos))
    sym_field profile_field

let pp_parametric fmt p =
  Format.fprintf fmt "@[<v>parametric: %s"
    (match p.par_verdict with
    | Cutoff_candidate { n0; upto } ->
      Printf.sprintf "cutoff candidate at n0=%d (proved for n=%d..%d)" n0 n0 upto
    | Proved_upto n -> Printf.sprintf "proved up to n=%d" n
    | Refuted_at n -> Printf.sprintf "refuted at n=%d" n
    | Unverified r -> "unverified: " ^ r);
  (match p.par_sym with
  | Sym_off -> ()
  | s -> Format.fprintf fmt "@,symmetry: %a" pp_sym_status s);
  List.iter
    (fun pt ->
      Format.fprintf fmt "@,n=%d: %d orbits, %d transitions (%a)%s%s" pt.pt_n
        pt.pt_orbits pt.pt_transitions Space.pp_verdict pt.pt_verdict
        (match pt.pt_raw_states with
        | Some s -> Printf.sprintf ", unreduced %d states" s
        | None -> ", unreduced exceeds budget")
        (if pt.pt_violated <> [] then
           " VIOLATED: " ^ String.concat ", " pt.pt_violated
         else ""))
    p.par_points;
  Format.fprintf fmt "@]"

let parametric_to_json p =
  let str = Json.string in
  let point pt =
    Printf.sprintf
      "{\"n\":%d,\"orbits\":%d,\"transitions\":%d,\"verdict\":%s,\"proved\":%b,\"violated\":[%s],\"raw_states\":%s}"
      pt.pt_n pt.pt_orbits pt.pt_transitions
      (str (Space.verdict_string pt.pt_verdict))
      pt.pt_proved
      (String.concat "," (List.map str pt.pt_violated))
      (match pt.pt_raw_states with Some s -> string_of_int s | None -> "null")
  in
  let verdict =
    match p.par_verdict with
    | Cutoff_candidate { n0; upto } ->
      Printf.sprintf "{\"kind\":\"cutoff-candidate\",\"n0\":%d,\"upto\":%d}" n0 upto
    | Proved_upto n -> Printf.sprintf "{\"kind\":\"proved-upto\",\"n\":%d}" n
    | Refuted_at n -> Printf.sprintf "{\"kind\":\"refuted\",\"n\":%d}" n
    | Unverified r -> Printf.sprintf "{\"kind\":\"unverified\",\"reason\":%s}" (str r)
  in
  Printf.sprintf "{\"verdict\":%s,\"sym\":%s,\"points\":[%s]}" verdict
    (sym_status_to_json p.par_sym)
    (String.concat "," (List.map point p.par_points))
