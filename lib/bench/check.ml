(* Online/offline differential checking of the detector catalog.

   Each subject pairs a detector automaton with a spec and runs the
   same seeded schedule twice: once streaming events into the spec's
   compiled monitor ([Afd_automata.run_monitored], no trace retained),
   once materializing the full trace and replaying it through
   [Afd.check].  Since [Afd.check] is the offline replay of the very
   formula the monitor compiles, the two verdicts must agree
   structurally on every subject and every seed — that equality is the meta-verdict each matrix cell reports.

   Two subjects are deliberate mismatches of detector and spec
   ([expect_violated]): their cells additionally demand a [Violated]
   verdict with a concrete counterexample prefix index. *)

open Afd_ioa
open Afd_core
module R = Afd_runner
module M = Afd_prop.Monitor

type subject =
  | S : {
      id : string;
      label : string;
      n : int;
      steps : int;
      crash_at : (int * Loc.t) list;
      detector : int -> ('s, 'o Fd_event.t) Automaton.t;
      symm : 's Afd_analysis.Mc.state_symmetry option;
      spec : 'o Afd.spec;
      expect_violated : bool;
    }
      -> subject

let id (S s) = s.id
let expect_violated (S s) = s.expect_violated

type outcome = {
  online : Verdict.t;
  offline : Verdict.t;
  clauses : (string * Verdict.t) list;
  counterexample : int option;
  events : int;
}

let verdict_equal a b =
  match (a, b) with
  | Verdict.Sat, Verdict.Sat -> true
  | Verdict.Violated x, Verdict.Violated y | Verdict.Undecided x, Verdict.Undecided y
    -> String.equal x y
  | _ -> false

let run_subject ?window ~seed (S s) =
  let m = Afd.monitor ?window s.spec ~n:s.n in
  let events = ref 0 in
  let _outcome =
    Afd_automata.run_monitored
      ~observe:(fun e ->
        incr events;
        M.observe m e)
      ~detector:(s.detector s.n) ~n:s.n ~seed ~crash_at:s.crash_at ~steps:s.steps ()
  in
  let t =
    Afd_automata.generate_trace ~detector:(s.detector s.n) ~n:s.n ~seed
      ~crash_at:s.crash_at ~steps:s.steps
  in
  { online = M.verdict m;
    offline = Afd.check s.spec ~n:s.n t;
    clauses = M.clause_verdicts m;
    counterexample =
      Option.map (fun c -> c.Afd_prop.Counterexample.index) (M.counterexample m);
    events = !events;
  }

(* The truthful automata vs their own specs, plus two deliberate
   mismatches.  [CHK.lying-p] latches a safety violation at a concrete
   event (the noisy ◇P implementation suspects a live location, which
   T_P forbids); [CHK.marabout] fails Marabout's exactness judgement
   (FD-P's pre-crash outputs differ from the final faulty set). *)
let sym_set = Some Afd_analysis.Mc.sym_set

(* Noisy and flip-flop states pair the crash set with an identity-
   dependent component (scripted queues, a toggle).  Declaring that
   component rigid is a {e claim}, not a cheat: when the claim is wrong
   the quotient run's equivariance check produces a breaking witness
   and the run stays unreduced. *)
let sym_noisy =
  Some Afd_analysis.Mc.(sym_pair sym_set sym_rigid)

let subjects =
  let noise01 = Afd_automata.noise_of_list [ (0, Loc.Set.singleton 1) ] in
  [ S { id = "CHK.p"; label = "P: FD-P (truthful)"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_perfect ~n); symm = sym_set;
        spec = Perfect.spec; expect_violated = false };
    S { id = "CHK.evp"; label = "EvP: FD-P (noisy)"; n = 3; steps = 150;
        crash_at = [ (11, 2) ];
        detector = (fun n -> Afd_automata.fd_ev_perfect_noisy ~n ~noise:noise01);
        symm = sym_noisy;
        spec = Ev_perfect.spec; expect_violated = false };
    S { id = "CHK.s"; label = "S: FD-P (truthful)"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_perfect ~n); symm = sym_set;
        spec = Strong.spec; expect_violated = false };
    S { id = "CHK.evs"; label = "EvS: FD-P (noisy)"; n = 3; steps = 150;
        crash_at = [ (11, 2) ];
        detector = (fun n -> Afd_automata.fd_ev_perfect_noisy ~n ~noise:noise01);
        symm = sym_noisy;
        spec = Ev_strong.spec; expect_violated = false };
    S { id = "CHK.omega"; label = "Omega: FD-Omega"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_omega ~n); symm = sym_set;
        spec = Omega.spec; expect_violated = false };
    S { id = "CHK.antiomega"; label = "anti-Omega: FD-anti-Omega"; n = 3;
        steps = 150; crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_anti_omega ~n); symm = sym_set;
        spec = Anti_omega.spec; expect_violated = false };
    S { id = "CHK.omega2"; label = "Omega_2: FD-Omega_k"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_omega_k ~n ~k:2); symm = sym_set;
        spec = Omega_k.spec ~k:2; expect_violated = false };
    S { id = "CHK.psi2"; label = "Psi_2: FD-Psi_k"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_psi_k ~n ~k:2); symm = sym_set;
        spec = Psi_k.spec ~k:2; expect_violated = false };
    S { id = "CHK.sigma"; label = "Sigma: FD-Sigma"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_sigma ~n); symm = sym_set;
        spec = Sigma.spec; expect_violated = false };
    S { id = "CHK.dk"; label = "D_2: FD-P (truthful)"; n = 3; steps = 150;
        crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_perfect ~n); symm = sym_set;
        spec = D_k.spec ~k:2; expect_violated = false };
    S { id = "CHK.lying-p"; label = "P vs noisy EvP (broken)"; n = 3;
        steps = 120; crash_at = [];
        detector = (fun n -> Afd_automata.fd_ev_perfect_noisy ~n ~noise:noise01);
        symm = sym_noisy;
        spec = Perfect.spec; expect_violated = true };
    S { id = "CHK.marabout"; label = "Marabout vs FD-P (broken)"; n = 3;
        steps = 150; crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_perfect ~n); symm = sym_set;
        spec = Marabout.spec; expect_violated = true };
  ]

let vstr = function
  | Verdict.Sat -> "sat"
  | Verdict.Violated m -> "VIOLATED: " ^ m
  | Verdict.Undecided m -> "undecided: " ^ m

let section = "CHECK  Online property monitors vs offline trace checks"

let cell ?window subj ~seed =
  let (S s) = subj in
  let r = run_subject ?window ~seed subj in
  let agree = verdict_equal r.online r.offline in
  let expected =
    if s.expect_violated then Verdict.is_violated r.online
    else Verdict.is_sat r.online
  in
  let cx =
    match r.counterexample with
    | Some i -> Printf.sprintf "  counterexample@%d" i
    | None -> ""
  in
  let detail = Printf.sprintf "online %s%s" (vstr r.online) cx in
  let verdict =
    if not agree then
      Verdict.Violated
        (Printf.sprintf "online/offline mismatch: online %s, offline %s"
           (vstr r.online) (vstr r.offline))
    else if not expected then
      Verdict.Violated
        (Printf.sprintf "expected %s, got %s"
           (if s.expect_violated then "violated" else "sat")
           (vstr r.online))
    else Verdict.Sat
  in
  R.Metrics.outcome ~steps:r.events ~detail ?counterexample:r.counterexample
    ~clauses:r.clauses verdict

let entry ?window ?(seeds = 3) subj =
  let (S s) = subj in
  let label =
    if s.expect_violated then s.label ^ " [expect violated]" else s.label
  in
  R.Matrix.entry ~id:s.id ~section ~label ~seeds ~faults:[ s.crash_at ]
    ~show:(R.Matrix.show_detail ~label)
    (fun ~seed ~faults:_ -> cell ?window subj ~seed)

let matrix ?window ?seeds () = List.map (entry ?window ?seeds) subjects

(* --- exhaustive model checking of the same subjects --- *)

type mc_violation = {
  clause : string;
  vkind : string;
  depth : int;
  index : int;
  window : string list;
  reason : string;
  confirmed : bool;
}

type mc_lasso = {
  lclause : string;
  lkind : string;
  ldepth : int;
  lstem : int;
  lcycle : int;
  lreason : string;
  lconfirmed : bool;
}

type mc_result = {
  mc_id : string;
  mc_label : string;
  mc_expect_violated : bool;
  mc_verdict : string;
  mc_exhaustive : bool;
  mc_states : int;
  mc_transitions : int;
  mc_proved : bool;
  mc_safety : string list;
  mc_liveness_proved : string list;
  mc_liveness_skipped : string list;
  mc_violations : mc_violation list;
  mc_lassos : mc_lasso list;
  mc_ok : bool;
  mc_profile : (string * float) list;
  mc_json : string;
}

(* Subjects broken only in the limit: every finite prefix is safe, so
   they cannot join the seeded CHECK matrix (no schedule ever latches a
   violation) — only the fair-cycle pass refutes them. *)
let liveness_subjects =
  [ S { id = "CHK.flipflop"; label = "Omega vs FD-FlipFlop (livelocked leader)";
        n = 3; steps = 150; crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_flip_flop ~n);
        symm = Some Afd_analysis.Mc.(sym_pair sym_set sym_rigid);
        spec = Omega.spec; expect_violated = true };
    S { id = "CHK.silent"; label = "P vs FD-Silent (starved liveness)"; n = 3;
        steps = 150; crash_at = [ (10, 1) ];
        detector = (fun n -> Afd_automata.fd_silent ~n); symm = sym_set;
        spec = Perfect.spec; expect_violated = true };
  ]

let mc_subject ?max_states ?(por = false) ?(profile = false) (S s) =
  let open Afd_analysis in
  let timings = if profile then Some (ref []) else None in
  match
    Mc.check_spec ?max_states ~por ?timings ~n:s.n s.spec ~detector:(s.detector s.n)
  with
  | Error e -> Error e
  | Ok o ->
    let pp_out = s.spec.Afd.pp_out in
    let exhaustive = o.Mc.verdict = Afd_analysis.Space.Exhausted in
    let violations =
      List.map
        (fun v ->
          { clause = v.Mc.clause;
            vkind = (match v.Mc.kind with `Edge -> "edge" | `Judgement -> "judgement");
            depth = v.Mc.depth;
            index = v.Mc.counterexample.Afd_prop.Counterexample.index;
            window =
              List.map
                (fun e -> Fmt.str "%a" (Fd_event.pp pp_out) e)
                v.Mc.counterexample.Afd_prop.Counterexample.window;
            reason = v.Mc.reason;
            confirmed = v.Mc.confirmed;
          })
        o.Mc.violations
    in
    let lassos =
      List.map
        (fun l ->
          { lclause = l.Mc.l_clause;
            lkind = (match l.Mc.l_kind with `Cycle -> "fair-cycle" | `Stop -> "fair-stop");
            ldepth = l.Mc.l_depth;
            lstem = List.length l.Mc.l_stem;
            lcycle = List.length l.Mc.l_cycle;
            lreason = l.Mc.l_reason;
            lconfirmed = l.Mc.l_confirmed;
          })
        o.Mc.lassos
    in
    (* the meta-verdict mirrors the matrix cells: a truthful pairing
       must be proved (safety and liveness), a broken one must yield a
       confirmed violation or a confirmed lasso — and in both cases the
       exploration must actually be exhaustive, or the claim is only
       about a truncated sample.  Under POR liveness is out of scope,
       so only the safety half is demanded. *)
    let ok =
      exhaustive
      &&
      if s.expect_violated then
        (violations <> [] || lassos <> [])
        && List.for_all (fun v -> v.confirmed) violations
        && List.for_all (fun l -> l.lconfirmed) lassos
      else if por then o.Mc.safety_proved
      else o.Mc.proved
    in
    Ok
      { mc_id = s.id;
        mc_label = s.label;
        mc_expect_violated = s.expect_violated;
        mc_verdict = Afd_analysis.Space.verdict_string o.Mc.verdict;
        mc_exhaustive = exhaustive;
        mc_states = o.Mc.states;
        mc_transitions = o.Mc.transitions;
        mc_proved = o.Mc.proved;
        mc_safety = o.Mc.safety_clauses;
        mc_liveness_proved = o.Mc.liveness_proved;
        mc_liveness_skipped = o.Mc.liveness_skipped;
        mc_violations = violations;
        mc_lassos = lassos;
        mc_ok = ok;
        mc_profile = (match timings with None -> [] | Some r -> !r);
        mc_json =
          Mc.outcome_to_json
            ?timings:(Option.map (fun r -> !r) timings)
            ~pp_out o;
      }

let mc_all ?max_states ?(por = false) ?profile () =
  (* The limit-broken extras are refutable only by the fair-cycle pass,
     which POR disables — under POR they would fail vacuously. *)
  let all = if por then subjects else subjects @ liveness_subjects in
  List.map
    (fun subj ->
      match mc_subject ?max_states ~por ?profile subj with
      | Ok r -> r
      | Error e ->
        (* [Mc.check_spec] refuses only an instance size outside
           [1..Loc.max_locations]; a shipped subject sized so is a
           wiring bug, surfaced as a failing row rather than an
           exception so the whole table still renders *)
        let (S s) = subj in
        { mc_id = s.id;
          mc_label = s.label;
          mc_expect_violated = s.expect_violated;
          mc_verdict = "error";
          mc_exhaustive = false;
          mc_states = 0;
          mc_transitions = 0;
          mc_proved = false;
          mc_safety = [];
          mc_liveness_proved = [];
          mc_liveness_skipped = [];
          mc_violations = [];
          mc_lassos = [];
          mc_ok = false;
          mc_profile = [];
          mc_json = Printf.sprintf "{\"error\": %s}" (Json.string e);
        })
    all

(* --- orbit-quotiented re-verification of the same subjects --- *)

type sy_result = {
  sy_id : string;
  sy_label : string;
  sy_status : string;
  sy_detail : string;
  sy_states : int;
  sy_raw_states : int;
  sy_agree : bool;
  sy_parametric : Afd_analysis.Mc.parametric option;
  sy_ok : bool;
  sy_json : string;
}

let sy_subject ?max_states ?ns (S s) =
  let open Afd_analysis in
  match s.symm with
  | None -> Error "no declared symmetry"
  | Some kit -> (
    match Mc.check_spec ?max_states ~n:s.n s.spec ~detector:(s.detector s.n) with
    | Error e -> Error e
    | Ok raw -> (
      match
        Mc.check_spec ?max_states ~symmetry:kit ~n:s.n s.spec
          ~detector:(s.detector s.n)
      with
      | Error e -> Error e
      | Ok sym ->
        (* The quotient must not change what is {e claimed}: same
           safety verdict, same violated clauses, every witness still
           replay-confirmed.  Depths and windows may differ (a
           quotient-shortest path lifts to a genuine but not
           necessarily shortest run), so they are not compared. *)
        let key v = (v.Mc.clause, v.Mc.confirmed) in
        let keys o = List.sort compare (List.map key o.Mc.violations) in
        let agree =
          raw.Mc.safety_proved = sym.Mc.safety_proved && keys raw = keys sym
        in
        let status, detail =
          match sym.Mc.sym with
          | Mc.Sym_off -> ("off", "")
          | Mc.Sym_quotient c ->
            ( "certified",
              Printf.sprintf "%d reps x %d perms" c.Symm.c_states c.Symm.c_perms )
          | Mc.Sym_breaking w -> ("breaking", Fmt.str "%a" Symm.pp_witness w)
          | Mc.Sym_fallback r -> ("fallback", r)
        in
        let par =
          match sym.Mc.sym with
          | Mc.Sym_quotient _ ->
            Some
              (Mc.parametric ?max_states ?ns ~symmetry:kit s.spec
                 ~detector:(fun n -> s.detector n))
          | Mc.Sym_off | Mc.Sym_breaking _ | Mc.Sym_fallback _ -> None
        in
        let par_ok =
          match par with
          | None -> true
          | Some p -> (
            match p.Mc.par_verdict with
            | Mc.Refuted_at _ -> s.expect_violated
            | Mc.Cutoff_candidate _ | Mc.Proved_upto _ -> not s.expect_violated
            | Mc.Unverified _ -> false)
        in
        let exhaustive o = o.Mc.verdict = Space.Exhausted in
        let ok = agree && exhaustive raw && exhaustive sym && par_ok in
        Ok
          { sy_id = s.id;
            sy_label = s.label;
            sy_status = status;
            sy_detail = detail;
            sy_states = sym.Mc.states;
            sy_raw_states = raw.Mc.states;
            sy_agree = agree;
            sy_parametric = par;
            sy_ok = ok;
            sy_json =
              Printf.sprintf
                "{\"id\": %s, \"status\": %s, \"detail\": %s, \"states\": %d, \
                 \"raw_states\": %d, \"agree\": %b, \"ok\": %b, \"parametric\": %s}"
                (Json.string s.id) (Json.string status) (Json.string detail)
                sym.Mc.states raw.Mc.states agree ok
                (match par with
                | None -> "null"
                | Some p -> Mc.parametric_to_json p);
          }))

let sy_all ?max_states ?ns () =
  List.map
    (fun subj ->
      match sy_subject ?max_states ?ns subj with
      | Ok r -> r
      | Error e ->
        let (S s) = subj in
        { sy_id = s.id;
          sy_label = s.label;
          sy_status = "error";
          sy_detail = e;
          sy_states = 0;
          sy_raw_states = 0;
          sy_agree = false;
          sy_parametric = None;
          sy_ok = false;
          sy_json =
            Printf.sprintf "{\"id\": %s, \"error\": %s}" (Json.string s.id)
              (Json.string e);
        })
    (subjects @ liveness_subjects)
