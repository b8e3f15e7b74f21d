(* The model checker's staged pipeline, pinned from outside.

   [Mc.check_spec] runs explore -> safety -> liveness.  The CI gates
   diff the unreduced MC JSON; these tests pin what they do not reach:
   the quotient path end to end (certification, orbit exploration,
   counterexample lifting and replay, reason-prefix stripping) and the
   [?timings] contract per-phase profilers build on. *)

open Afd_analysis
module BC = Afd_bench.Check

let chk_subjects = BC.subjects @ BC.liveness_subjects
let subject id = List.find (fun s -> BC.id s = id) chk_subjects

(* One run of a CHK subject at its own n and a 4 000-state budget: the
   outcome's JSON (without timings) and the phase timings collected
   when [profile] is set. *)
let run ~symmetric ~profile subj =
  let (BC.S { n; detector; symm; spec; _ }) = subj in
  let timings = if profile then Some (ref []) else None in
  let symmetry = if symmetric then symm else None in
  match
    Mc.check_spec ~max_states:4_000 ?timings ?symmetry ~n spec ~detector:(detector n)
  with
  | Error e -> Alcotest.failf "%s: %s" (BC.id subj) e
  | Ok o ->
    ( Mc.outcome_to_json ~pp_out:spec.Afd_core.Afd.pp_out o,
      match timings with Some r -> !r | None -> [] )

(* --- the quotient path --- *)

(* [Mc.check_spec ~max_states:4_000 ~symmetry ~n] on every CHK subject,
   as computed before the checker was split into stages.  Certified
   rows explore orbit representatives; CHK.marabout's row carries the
   quotient-found, lifted, replay-confirmed counterexample with the
   monitor's clause prefix stripped from its reason. *)
let golden_quotient_rows =
  [
    ( "CHK.p",
      {|{"verdict":"exhausted","proved":false,"safety_proved":true,"states":30,"transitions":100,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","accuracy"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":[],"liveness_skipped":["validity.liveness","completeness"],"violations":[],"lassos":[],"sym":{"status":"certified","n":3,"reps":30,"perms":6,"exhaustive":true,"fields":[]}}|} );
    ( "CHK.evp",
      {|{"verdict":"exhausted","proved":true,"safety_proved":true,"states":1310,"transitions":3144,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety"],"liveness_clauses":["validity.liveness","convergence"],"liveness_proved":["validity.liveness","convergence"],"liveness_skipped":[],"violations":[],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-EvP-noisy/fd_p0","detail":"task FD-EvP-noisy/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.s",
      {|{"verdict":"exhausted","proved":false,"safety_proved":true,"states":59,"transitions":152,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","weak-accuracy"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":[],"liveness_skipped":["validity.liveness","completeness"],"violations":[],"lassos":[],"sym":{"status":"certified","n":3,"reps":59,"perms":6,"exhaustive":true,"fields":[]}}|} );
    ( "CHK.evs",
      {|{"verdict":"exhausted","proved":true,"safety_proved":true,"states":1310,"transitions":3144,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety"],"liveness_clauses":["validity.liveness","convergence"],"liveness_proved":["validity.liveness","convergence"],"liveness_skipped":[],"violations":[],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-EvP-noisy/fd_p0","detail":"task FD-EvP-noisy/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.omega",
      {|{"verdict":"exhausted","proved":true,"safety_proved":true,"states":580,"transitions":1570,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety"],"liveness_clauses":["validity.liveness","stable-leader"],"liveness_proved":["validity.liveness","stable-leader"],"liveness_skipped":[],"violations":[],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-Omega/fd_p0","detail":"task FD-Omega/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.antiomega",
      {|{"verdict":"exhausted","proved":true,"safety_proved":true,"states":528,"transitions":1512,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety"],"liveness_clauses":["validity.liveness","spared-location"],"liveness_proved":["validity.liveness","spared-location"],"liveness_skipped":[],"violations":[],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p1 p2)","state":0,"field":null,"task":"FD-antiOmega/fd_p0","detail":"task FD-antiOmega/fd_p1 enabled action is not the permuted one"}}|} );
    ( "CHK.omega2",
      {|{"verdict":"exhausted","proved":true,"safety_proved":true,"states":740,"transitions":1962,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","shape"],"liveness_clauses":["validity.liveness","common-live"],"liveness_proved":["validity.liveness","common-live"],"liveness_skipped":[],"violations":[],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-Omega2/fd_p0","detail":"task FD-Omega2/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.psi2",
      {|{"verdict":"exhausted","proved":true,"safety_proved":true,"states":740,"transitions":1962,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","shape"],"liveness_clauses":["validity.liveness","convergence"],"liveness_proved":["validity.liveness","convergence"],"liveness_skipped":[],"violations":[],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-Psi2/fd_p0","detail":"task FD-Psi2/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.sigma",
      {|{"verdict":"exhausted","proved":false,"safety_proved":true,"states":99,"transitions":214,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","intersection"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":[],"liveness_skipped":["validity.liveness","completeness"],"violations":[],"lassos":[],"sym":{"status":"certified","n":3,"reps":99,"perms":6,"exhaustive":true,"fields":[]}}|} );
    ( "CHK.dk",
      {|{"verdict":"exhausted","proved":false,"safety_proved":true,"states":30,"transitions":100,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","accuracy-after-k"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":[],"liveness_skipped":["validity.liveness","completeness"],"violations":[],"lassos":[],"sym":{"status":"certified","n":3,"reps":30,"perms":6,"exhaustive":true,"fields":[]}}|} );
    ( "CHK.lying-p",
      {|{"verdict":"exhausted","proved":false,"safety_proved":false,"states":695,"transitions":1526,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","accuracy"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":["validity.liveness","completeness"],"liveness_skipped":[],"violations":[{"clause":"accuracy","kind":"edge","depth":1,"reason":"output {p1} at p0 suspects not-yet-crashed location(s) {p1}","confirmed":true,"counterexample":{"index":0,"clause":"accuracy","reason":"output {p1} at p0 suspects not-yet-crashed location(s) {p1}","event":"fd({p1})_p0","window_start":0,"window":["fd({p1})_p0"]}}],"lassos":[],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-EvP-noisy/fd_p0","detail":"task FD-EvP-noisy/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.marabout",
      {|{"verdict":"exhausted","proved":false,"safety_proved":false,"states":216,"transitions":424,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","exactness"],"liveness_clauses":["validity.liveness"],"liveness_proved":[],"liveness_skipped":["validity.liveness"],"violations":[{"clause":"exactness","kind":"judgement","depth":2,"reason":"output {} at p0 differs from final faulty set {p0}","confirmed":true,"counterexample":{"index":1,"clause":"exactness","reason":"output {} at p0 differs from final faulty set {p0}","event":"crash_p0","window_start":0,"window":["fd({})_p0","crash_p0"]}}],"lassos":[],"sym":{"status":"certified","n":3,"reps":216,"perms":6,"exhaustive":true,"fields":[]}}|} );
    ( "CHK.flipflop",
      {|{"verdict":"exhausted","proved":false,"safety_proved":true,"states":1488,"transitions":4164,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety"],"liveness_clauses":["validity.liveness","stable-leader"],"liveness_proved":["validity.liveness"],"liveness_skipped":[],"violations":[],"lassos":[{"clause":"stable-leader","kind":"fair-cycle","depth":8,"reason":"live locations disagree on the leader: {p0,p2}","confirmed":true,"stem":["fd(p0)_p0","fd(p2)_p0","fd(p0)_p0","fd(p2)_p0","fd(p0)_p0","fd(p2)_p0","fd(p0)_p1","fd(p2)_p2"],"cycle":["fd(p0)_p0","fd(p2)_p0","fd(p0)_p1","fd(p2)_p0","fd(p0)_p2","fd(p2)_p2"]}],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-FlipFlop/fd_p0","detail":"task FD-FlipFlop/fd_p2 enabled action is not the permuted one"}}|} );
    ( "CHK.silent",
      {|{"verdict":"exhausted","proved":false,"safety_proved":true,"states":119,"transitions":218,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","accuracy"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":[],"liveness_skipped":[],"violations":[],"lassos":[{"clause":"validity.liveness","kind":"fair-stop","depth":1,"reason":"live location p1 has 0 < 1 outputs; live location p2 has 0 < 1 outputs","confirmed":true,"stem":["crash_p0"],"cycle":[]},{"clause":"completeness","kind":"fair-stop","depth":1,"reason":"live location p1 has no output yet","confirmed":true,"stem":["crash_p0"],"cycle":[]}],"sym":{"status":"breaking","kind":"enabled","perm":"(p0 p2)","state":0,"field":null,"task":"FD-Silent/fd_p0","detail":"task FD-Silent/fd_p2 enabled action is not the permuted one"}}|} );
  ]

let test_quotient_golden () =
  List.iter
    (fun (id, golden) ->
      let json, _ = run ~symmetric:true ~profile:false (subject id) in
      Alcotest.(check string) id golden json)
    golden_quotient_rows

(* With only p2 crashable the start state is not permutation-invariant:
   the quotient's representative path crashes p0, and only the lifted
   path — crashing p2, the one location that can — replays. *)
let golden_lifted_row =
  {|{"verdict":"exhausted","proved":false,"safety_proved":false,"states":57,"transitions":148,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","exactness"],"liveness_clauses":["validity.liveness"],"liveness_proved":[],"liveness_skipped":["validity.liveness"],"violations":[{"clause":"exactness","kind":"judgement","depth":2,"reason":"output {} at p2 differs from final faulty set {p2}","confirmed":true,"counterexample":{"index":1,"clause":"exactness","reason":"output {} at p2 differs from final faulty set {p2}","event":"crash_p2","window_start":0,"window":["fd({})_p2","crash_p2"]}}],"lassos":[],"sym":{"status":"certified","n":3,"reps":57,"perms":6,"exhaustive":true,"fields":[]}}|}

let test_lifted_counterexample () =
  let (BC.S { n; detector; symm; spec; _ }) = subject "CHK.marabout" in
  match
    Mc.check_spec ~max_states:4_000 ~crashable:(Afd_ioa.Loc.Set.singleton 2)
      ?symmetry:symm ~n spec ~detector:(detector n)
  with
  | Error e -> Alcotest.failf "raw spec: %s" e
  | Ok o ->
    Alcotest.(check string) "lifted row" golden_lifted_row
      (Mc.outcome_to_json ~pp_out:spec.Afd_core.Afd.pp_out o)

(* FD-Sigma's detector against P's spec at n = 3: the output {p0,p1,p2}
   breaks accuracy on the first edge, so the quotient reaches latched
   sinks, which the equivariance check compares by clause alone.  The
   violation, its lifted counterexample and the replay are the
   unreduced run's. *)
let golden_latched_row =
  {|{"verdict":"exhausted","proved":false,"safety_proved":false,"states":7,"transitions":12,"por":false,"slept":0,"cut":0,"safety_clauses":["validity.safety","accuracy"],"liveness_clauses":["validity.liveness","completeness"],"liveness_proved":[],"liveness_skipped":["validity.liveness","completeness"],"violations":[{"clause":"accuracy","kind":"edge","depth":1,"reason":"output {p0,p1,p2} at p0 suspects not-yet-crashed location(s) {p0,p1,p2}","confirmed":true,"counterexample":{"index":0,"clause":"accuracy","reason":"output {p0,p1,p2} at p0 suspects not-yet-crashed location(s) {p0,p1,p2}","event":"fd({p0,p1,p2})_p0","window_start":0,"window":["fd({p0,p1,p2})_p0"]}}],"lassos":[],"sym":{"status":"certified","n":3,"reps":7,"perms":6,"exhaustive":true,"fields":[]}}|}

let test_latched_sinks () =
  let spec = Afd_core.Perfect.spec in
  let detector = Afd_core.Afd_automata.fd_sigma ~n:3 in
  let run symmetry =
    match Mc.check_spec ~max_states:4_000 ?symmetry ~n:3 spec ~detector with
    | Ok o -> o
    | Error e -> Alcotest.failf "raw spec: %s" e
  in
  let sym = run (Some Mc.sym_set) and raw = run None in
  Alcotest.(check string) "quotient row" golden_latched_row
    (Mc.outcome_to_json ~pp_out:spec.Afd_core.Afd.pp_out sym);
  let cex o =
    List.map
      (fun v ->
        (v.Mc.clause, v.Mc.reason, v.Mc.confirmed,
         Afd_prop.Counterexample.to_json ~pp_out:spec.Afd_core.Afd.pp_out
           v.Mc.counterexample))
      o.Mc.violations
  in
  Alcotest.(check (list (triple string string bool)))
    "violations match the unreduced run"
    (List.map (fun (c, r, k, _) -> (c, r, k)) (cex raw))
    (List.map (fun (c, r, k, _) -> (c, r, k)) (cex sym));
  Alcotest.(check (list string)) "counterexamples match the unreduced run"
    (List.map (fun (_, _, _, j) -> j) (cex raw))
    (List.map (fun (_, _, _, j) -> j) (cex sym))

(* --- the timings contract --- *)

let names timings = List.map fst timings

let test_unreduced_phases () =
  let _, t = run ~symmetric:false ~profile:true (subject "CHK.p") in
  Alcotest.(check (list string)) "phases" [ "explore"; "clause_eval"; "lasso" ] (names t)

let test_symmetry_first () =
  List.iter
    (fun id ->
      let _, t = run ~symmetric:true ~profile:true (subject id) in
      Alcotest.(check (list string))
        (id ^ " phases")
        [ "symmetry"; "explore"; "clause_eval"; "lasso" ]
        (names t))
    [ "CHK.p"; "CHK.omega" ]

let test_durations_non_negative () =
  List.iter
    (fun (id, symmetric) ->
      let _, t = run ~symmetric ~profile:true (subject id) in
      List.iter
        (fun (k, dt) -> Alcotest.(check bool) (id ^ " " ^ k ^ " >= 0") true (dt >= 0.))
        t)
    [ ("CHK.p", false); ("CHK.p", true); ("CHK.flipflop", false) ]

let test_profile_invisible () =
  List.iter
    (fun (id, symmetric) ->
      let plain, _ = run ~symmetric ~profile:false (subject id) in
      let profiled, _ = run ~symmetric ~profile:true (subject id) in
      Alcotest.(check string) (Printf.sprintf "%s symmetric=%b" id symmetric) plain profiled)
    [ ("CHK.p", false); ("CHK.marabout", true); ("CHK.marabout", false);
      ("CHK.flipflop", false); ("CHK.omega", true) ]

(* --- lazy reasons --- *)

(* Judges run on every reachable state, but only the reported
   violation's and lasso's reasons are printed, so only those are
   formatted.  The two counted clauses hold until p0 crashes (the fold
   judge) or until some live location suspects someone (the stable
   judge); after that both fail in every state, so a checker that
   formats eagerly counts one format per such state.  FD-P at n = 3
   makes both fail in hundreds of states. *)
let test_reasons_formatted_when_reported () =
  let module P = Afd_prop.Prop in
  let module Loc = Afd_ioa.Loc in
  let formatted = ref 0 in
  let counted ppf () =
    incr formatted;
    Format.pp_print_string ppf "counted"
  in
  let p0_never_crashes =
    P.folding ?perm:None ?cmp:None ~name:"p0-never-crashes" ~init:()
      ~step:(fun _ () _ -> Ok ())
      ~judge:(fun st () ->
        if Loc.Set.mem 0 st.P.crashed then
          P.J_violated (P.reasonf "p0 crashed (%a)" counted ())
        else P.J_sat)
  in
  let suspects_nobody =
    P.eventually_stable ~name:"suspects-nobody" (fun st ->
        if Loc.Map.for_all (fun _ s -> Loc.Set.is_empty s) st.P.last_output then P.J_sat
        else P.J_undecided (P.reasonf "someone is suspected (%a)" counted ()))
  in
  let spec =
    Afd_core.Afd.of_prop ~name:"counted" ~pp_out:Loc.pp_set (fun ~n:_ ->
        P.conj [ P.validity (); p0_never_crashes; suspects_nobody ])
  in
  match
    Mc.check_spec ~n:3 spec ~detector:(Afd_core.Afd_automata.fd_perfect ~n:3)
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let counted_clause c = c = "p0-never-crashes" || c = "suspects-nobody" in
    let violations = List.filter (fun v -> counted_clause v.Mc.clause) o.Mc.violations in
    let lassos = List.filter (fun l -> counted_clause l.Mc.l_clause) o.Mc.lassos in
    Alcotest.(check int) "one fold violation reported" 1 (List.length violations);
    Alcotest.(check int) "one lasso reported" 1 (List.length lassos);
    Alcotest.(check bool) "both replay-confirmed" true
      (List.for_all (fun v -> v.Mc.confirmed) violations
      && List.for_all (fun l -> l.Mc.l_confirmed) lassos);
    Alcotest.(check int) "reasons formatted = violations + lassos"
      (List.length violations + List.length lassos)
      !formatted

(* The checker's one refusal: an instance size the location universe
   cannot hold.  It comes back as an [Error] naming the bound, not as
   an exception from deep inside the crash automaton. *)
let test_n_out_of_range () =
  let bound = Printf.sprintf "1..%d" Afd_ioa.Loc.max_locations in
  let names_bound e =
    let lb = String.length bound in
    let rec at i =
      i + lb <= String.length e && (String.sub e i lb = bound || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun n ->
      match
        Mc.check_spec ~n Afd_core.Perfect.spec
          ~detector:(Afd_core.Afd_automata.fd_perfect ~n:3)
      with
      | Ok _ -> Alcotest.failf "n = %d was model-checked" n
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "n = %d: %S names %s" n e bound) true
          (names_bound e))
    [ 0; 63 ]

(* The product identity is exact: no two states an unreduced
   exploration stored are equal under its probe's [equal_state].  The
   seen-set tries the equality only on states whose hashes meet, so a
   field the hash reads is otherwise never checked by the equality; the
   pairwise scan here ignores the hash. *)
let test_identity_separates_states () =
  List.iter
    (fun (BC.S { id; detector; spec; _ }) ->
      match Mc.unreduced_view ~n:3 spec ~detector:(detector 3) with
      | Error e -> Alcotest.failf "%s n=3: %s" id e
      | Ok (_, sp, probe) ->
        let states = sp.Space.states in
        Array.iteri
          (fun i a ->
            for j = i + 1 to Array.length states - 1 do
              if probe.Probe.equal_state a states.(j) then
                Alcotest.failf "%s n=3: explored states %d and %d are equal" id i j
            done)
          states)
    chk_subjects

let suite =
  [ Alcotest.test_case "quotient outcomes match the golden JSON" `Quick
      test_quotient_golden;
    Alcotest.test_case "quotient counterexamples are lifted to genuine runs" `Quick
      test_lifted_counterexample;
    Alcotest.test_case "timings: unreduced phases in order" `Quick test_unreduced_phases;
    Alcotest.test_case "timings: symmetric runs time symmetry first" `Quick
      test_symmetry_first;
    Alcotest.test_case "timings: every duration is non-negative" `Quick
      test_durations_non_negative;
    Alcotest.test_case "timings: a profiled outcome's JSON equals the unprofiled one"
      `Quick test_profile_invisible;
    Alcotest.test_case "a quotient reaching latched sinks: FD-Sigma vs P" `Quick
      test_latched_sinks;
    Alcotest.test_case "judges' reasons are formatted only when reported" `Quick
      test_reasons_formatted_when_reported;
    Alcotest.test_case "n outside 1..Loc.max_locations is an Error" `Quick
      test_n_out_of_range;
    Alcotest.test_case "the product identity separates every explored state (n = 3)"
      `Quick test_identity_separates_states;
  ]
