(* Differential tests for the orbit reduction (lib/analysis/symm and
   the Mc quotient hook).

   The soundness claim under test: requesting symmetry never changes
   what the model checker {e claims} — same safety verdict, same
   violated clauses, every witness still replay-confirmed — it only
   changes how many states it visits.  Certified subjects quotient,
   breaking and undeclared ones fall back to unreduced, and either way
   the claims must match a plain unreduced run.  Depths and windows are
   not compared: a quotient-shortest path lifts to a genuine but not
   necessarily shortest run. *)

open Afd_analysis
module BC = Afd_bench.Check

let chk_subjects = BC.subjects @ BC.liveness_subjects

(* Run one CHK subject unreduced and with its declared symmetry at
   instance size [n]; both runs must exhaust and claim the same things.
   The GADT match and everything typed by its existentials stay inside
   this one function. *)
let claims_agree ~por ~n (BC.S { detector; symm; spec; _ }) =
  match symm with
  | None -> true
  | Some kit ->
    let run use_sym =
      let r =
        if use_sym then
          Mc.check_spec ~max_states:20_000 ~por ~symmetry:kit ~n spec
            ~detector:(detector n)
        else Mc.check_spec ~max_states:20_000 ~por ~n spec ~detector:(detector n)
      in
      match r with
      | Ok o -> o
      | Error e -> Alcotest.failf "unexpected raw spec: %s" e
    in
    let raw = run false and sym = run true in
    let claims o =
      List.sort compare
        (List.map (fun v -> (v.Mc.clause, v.Mc.confirmed)) o.Mc.violations)
    in
    raw.Mc.verdict = Space.Exhausted
    && sym.Mc.verdict = Space.Exhausted
    && raw.Mc.safety_proved = sym.Mc.safety_proved
    && claims raw = claims sym
    && List.for_all (fun v -> v.Mc.confirmed) sym.Mc.violations

(* --- qcheck: quotiented == unreduced claims across the catalog --- *)

let differential_prop =
  let gen =
    QCheck2.Gen.(
      let* subj_ix = int_bound (List.length chk_subjects - 1) in
      let* por = bool in
      let* n = oneofl [ 2; 3 ] in
      return (subj_ix, por, n))
  in
  QCheck2.Test.make
    ~name:"Mc quotient == unreduced claims on CHK subjects x por x n" ~count:40
    ~print:(fun (i, por, n) ->
      Printf.sprintf "subject=%s por=%b n=%d" (BC.id (List.nth chk_subjects i)) por n)
    gen
    (fun (subj_ix, por, n) -> claims_agree ~por ~n (List.nth chk_subjects subj_ix))

(* --- deterministic pins --- *)

(* n = 4 is where the quotient starts to pay: FD-P's unreduced product
   is 17976 states, its quotient 35 orbits. *)
let test_quotient_at_n4 () =
  let subj = List.find (fun s -> BC.id s = "CHK.p") chk_subjects in
  Alcotest.(check bool) "CHK.p claims agree at n=4" true
    (claims_agree ~por:false ~n:4 subj)

let statuses =
  [ ("CHK.p", `Certified); ("CHK.evp", `Breaking); ("CHK.s", `Certified);
    ("CHK.evs", `Breaking); ("CHK.omega", `Breaking);
    ("CHK.antiomega", `Breaking); ("CHK.omega2", `Breaking);
    ("CHK.psi2", `Breaking); ("CHK.sigma", `Certified); ("CHK.dk", `Certified);
    ("CHK.lying-p", `Breaking); ("CHK.marabout", `Certified);
    ("CHK.flipflop", `Breaking); ("CHK.silent", `Breaking);
  ]

(* Which subjects certify is itself part of the analyzer's contract:
   the crash-set detectors whose outputs are set-valued functions of
   the crash set certify; anything electing a {e particular} location
   (min/max), consulting its own id, or carrying scripted noise breaks
   — with a witness naming a concrete task and permutation. *)
let test_certification_statuses () =
  List.iter
    (fun (id, expect) ->
      let (BC.S { n; detector; symm; spec; _ }) =
        List.find (fun s -> BC.id s = id) chk_subjects
      in
      let kit = Option.get symm in
      match Mc.check_spec ~symmetry:kit ~n spec ~detector:(detector n) with
      | Error e -> Alcotest.failf "%s: raw spec: %s" id e
      | Ok o -> (
        match (o.Mc.sym, expect) with
        | Mc.Sym_quotient _, `Certified | Mc.Sym_breaking _, `Breaking -> ()
        | status, _ ->
          Alcotest.failf "%s: unexpected certification status %a" id
            (fun ppf -> Mc.pp_sym_status ppf)
            status))
    statuses

let test_breaking_witness_is_named () =
  let (BC.S { n; detector; symm; spec; _ }) =
    List.find (fun s -> BC.id s = "CHK.omega") chk_subjects
  in
  match
    Mc.check_spec ~symmetry:(Option.get symm) ~n spec ~detector:(detector n)
  with
  | Error e -> Alcotest.failf "raw spec: %s" e
  | Ok o -> (
    match o.Mc.sym with
    | Mc.Sym_breaking w ->
      let s = Fmt.str "%a" Symm.pp_witness w in
      Alcotest.(check bool) "witness names the detector's task" true
        (Option.is_some w.Symm.w_task);
      Alcotest.(check bool) "witness names a permutation" true
        (String.length w.Symm.w_perm > 0);
      Alcotest.(check bool) "witness renders non-trivially" true
        (String.length s > 20)
    | _ -> Alcotest.fail "FD-Omega must produce a breaking witness")

let test_parametric_ladder_pin () =
  let (BC.S { detector; symm; spec; _ }) =
    List.find (fun s -> BC.id s = "CHK.p") chk_subjects
  in
  let p = Mc.parametric ~symmetry:(Option.get symm) spec ~detector in
  (match p.Mc.par_verdict with
  | Mc.Cutoff_candidate { n0; upto } ->
    Alcotest.(check int) "cutoff candidate starts at n0=2" 2 n0;
    Alcotest.(check int) "proved up to n=5" 5 upto
  | _ -> Alcotest.fail "expected a cutoff candidate for FD-P vs P");
  Alcotest.(check (list int)) "one point per instance" [ 2; 3; 4; 5 ]
    (List.map (fun pt -> pt.Mc.pt_n) p.Mc.par_points);
  List.iter
    (fun pt ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d proved on the quotient" pt.Mc.pt_n)
        true pt.Mc.pt_proved)
    p.Mc.par_points;
  (* orbit counts grow polynomially where raw states explode: the last
     instance is out of the unreduced explorer's default budget *)
  let orbits = List.map (fun pt -> pt.Mc.pt_orbits) p.Mc.par_points in
  Alcotest.(check bool) "orbit curve is increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 3) orbits) (List.tl orbits));
  let last = List.nth p.Mc.par_points 3 in
  Alcotest.(check bool) "n=5 is beyond the unreduced budget" true
    (last.Mc.pt_raw_states = None);
  (* and the JSON rendering carries the verdict and the curve *)
  let json = Mc.parametric_to_json p in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "json has the verdict" true
    (contains json "\"kind\":\"cutoff-candidate\"");
  Alcotest.(check bool) "json has raw-state nulls past the budget" true
    (contains json "\"raw_states\":null")

let test_sy_all_rows_ok () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s): quotiented run agrees" r.BC.sy_id r.BC.sy_status)
        true r.BC.sy_ok)
    (BC.sy_all ~max_states:4_000 ())

(* --- rename_locs on tokens that name no location --- *)

let test_rename_locs_non_locations () =
  let swap01 i = match i with 0 -> 1 | 1 -> 0 | i -> i in
  Alcotest.(check string) "locations below n are renamed" "fd_p1/crash_p0"
    (Symm.rename_locs ~n:3 swap01 "fd_p0/crash_p1");
  Alcotest.(check string) "an index >= n is left alone" "fd_p3"
    (Symm.rename_locs ~n:3 swap01 "fd_p3");
  Alcotest.(check string) "a token overflowing an int is left alone"
    "fd_p99999999999999999999"
    (Symm.rename_locs ~n:3 swap01 "fd_p99999999999999999999")

(* --- a step that breaks only below the start state --- *)

(* Flags over three processes: the first [Set i] raises flag [i]; every
   later one raises flag [i] and flag 0 too.  Every check at the start
   state passes, since the empty set is fixed by every permutation and
   the first step is unbiased; the bias shows only at a deeper
   representative. *)
type flag = Set of int

let biased_flags : (Afd_ioa.Loc.Set.t, flag) Afd_ioa.Automaton.t =
  let module S = Afd_ioa.Loc.Set in
  { Afd_ioa.Automaton.name = "biased-flags";
    kind =
      (fun (Set i) -> if i >= 0 && i < 3 then Some Afd_ioa.Automaton.Input else None);
    start = S.empty;
    step =
      (fun s (Set i) ->
        Some (if S.is_empty s then S.singleton i else S.add 0 (S.add i s)));
    tasks = [];
  }

let biased_probe =
  let module S = Afd_ioa.Loc.Set in
  let symm =
    { Probe.sy_n = 3;
      sy_state = Symm.perm_set;
      sy_action = (fun pif (Set i) -> Set (pif i));
      sy_cmp = S.compare;
      sy_fields = [];
    }
  in
  Probe.make ~equal_state:S.equal
    ~hash_state:(fun s -> Hashtbl.hash (S.elements s))
    ~symm [ Set 0; Set 1; Set 2 ]

let test_deep_step_breaks () =
  match Symm.analyze biased_flags biased_probe with
  | Symm.Breaking w ->
    Alcotest.(check bool) "a step witness" true (w.Symm.w_kind = `Step);
    Alcotest.(check bool) "below the start state" true (w.Symm.w_state > 0)
  | Symm.Certified _ -> Alcotest.fail "biased-flags must not certify"
  | Symm.Unsupported r -> Alcotest.failf "unsupported: %s" r

(* --- a task that breaks only away from its representative --- *)

(* Three flags, the start state gives one to p0, and task [pass_p<i>]
   fires (a self-loop) while p<i> holds a flag and p2 holds none.  At
   the representative {p0} both generators of S_3 pass: (p0 p1) and
   the 3-cycle both move the flag to p1, where the mirrored task is
   enabled too.  Only the image {p2}, reached from {p1} by the 3-cycle,
   disables its mirror.  The witness is the one the per-permutation
   sweep at the representative reports. *)
type pass = Pass of int

let gated_pass : (Afd_ioa.Loc.Set.t, pass) Afd_ioa.Automaton.t =
  let module S = Afd_ioa.Loc.Set in
  let task i =
    { Afd_ioa.Automaton.task_name = Printf.sprintf "pass_p%d" i;
      fair = true;
      enabled =
        (fun s -> if S.mem i s && not (S.mem 2 s) then Some (Pass i) else None);
    }
  in
  { Afd_ioa.Automaton.name = "gated-pass";
    kind =
      (fun (Pass i) ->
        if i >= 0 && i < 3 then Some Afd_ioa.Automaton.Internal else None);
    start = S.singleton 0;
    step = (fun s (Pass _) -> Some s);
    tasks = List.map task [ 0; 1; 2 ];
  }

let test_breaks_off_representative () =
  let module S = Afd_ioa.Loc.Set in
  let symm =
    { Probe.sy_n = 3;
      sy_state = Symm.perm_set;
      sy_action = (fun pif (Pass i) -> Pass (pif i));
      sy_cmp = Afd_ioa.Loc.Set.compare;
      sy_fields = [];
    }
  in
  let probe =
    Probe.make ~equal_state:S.equal
      ~hash_state:(fun s -> Hashtbl.hash (S.elements s))
      ~symm []
  in
  match Symm.analyze gated_pass probe with
  | Symm.Breaking w ->
    Alcotest.(check string) "the per-permutation witness"
      "enabledness not equivariant under (p0 p2) at state #0 (task pass_p0): \
       task pass_p2 enabled action is not the permuted one"
      (Fmt.str "%a" Symm.pp_witness w)
  | Symm.Certified _ -> Alcotest.fail "gated-pass must not certify"
  | Symm.Unsupported r -> Alcotest.failf "unsupported: %s" r

(* --- the certificate's exhaustiveness is the exploration's --- *)

(* FD-P against P at n = 3 has a 30-orbit quotient.  A budget of
   exactly 30 stores every orbit and cuts nothing, so the certificate
   is exhaustive; at 29 one successor is cut and it is bounded. *)
let test_budget_at_quotient_size () =
  let run max_states =
    match
      Mc.check_spec ~max_states ~symmetry:Mc.sym_set ~n:3 Afd_core.Perfect.spec
        ~detector:(Afd_core.Afd_automata.fd_perfect ~n:3)
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "raw spec: %s" e
  in
  let expect max_states ~exhausted =
    let o = run max_states in
    Alcotest.(check bool)
      (Printf.sprintf "verdict exhausted at %d" max_states)
      exhausted
      (o.Mc.verdict = Space.Exhausted);
    match o.Mc.sym with
    | Mc.Sym_quotient c ->
      Alcotest.(check int) (Printf.sprintf "reps at %d" max_states) max_states
        c.Symm.c_states;
      Alcotest.(check bool)
        (Printf.sprintf "certificate exhaustive at %d" max_states)
        exhausted c.Symm.c_exhaustive
    | status ->
      Alcotest.failf "unexpected status at %d: %a" max_states
        (fun ppf -> Mc.pp_sym_status ppf)
        status
  in
  expect 30 ~exhausted:true;
  expect 29 ~exhausted:false

(* --- certificates and field classification are pinned --- *)

let render_verdict = function
  | Symm.Certified c ->
    Printf.sprintf "certified n=%d states=%d perms=%d exhaustive=%b fields=[%s]"
      c.Symm.c_n c.Symm.c_states c.Symm.c_perms c.Symm.c_exhaustive
      (String.concat ";"
         (List.map
            (fun (f, k) ->
              f ^ ":" ^ match k with `Indexed -> "indexed" | `Invariant -> "invariant")
            c.Symm.c_fields))
  | Symm.Breaking w -> Fmt.str "breaking: %a" Symm.pp_witness w
  | Symm.Unsupported r -> "unsupported: " ^ r

(* [Symm.analyze] on every registered automaton that declares fields
   (the catalog's, then the symmetry fixtures'), as the all-permutation
   analyzer computed it.  MC products declare no fields and the lint
   JSON does not print them, so this is what pins the classification. *)
let golden_certificates =
  [ "crash: certified n=3 states=4 perms=6 exhaustive=true fields=[crashset:indexed]";
    "FD-Omega: breaking: step not equivariant under (p0 p2) at state #0: fd(p0)_p0 is \
     disabled in the permuted state";
    "FD-antiOmega: breaking: step not equivariant under (p0 p1 p2) at state #0: \
     fd(p0)_p0 becomes enabled in the permuted state";
    "FD-P: certified n=3 states=4 perms=6 exhaustive=true fields=[crashset:indexed]";
    "FD-Sigma: certified n=3 states=4 perms=6 exhaustive=true fields=[crashset:indexed]";
    "FD-Omega2: breaking: step not equivariant under (p0 p2) at state #0: \
     fd({p1,p2})_p0 becomes enabled in the permuted state";
    "FD-Psi2: breaking: step not equivariant under (p0 p2) at state #0: \
     fd({p1,p2})_p0 becomes enabled in the permuted state";
    "FD-FlipFlop: breaking: step not equivariant under (p0 p2) at state #0: fd(p0)_p0 \
     is disabled in the permuted state";
    "min-suspector: breaking: step not equivariant under (p0 p1) at state #0: \
     fd({p0})_p0 is disabled in the permuted state";
    "declared-suspector: certified n=2 states=3 perms=2 exhaustive=true \
     fields=[crashset:indexed]";
  ]

let test_certificates_pinned () =
  let certify = function
    | Registry.Automaton (a, p) -> (
      match p.Probe.symm with
      | Some sy when sy.Probe.sy_fields <> [] ->
        Some
          (Printf.sprintf "%s: %s" a.Afd_ioa.Automaton.name
             (render_verdict (Symm.analyze a p)))
      | Some _ | None -> None)
    | Registry.Composition _ -> None
  in
  let entries =
    List.map (fun it -> it.Registry.entry) (Catalog.items ())
    @ List.map snd Fixtures.symmetry
    @ [ Fixtures.symmetry_certifiable ]
  in
  Alcotest.(check (list string)) "certificates" golden_certificates
    (List.filter_map certify entries)

(* --- the n = 6 rung --- *)

let test_n6_rung id ~orbits ~reps () =
  let (BC.S { detector; symm; spec; _ }) =
    List.find (fun s -> BC.id s = id) chk_subjects
  in
  let p =
    Mc.parametric ~ns:[ 2; 3; 4; 5; 6 ] ~symmetry:(Option.get symm) spec ~detector
  in
  Alcotest.(check (list int)) "orbits at n=2..6" orbits
    (List.map (fun pt -> pt.Mc.pt_orbits) p.Mc.par_points);
  (match p.Mc.par_verdict with
  | Mc.Cutoff_candidate { n0 = 2; upto = 6 } -> ()
  | _ -> Alcotest.fail "expected a cutoff candidate from n0=2 up to 6");
  match p.Mc.par_sym with
  | Mc.Sym_quotient c ->
    Alcotest.(check (list int)) "n, reps, perms at n=6" [ 6; reps; 720 ]
      [ c.Symm.c_n; c.Symm.c_states; c.Symm.c_perms ];
    Alcotest.(check bool) "exhaustive" true c.Symm.c_exhaustive
  | status ->
    Alcotest.failf "unexpected status at n=6: %a"
      (fun ppf -> Mc.pp_sym_status ppf)
      status

(* --- the quotient is closed under the orbit minimum --- *)

(* The orbit walk hands the explorer class minima: on every subject's
   n=4 quotient, each stored representative must be its own
   [Symm.canonizer_w] image (identity witness), and the image of each
   of its successors must be stored. *)
let quotient_closed (BC.S { id; detector; symm; spec; _ }) =
  match
    Mc.quotient_view ~symmetry:(Option.get symm) ~n:4 spec ~detector:(detector 4)
  with
  | Error e -> Alcotest.failf "%s: %s" id e
  | Ok qv ->
    let sy = qv.Mc.qv_symmetry in
    let canon = Symm.canonizer_w sy in
    let stored s = Array.exists (fun r -> sy.Probe.sy_cmp r s = 0) qv.Mc.qv_states in
    let successors = ref 0 in
    Array.iteri
      (fun i r ->
        let c, w = canon r in
        if sy.Probe.sy_cmp c r <> 0 || not (Symm.Perm.is_identity w) then
          Alcotest.failf "%s: representative #%d is not its orbit minimum (witness %s)"
            id i (Symm.Perm.to_string w);
        List.iter
          (fun (t : _ Afd_ioa.Automaton.task) ->
            match t.Afd_ioa.Automaton.enabled r with
            | None -> ()
            | Some a ->
              Option.iter
                (fun s ->
                  incr successors;
                  if not (stored (fst (canon s))) then
                    Alcotest.failf "%s: a successor of #%d has no stored orbit minimum"
                      id i)
                (qv.Mc.qv_product.Afd_ioa.Automaton.step r a))
          qv.Mc.qv_product.Afd_ioa.Automaton.tasks)
      qv.Mc.qv_states;
    Alcotest.(check bool)
      (Printf.sprintf "%s: checked %d successors" id !successors)
      true
      (!successors > Array.length qv.Mc.qv_states)

let test_quotient_closed () =
  List.iter
    (fun id -> quotient_closed (List.find (fun s -> BC.id s = id) chk_subjects))
    [ "CHK.p"; "CHK.s"; "CHK.sigma"; "CHK.dk" ]

(* --- the ladder skips unreduced rungs past the first truncation --- *)

(* A budget between CHK.s's unreduced counts at n=3 (1 124) and n=4
   (11 648), far above its quotients (at most 101 orbits). *)
let test_parametric_skips_raw_rungs () =
  let (BC.S { detector; symm; spec; _ }) =
    List.find (fun s -> BC.id s = "CHK.s") chk_subjects
  in
  let max_states = 4_000 in
  let p = Mc.parametric ~max_states ~symmetry:(Option.get symm) spec ~detector in
  Alcotest.(check (list (option int)))
    "raw counts at n=2..5: exhausted, then truncated at 4 and skipped at 5"
    [ Some 132; Some 1124; None; None ]
    (List.map (fun pt -> pt.Mc.pt_raw_states) p.Mc.par_points);
  Alcotest.(check (list bool)) "every quotient rung exhausts" [ true; true; true; true ]
    (List.map (fun pt -> pt.Mc.pt_verdict = Space.Exhausted) p.Mc.par_points);
  match Mc.check_spec ~max_states ~n:5 spec ~detector:(detector 5) with
  | Ok o ->
    Alcotest.(check bool) "a direct unreduced run at n=5 truncates" true
      (match o.Mc.verdict with Space.Truncated _ -> true | Space.Exhausted -> false)
  | Error e -> Alcotest.failf "raw spec: %s" e

(* --- an unreduced rung is a count, pinned at its budget boundary --- *)

(* CHK.s at n = 3 exhausts unreduced with exactly 1 124 states: the
   ladder's count reads [Some 1124] at a budget of 1 124 (the plain run
   exhausts too) and [None] at 1 123 (the plain run truncates). *)
let test_parametric_raw_count_boundary () =
  let (BC.S { detector; symm; spec; _ }) =
    List.find (fun s -> BC.id s = "CHK.s") chk_subjects
  in
  List.iter
    (fun (max_states, expected) ->
      let p =
        Mc.parametric ~max_states ~ns:[ 3 ] ~symmetry:(Option.get symm) spec ~detector
      in
      Alcotest.(check (list (option int)))
        (Printf.sprintf "raw count at budget %d" max_states)
        [ expected ]
        (List.map (fun pt -> pt.Mc.pt_raw_states) p.Mc.par_points);
      match Mc.check_spec ~max_states ~n:3 spec ~detector:(detector 3) with
      | Ok o ->
        Alcotest.(check (option int))
          (Printf.sprintf "plain run at budget %d" max_states)
          expected
          (match o.Mc.verdict with
          | Space.Exhausted -> Some o.Mc.states
          | Space.Truncated _ -> None)
      | Error e -> Alcotest.failf "check_spec: %s" e)
    [ (1124, Some 1124); (1123, None) ]

(* --- the ladder climbs one size at a time --- *)

(* A cutoff candidate reads "proved for n0..upto" off its points, so a
   gap ([2; 4; 5] would claim n = 3) or a descent is refused before any
   instance runs: the detector family fails the test if it is asked for
   an instance. *)
let test_parametric_rejects_gaps () =
  let (BC.S { symm; spec; _ }) = List.find (fun s -> BC.id s = "CHK.p") chk_subjects in
  let detector n = Alcotest.failf "instance n=%d ran" n in
  List.iter
    (fun (ns, shown) ->
      let p = Mc.parametric ~ns ~symmetry:(Option.get symm) spec ~detector in
      Alcotest.(check int) (shown ^ ": no points") 0 (List.length p.Mc.par_points);
      match p.Mc.par_verdict with
      | Mc.Unverified r ->
        Alcotest.(check string)
          (shown ^ ": the reason names the list")
          ("ladder " ^ shown ^ " is not a non-empty run of consecutive ascending sizes")
          r
      | _ -> Alcotest.failf "%s: expected Unverified" shown)
    [ ([ 2; 4; 5 ], "[2; 4; 5]"); ([ 3; 2 ], "[3; 2]"); ([], "[]") ]

(* --- a breaking subject's fallback is the unreduced run --- *)

(* A breaking subject explores unreduced under the pair identity its
   symmetry declares ([ss_cmp]); the plain run compares the composed
   states structurally.  Location sets are words, so the two identities
   coincide and so do the counts: no state is split by the order its
   sets were built in (at the tree-set parent, CHK.omega read 929
   plain states against 580). *)
let test_breaking_raw_is_semantic () =
  let breaking =
    List.filter
      (fun r -> String.equal r.BC.sy_status "breaking")
      (BC.sy_all ~ns:[ 2 ] ~max_states:4_000 ())
  in
  Alcotest.(check int) "nine breaking subjects" 9 (List.length breaking);
  List.iter
    (fun r ->
      Alcotest.(check int) (r.BC.sy_id ^ ": unreduced = fallback states") r.BC.sy_states
        r.BC.sy_raw_states)
    breaking

(* --- golden rows --- *)

(* [BC.sy_all ~max_states:4_000 ()] as computed with the unstaged
   canonizer and every unreduced rung run: representatives, witnesses,
   rep counts and raw state counts must not drift. *)
let golden_sy_rows =
  [
    {|{"id": "CHK.p", "status": "certified", "detail": "30 reps x 6 perms", "states": 30, "raw_states": 1124, "agree": true, "ok": true, "parametric": {"verdict":{"kind":"cutoff-candidate","n0":2,"upto":5},"sym":{"status":"certified","n":5,"reps":39,"perms":120,"exhaustive":true,"fields":[]},"points":[{"n":2,"orbits":24,"transitions":52,"verdict":"exhausted","proved":true,"violated":[],"raw_states":132},{"n":3,"orbits":30,"transitions":100,"verdict":"exhausted","proved":true,"violated":[],"raw_states":1124},{"n":4,"orbits":35,"transitions":160,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null},{"n":5,"orbits":39,"transitions":230,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null}]}}|};
    {|{"id": "CHK.evp", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-EvP-noisy/fd_p0): task FD-EvP-noisy/fd_p2 enabled action is not the permuted one", "states": 1310, "raw_states": 1310, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.s", "status": "certified", "detail": "59 reps x 6 perms", "states": 59, "raw_states": 1124, "agree": true, "ok": true, "parametric": {"verdict":{"kind":"cutoff-candidate","n0":2,"upto":5},"sym":{"status":"certified","n":5,"reps":101,"perms":120,"exhaustive":true,"fields":[]},"points":[{"n":2,"orbits":37,"transitions":66,"verdict":"exhausted","proved":true,"violated":[],"raw_states":132},{"n":3,"orbits":59,"transitions":152,"verdict":"exhausted","proved":true,"violated":[],"raw_states":1124},{"n":4,"orbits":81,"transitions":280,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null},{"n":5,"orbits":101,"transitions":450,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null}]}}|};
    {|{"id": "CHK.evs", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-EvP-noisy/fd_p0): task FD-EvP-noisy/fd_p2 enabled action is not the permuted one", "states": 1310, "raw_states": 1310, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.omega", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-Omega/fd_p0): task FD-Omega/fd_p2 enabled action is not the permuted one", "states": 580, "raw_states": 580, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.antiomega", "status": "breaking", "detail": "enabledness not equivariant under (p0 p1 p2) at state #0 (task FD-antiOmega/fd_p0): task FD-antiOmega/fd_p1 enabled action is not the permuted one", "states": 528, "raw_states": 528, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.omega2", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-Omega2/fd_p0): task FD-Omega2/fd_p2 enabled action is not the permuted one", "states": 740, "raw_states": 740, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.psi2", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-Psi2/fd_p0): task FD-Psi2/fd_p2 enabled action is not the permuted one", "states": 740, "raw_states": 740, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.sigma", "status": "certified", "detail": "99 reps x 6 perms", "states": 99, "raw_states": 1571, "agree": true, "ok": true, "parametric": {"verdict":{"kind":"cutoff-candidate","n0":2,"upto":5},"sym":{"status":"certified","n":5,"reps":256,"perms":120,"exhaustive":true,"fields":[]},"points":[{"n":2,"orbits":48,"transitions":78,"verdict":"exhausted","proved":true,"violated":[],"raw_states":154},{"n":3,"orbits":99,"transitions":214,"verdict":"exhausted","proved":true,"violated":[],"raw_states":1571},{"n":4,"orbits":171,"transitions":468,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null},{"n":5,"orbits":256,"transitions":876,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null}]}}|};
    {|{"id": "CHK.dk", "status": "certified", "detail": "30 reps x 6 perms", "states": 30, "raw_states": 1124, "agree": true, "ok": true, "parametric": {"verdict":{"kind":"cutoff-candidate","n0":2,"upto":5},"sym":{"status":"certified","n":5,"reps":39,"perms":120,"exhaustive":true,"fields":[]},"points":[{"n":2,"orbits":24,"transitions":52,"verdict":"exhausted","proved":true,"violated":[],"raw_states":132},{"n":3,"orbits":30,"transitions":100,"verdict":"exhausted","proved":true,"violated":[],"raw_states":1124},{"n":4,"orbits":35,"transitions":160,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null},{"n":5,"orbits":39,"transitions":230,"verdict":"exhausted","proved":true,"violated":[],"raw_states":null}]}}|};
    {|{"id": "CHK.lying-p", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-EvP-noisy/fd_p0): task FD-EvP-noisy/fd_p2 enabled action is not the permuted one", "states": 695, "raw_states": 695, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.marabout", "status": "certified", "detail": "216 reps x 6 perms", "states": 216, "raw_states": 2987, "agree": true, "ok": true, "parametric": {"verdict":{"kind":"refuted","n":2},"sym":{"status":"certified","n":2,"reps":66,"perms":2,"exhaustive":true,"fields":[]},"points":[{"n":2,"orbits":66,"transitions":104,"verdict":"exhausted","proved":false,"violated":["exactness"],"raw_states":196}]}}|};
    {|{"id": "CHK.flipflop", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-FlipFlop/fd_p0): task FD-FlipFlop/fd_p2 enabled action is not the permuted one", "states": 1488, "raw_states": 1488, "agree": true, "ok": true, "parametric": null}|};
    {|{"id": "CHK.silent", "status": "breaking", "detail": "enabledness not equivariant under (p0 p2) at state #0 (task FD-Silent/fd_p0): task FD-Silent/fd_p2 enabled action is not the permuted one", "states": 119, "raw_states": 119, "agree": true, "ok": true, "parametric": null}|};
  ]

let test_sy_all_golden () =
  Alcotest.(check (list string)) "sy_json rows" golden_sy_rows
    (List.map (fun r -> r.BC.sy_json) (BC.sy_all ~max_states:4_000 ()))

let suite =
  [ QCheck_alcotest.to_alcotest differential_prop;
    Alcotest.test_case "quotient pays at n=4 (FD-P)" `Quick test_quotient_at_n4;
    Alcotest.test_case "certification statuses are pinned" `Quick
      test_certification_statuses;
    Alcotest.test_case "breaking witness names task and permutation" `Quick
      test_breaking_witness_is_named;
    Alcotest.test_case "parametric ladder: FD-P cutoff candidate" `Quick
      test_parametric_ladder_pin;
    Alcotest.test_case "sy_all: every row agrees" `Quick test_sy_all_rows_ok;
    Alcotest.test_case "sy_all: rows match the golden JSON" `Quick test_sy_all_golden;
    Alcotest.test_case "rename_locs leaves non-location tokens alone" `Quick
      test_rename_locs_non_locations;
    Alcotest.test_case "a step breaking below the start state is caught" `Quick
      test_deep_step_breaks;
    Alcotest.test_case "a task breaking away from its representative is caught"
      `Quick test_breaks_off_representative;
    Alcotest.test_case "certificates and field classification are pinned" `Quick
      test_certificates_pinned;
    Alcotest.test_case "a budget equal to the quotient size certifies exhaustive"
      `Quick test_budget_at_quotient_size;
    Alcotest.test_case "n=6 rung: FD-Sigma" `Quick
      (test_n6_rung "CHK.sigma" ~orbits:[ 48; 99; 171; 256; 365 ] ~reps:365);
    Alcotest.test_case "n=6 rung: FD-S" `Quick
      (test_n6_rung "CHK.s" ~orbits:[ 37; 59; 81; 101; 117 ] ~reps:117);
    Alcotest.test_case "quotient closed under the orbit minimum at n=4" `Quick
      test_quotient_closed;
    Alcotest.test_case "parametric skips raw rungs past a truncation" `Quick
      test_parametric_skips_raw_rungs;
    Alcotest.test_case "parametric raw count: Some k at budget k, None at k-1" `Quick
      test_parametric_raw_count_boundary;
    Alcotest.test_case "breaking subjects: unreduced count = fallback count" `Quick
      test_breaking_raw_is_semantic;
    Alcotest.test_case "parametric rejects a ladder with gaps" `Quick
      test_parametric_rejects_gaps;
  ]
