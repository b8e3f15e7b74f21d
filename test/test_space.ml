(* Tests for the hashed state-space explorer (lib/analysis/space.ml),
   its POR reduction, and the exhaustive MC pass over the bench
   subjects.

   The load-bearing properties: the hashed seen-set visits exactly the
   states the legacy list scan visited, in the same order, on every
   catalog subject; truncation is an explicit verdict, never silent;
   sleep-set POR preserves the reachable set (provably, on exhausted
   explorations) while pruning interleavings; and the MC gate proves
   every truthful CHK subject while refuting both broken ones with
   confirmed shortest counterexamples.  A qcheck property ties the
   explorer to the scheduler: no random execution ever leaves the
   exhaustively computed reachable set. *)

open Afd_ioa
open Afd_core
open Afd_analysis

let pp_act fmt = function
  | Fixtures.Tick k -> Fmt.pf fmt "tick%d" k
  | Fixtures.Reset -> Format.pp_print_string fmt "reset"
  | Fixtures.Noise -> Format.pp_print_string fmt "noise"

(* --- hashed explorer == legacy list scan, across the catalog --- *)

let test_differential_vs_list () =
  let checked = ref 0 in
  List.iter
    (fun { Registry.origin; entry } ->
      let subj = Subject.make ~origin entry in
      let (Subject.P { aut = a; probe = p; _ }) = subj.Subject.packed in
      incr checked;
      let hashed = Space.reachable (Space.explore a p) in
      let listed = List_explore.list_based a p in
      Alcotest.(check int)
        (subj.Subject.name ^ ": same state count")
        (List.length listed) (List.length hashed);
      List.iter2
        (fun x y ->
          Alcotest.(check bool)
            (subj.Subject.name ^ ": same visit order")
            true (p.Probe.equal_state x y))
        hashed listed)
    (Catalog.items ());
  Alcotest.(check bool) "covered a real spread of subjects" true (!checked >= 20)

let test_hash_fallback_single_bucket () =
  (* a custom equality with no hash degrades to one bucket but stays
     correct *)
  let a = Afd_automata.fd_perfect ~n:3 in
  let mk ?hash_state () =
    Probe.make
      ~equal_action:(Fd_event.equal Loc.Set.equal)
      ~pp_action:(Fd_event.pp Loc.pp_set)
      ~equal_state:Loc.Set.equal ?hash_state
      [ Fd_event.Crash 0; Fd_event.Crash 1; Fd_event.Crash 2 ]
  in
  let no_hash = mk () in
  Alcotest.(check bool) "custom equality without hash -> None" true
    (no_hash.Probe.hash_state = None);
  let with_hash = mk ~hash_state:Loc.hash_set () in
  let r1 = Space.reachable (Space.explore a no_hash)
  and r2 = Space.reachable (Space.explore a with_hash) in
  Alcotest.(check int) "same count with and without hash" (List.length r1)
    (List.length r2);
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "same order with and without hash" true
        (Loc.Set.equal x y))
    r1 r2

(* --- seed dedup, visit order, truncation verdicts --- *)

let counter_probe ?max_states ?seed_states () =
  Probe.make ~pp_action:pp_act ?max_states ?seed_states
    [ Fixtures.Tick 1; Fixtures.Tick 2; Fixtures.Tick 3; Fixtures.Reset ]

let test_seed_dedup_and_visit_order () =
  let c = Fixtures.counter ~name:"c" ~limit:3 in
  (* 0 duplicates the start state, the second 2 duplicates a seed *)
  let p = counter_probe ~seed_states:[ 2; 0; 2; 1 ] () in
  let sp = Space.explore c p in
  Alcotest.(check int) "duplicate seeds counted" 2 sp.Space.stats.Space.dup_seeds;
  Alcotest.(check (list int)) "pinned visit order: start, deduped seeds, BFS"
    [ 0; 2; 1; 3 ] (Space.reachable sp);
  Alcotest.(check string) "exhausted" "exhausted"
    (Space.verdict_string sp.Space.verdict)

let test_truncation_verdict () =
  let c = Fixtures.counter ~name:"c" ~limit:3 in
  let sp = Space.explore c (counter_probe ~max_states:2 ()) in
  (match sp.Space.verdict with
  | Space.Truncated cap -> Alcotest.(check int) "cap recorded" 2 cap
  | Space.Exhausted -> Alcotest.fail "expected truncation at cap 2");
  Alcotest.(check int) "exactly the budget" 2 (Array.length sp.Space.states);
  let full = Space.explore c (counter_probe ~max_states:64 ()) in
  Alcotest.(check bool) "full run exhausts" true
    (full.Space.verdict = Space.Exhausted);
  Alcotest.(check int) "4 counter states" 4 (Array.length full.Space.states)

(* --- the count query == the full exploration's verdict --- *)

(* [Space.count] is [Some k] exactly when [Space.explore] exhausts with
   k states and [None] exactly when it truncates, at budgets on both
   sides of each subject's exhaustion point, across the catalog and the
   graph-rule fixtures (probe seeds included). *)
let test_count_matches_explore () =
  let checked = ref 0 in
  let check name a p =
    let k = Array.length (Space.explore a p).Space.states in
    List.iter
      (fun m ->
        let p = { p with Probe.max_states = m } in
        let sp = Space.explore a p in
        let expected =
          match sp.Space.verdict with
          | Space.Exhausted -> Some (Array.length sp.Space.states)
          | Space.Truncated _ -> None
        in
        incr checked;
        Alcotest.(check (option int))
          (Printf.sprintf "%s at budget %d" name m)
          expected (Space.count a p))
      (List.sort_uniq Int.compare
         (List.filter (fun m -> m >= 1) [ 1; k / 2; k - 1; k; k + 1; p.Probe.max_states ]))
  in
  let entry name = function
    | Registry.Automaton (a, p) -> check name a p
    | Registry.Composition (c, p) -> check name (Composition.as_automaton c) p
  in
  List.iter
    (fun { Registry.origin; entry = e } ->
      entry (Printf.sprintf "%s(%s)" (Registry.entry_name e) origin) e)
    (Catalog.items ());
  List.iter (fun (id, e) -> entry ("fixture " ^ id) e) Fixtures.mc;
  Alcotest.(check bool) "budgets checked" true (!checked > 50)

(* --- POR: same reachable set, fewer interleavings --- *)

let independent_pair () =
  (* two components with disjoint alphabets: every cross-component pair
     of moves commutes, so POR may sleep one order of each diamond *)
  let cnt ~name ~act =
    let kind a = if a = act then Some Automaton.Output else None in
    let step s a = if a = act && s < 3 then Some (s + 1) else None in
    { Automaton.name;
      kind;
      start = 0;
      step;
      tasks =
        [ { Automaton.task_name = "inc";
            fair = true;
            enabled = (fun s -> if s < 3 then Some act else None);
          }
        ];
    }
  in
  Composition.make ~name:"pair"
    [ Component.C (cnt ~name:"a" ~act:(Fixtures.Tick 1));
      Component.C (cnt ~name:"b" ~act:(Fixtures.Tick 2));
    ]

let explore_pair ~por =
  let a = Composition.as_automaton (independent_pair ()) in
  let p =
    Probe.make ~pp_action:pp_act ~equal_state:Composition.equal_state
      ~hash_state:Composition.hash_state ~max_states:64 []
  in
  Space.explore ~por a p

let test_por_preserves_reachable_set () =
  let off = explore_pair ~por:false and on = explore_pair ~por:true in
  Alcotest.(check bool) "both exhausted" true
    (off.Space.verdict = Space.Exhausted && on.Space.verdict = Space.Exhausted);
  Alcotest.(check int) "4x4 product states" 16 (Array.length off.Space.states);
  Alcotest.(check int) "POR finds the same count" 16 (Array.length on.Space.states);
  let mem states s = Array.exists (Composition.equal_state s) states in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "POR state in full set" true
        (mem off.Space.states s))
    on.Space.states;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "full state in POR set" true (mem on.Space.states s))
    off.Space.states;
  Alcotest.(check bool) "POR actually slept interleavings" true
    (on.Space.stats.Space.slept > 0);
  Alcotest.(check bool) "POR explored fewer edges" true
    (Array.length on.Space.edges < Array.length off.Space.edges)

(* --- the MC pass over the bench subjects --- *)

let test_mc_truthful_proved () =
  match Mc.check_spec ~n:3 Perfect.spec ~detector:(Afd_automata.fd_perfect ~n:3) with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "exhausted" true (o.Mc.verdict = Space.Exhausted);
    Alcotest.(check bool) "proved" true o.Mc.proved;
    Alcotest.(check (list string)) "no violations" []
      (List.map (fun v -> v.Mc.clause) o.Mc.violations);
    Alcotest.(check bool) "some safety clauses were checked" true
      (o.Mc.safety_clauses <> [])

(* The three subjects whose specs carry [Fold] clauses, at n=4: their
   product identity compares accumulators, so their state counts pin
   the seen-set's merging (a hash that split equal states would add
   states; one that merged unequal ones would drop them). *)
let test_mc_fold_subjects_n4 () =
  let pinned =
    [ ("CHK.s", 11_648, 33_160, true);
      ("CHK.sigma", 19_496, 49_032, true);
      ("CHK.marabout", 63_784, 153_496, false);
    ]
  in
  List.iter
    (fun (id, states, transitions, proved) ->
      match
        List.find_opt
          (fun (Afd_bench.Check.S s) -> String.equal s.id id)
          Afd_bench.Check.subjects
      with
      | None -> Alcotest.failf "missing subject %s" id
      | Some (Afd_bench.Check.S s) -> (
        match Mc.check_spec ~n:4 ~max_states:200_000 s.spec ~detector:(s.detector 4) with
        | Error e -> Alcotest.fail e
        | Ok o ->
          Alcotest.(check string) (id ^ " verdict") "exhausted"
            (Space.verdict_string o.Mc.verdict);
          Alcotest.(check int) (id ^ " states") states o.Mc.states;
          Alcotest.(check int) (id ^ " transitions") transitions o.Mc.transitions;
          Alcotest.(check bool) (id ^ " proved") proved o.Mc.proved))
    pinned

let find_mc id rs =
  match List.find_opt (fun r -> String.equal r.Afd_bench.Check.mc_id id) rs with
  | Some r -> r
  | None -> Alcotest.failf "missing MC row %s" id

let test_mc_all_subjects () =
  let open Afd_bench.Check in
  let rs = mc_all () in
  Alcotest.(check int) "all 14 CHK subjects model-checked" 14 (List.length rs);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.mc_id ^ " exhaustive") true r.mc_exhaustive;
      Alcotest.(check bool) (r.mc_id ^ " meets its expectation") true r.mc_ok)
    rs;
  let lying = find_mc "CHK.lying-p" rs in
  (match lying.mc_violations with
  | [ v ] ->
    Alcotest.(check string) "lying-p: edge violation" "edge" v.vkind;
    Alcotest.(check int) "lying-p: shortest prefix has 1 event" 1 v.depth;
    Alcotest.(check int) "lying-p: counterexample index" 0 v.index;
    Alcotest.(check bool) "lying-p: replay-confirmed" true v.confirmed
  | vs -> Alcotest.failf "lying-p: expected 1 violation, got %d" (List.length vs));
  (match (find_mc "CHK.marabout" rs).mc_violations with
  | [ v ] ->
    Alcotest.(check string) "marabout: judgement violation" "judgement" v.vkind;
    Alcotest.(check int) "marabout: shortest prefix has 2 events" 2 v.depth;
    Alcotest.(check int) "marabout: counterexample index" 1 v.index;
    Alcotest.(check bool) "marabout: replay-confirmed" true v.confirmed
  | vs -> Alcotest.failf "marabout: expected 1 violation, got %d" (List.length vs));
  (* the liveness pass left nothing undecided, and the two limit-broken
     detectors were refuted by the right kind of lasso *)
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (r.mc_id ^ ": no liveness clause skipped")
        [] r.mc_liveness_skipped)
    rs;
  (match (find_mc "CHK.flipflop" rs).mc_lassos with
  | [ l ] ->
    Alcotest.(check string) "flipflop: fair-cycle lasso" "fair-cycle" l.lkind;
    Alcotest.(check string) "flipflop: stable-leader refuted" "stable-leader"
      l.lclause;
    Alcotest.(check bool) "flipflop: cycle is nonempty" true (l.lcycle > 0);
    Alcotest.(check bool) "flipflop: replay-confirmed" true l.lconfirmed
  | ls -> Alcotest.failf "flipflop: expected 1 lasso, got %d" (List.length ls));
  let silent = find_mc "CHK.silent" rs in
  Alcotest.(check bool) "silent: at least one lasso" true (silent.mc_lassos <> []);
  List.iter
    (fun l ->
      Alcotest.(check string) (l.lclause ^ ": fair stop") "fair-stop" l.lkind;
      Alcotest.(check int) (l.lclause ^ ": empty cycle") 0 l.lcycle;
      Alcotest.(check bool) (l.lclause ^ ": replay-confirmed") true l.lconfirmed)
    silent.mc_lassos

(* --- qcheck: sampled executions stay inside the exhaustive set --- *)

let containment_prop =
  let n = 3 in
  let crashable = Loc.set_of_universe ~n in
  let comp () =
    Composition.make ~name:"fd-system"
      [ Component.C (Afd_automata.fd_perfect ~n);
        Component.C (Afd_automata.crash_automaton ~n ~crashable);
      ]
  in
  let space =
    let p =
      Probe.make
        ~equal_action:(Fd_event.equal Loc.Set.equal)
        ~pp_action:(Fd_event.pp Loc.pp_set)
        ~equal_state:Composition.equal_state ~hash_state:Composition.hash_state
        ~max_states:20_000 []
    in
    Space.explore (Composition.as_automaton (comp ())) p
  in
  assert (space.Space.verdict = Space.Exhausted);
  let buckets = Hashtbl.create 64 in
  Array.iter
    (fun s -> Hashtbl.add buckets (Composition.hash_state s) s)
    space.Space.states;
  let mem s =
    List.exists (Composition.equal_state s)
      (Hashtbl.find_all buckets (Composition.hash_state s))
  in
  let gen =
    QCheck2.Gen.(
      pair (int_bound 10_000)
        (list_size (int_bound 3)
           (map2 (fun step loc -> (step, loc mod n)) (int_bound 40) (int_bound (n - 1)))))
  in
  QCheck2.Test.make
    ~name:"every state of a random execution is in the exhaustive reachable set"
    ~count:200 gen
    (fun (seed, crash_at) ->
      let forced =
        List.map
          (fun (at_step, i) ->
            { Scheduler.at_step; task_pattern = "crash/crash_" ^ Loc.to_string i })
          crash_at
      in
      let cfg =
        { Scheduler.policy = Scheduler.Random seed;
          max_steps = 60;
          stop_when_quiescent = true;
          forced;
        }
      in
      let contained = ref true in
      let outcome =
        Scheduler.run ~record_fired:false
          ~observer:(fun ~step:_ _ _ ~touched:_ st ->
            if not (mem st) then contained := false)
          (comp ()) cfg
      in
      !contained && mem outcome.Scheduler.final_state)

(* --- qcheck: deliberately colliding hashes never corrupt dedup --- *)

let collision_prop =
  (* The seen-set is conflict-checked: the hash only picks the bucket,
     exact equality decides membership.  A congruent but deliberately
     colliding hash (every state crammed into 1..4 buckets) must
     reproduce the reference exploration bit for bit — same states in
     the same visit order, same edges, same verdict. *)
  let a = Composition.as_automaton (independent_pair ()) in
  let probe ~hash_state =
    Probe.make ~pp_action:pp_act ~equal_state:Composition.equal_state
      ~hash_state ~max_states:64 []
  in
  let reference = Space.explore a (probe ~hash_state:Composition.hash_state) in
  assert (reference.Space.verdict = Space.Exhausted);
  QCheck2.Test.make
    ~name:"deliberately colliding hashes never corrupt the seen-set dedup"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (buckets, salt) ->
      (* still a congruence: equal states collide onto the same bucket *)
      let colliding s = (Composition.hash_state s lxor salt) mod buckets in
      let sp = Space.explore a (probe ~hash_state:colliding) in
      sp.Space.verdict = reference.Space.verdict
      && Array.length sp.Space.states = Array.length reference.Space.states
      && Array.for_all2 Composition.equal_state sp.Space.states
           reference.Space.states
      && Array.length sp.Space.edges = Array.length reference.Space.edges
      && Array.for_all2
           (fun e r ->
             e.Space.src = r.Space.src
             && e.Space.dst = r.Space.dst
             && e.Space.act = r.Space.act
             && e.Space.task = r.Space.task)
           sp.Space.edges reference.Space.edges)

(* --- well-formedness and POR on the closed CHK subjects ---

   The sweep checks explorations against the automaton itself (edges
   and parents replay, states distinct, counts and verdict consistent,
   POR-off depths are BFS distances), and the sleep-set reduction
   against the plain search: wherever the POR-off run exhausts, the
   POR-on run reaches the same set of states. *)

module BC = Afd_bench.Check

(* The full CHK catalog (12 seeded subjects + 2 limit-broken liveness
   subjects), each closed like Mc.check_spec closes them: detector
   composed with the crash automaton over the full universe. *)
let chk_subjects = BC.subjects @ BC.liveness_subjects

(* Close one CHK subject like Mc.check_spec does — detector composed
   with the crash automaton over the full universe — and hand its
   automaton and an exploration probe to [f].  The GADT match and
   everything typed by its existentials stay inside this one
   function. *)
type 'r closed = {
  f :
    'a. ('a Composition.state, 'a) Automaton.t -> ('a Composition.state, 'a) Probe.t -> 'r;
}

let with_closed ~max_states (BC.S { n; detector; _ }) { f } =
  let crashable = Loc.set_of_universe ~n in
  let comp =
    Composition.make ~name:"chk-closed"
      [ Component.C (detector n);
        Component.C (Afd_automata.crash_automaton ~n ~crashable);
      ]
  in
  let probe =
    Probe.make ~equal_state:Composition.equal_state
      ~hash_state:Composition.hash_state ~max_states []
  in
  f (Composition.as_automaton comp) probe

(* --- well-formedness, independent of the explorer code ---

   What any exploration of [aut] must satisfy, checked against the
   automaton and the probe alone: the first violation, if any. *)
let well_formed aut probe (sp : _ Space.t) =
  let eq = probe.Probe.equal_state in
  let n = Array.length sp.Space.states in
  let replays src act dst =
    match aut.Automaton.step sp.Space.states.(src) act with
    | Some s' -> eq s' sp.Space.states.(dst)
    | None -> false
  in
  let fail = ref None in
  let check ok msg = if !fail = None && not ok then fail := Some (Lazy.force msg) in
  Array.iteri
    (fun e { Space.src; dst; act; _ } ->
      check (replays src act dst) (lazy (Printf.sprintf "edge %d does not replay" e)))
    sp.Space.edges;
  let edge_set = Hashtbl.create 64 in
  Array.iter
    (fun { Space.src; dst; act; _ } -> Hashtbl.replace edge_set (src, dst, act) ())
    sp.Space.edges;
  Array.iteri
    (fun i par ->
      match par with
      | None -> ()
      | Some (p, act) ->
        check (replays p act i) (lazy (Printf.sprintf "parent of %d does not replay" i));
        check
          (Hashtbl.mem edge_set (p, i, act))
          (lazy (Printf.sprintf "parent edge of %d not recorded" i));
        let dp = sp.Space.depth.(p) in
        check
          (sp.Space.depth.(i) = if dp = max_int then max_int else dp + 1)
          (lazy (Printf.sprintf "depth of %d is not its parent's + 1" i)))
    sp.Space.parent;
  let hash = Option.value ~default:(fun _ -> 0) probe.Probe.hash_state in
  let buckets = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let h = hash s in
      let b = Option.value ~default:[] (Hashtbl.find_opt buckets h) in
      List.iter
        (fun j ->
          check (not (eq sp.Space.states.(j) s))
            (lazy (Printf.sprintf "states %d and %d are equal" j i)))
        b;
      Hashtbl.replace buckets h (i :: b))
    sp.Space.states;
  check
    (sp.Space.stats.Space.transitions = Array.length sp.Space.edges)
    (lazy "transitions <> |edges|");
  check (n <= probe.Probe.max_states) (lazy "more states than max_states");
  check
    ((sp.Space.verdict = Space.Exhausted) = (sp.Space.stats.Space.cut = 0))
    (lazy "verdict disagrees with the cut count");
  if not sp.Space.por then begin
    (* BFS distances from state 0 over the recorded edges *)
    let dist = Array.make n max_int in
    let adj = Array.make n [] in
    Array.iter (fun { Space.src; dst; _ } -> adj.(src) <- dst :: adj.(src)) sp.Space.edges;
    let q = Queue.create () in
    if n > 0 then begin
      dist.(0) <- 0;
      Queue.add 0 q
    end;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        adj.(u)
    done;
    Array.iteri
      (fun i d ->
        if d <> max_int then
          check (d = dist.(i))
            (lazy (Printf.sprintf "depth of %d is not its BFS distance" i)))
      sp.Space.depth
  end;
  !fail

(* Every state of [xs] has an equal one in [ys], by the composition's
   own equality and its congruent hash. *)
let subset xs ys =
  let buckets = Hashtbl.create (Array.length ys) in
  Array.iter (fun s -> Hashtbl.add buckets (Composition.hash_state s) s) ys;
  Array.for_all
    (fun s ->
      List.exists (Composition.equal_state s)
        (Hashtbl.find_all buckets (Composition.hash_state s)))
    xs

(* Explore one closed CHK subject, POR off and on.  The
   well-formedness failures of both runs, labelled; and, when the
   POR-off run exhausted, whether the POR-on run reached the same
   states and how many transitions it slept ([None] when it did not
   exhaust). *)
let subject_sweep ~max_states subj =
  with_closed ~max_states subj
    { f =
        (fun aut probe ->
          let off = Space.explore aut probe and on = Space.explore ~por:true aut probe in
          let failures =
            List.filter_map
              (fun (name, sp) ->
                Option.map (fun m -> name ^ ": " ^ m) (well_formed aut probe sp))
              [ ("por=false", off); ("por=true", on) ]
          in
          let same_set =
            if off.Space.verdict <> Space.Exhausted then None
            else
              Some
                ( subset off.Space.states on.Space.states
                  && subset on.Space.states off.Space.states,
                  on.Space.stats.Space.slept )
          in
          (failures, same_set));
    }

let test_well_formed () =
  let runs = ref 0 in
  (* subject id -> transitions the POR-on run slept, at 3000 states *)
  let por_checked = Hashtbl.create 16 in
  List.iter
    (fun subj ->
      List.iter
        (fun max_states ->
          runs := !runs + 2;
          let label = Printf.sprintf "%s max_states=%d" (BC.id subj) max_states in
          let failures, same_set = subject_sweep ~max_states subj in
          Alcotest.(check (list string)) (label ^ " well-formed") [] failures;
          match same_set with
          | None -> ()
          | Some (same, slept) ->
            Alcotest.(check bool) (label ^ ": POR keeps the reachable set") true same;
            if max_states = 3_000 then Hashtbl.replace por_checked (BC.id subj) slept)
        [ 7; 400; 3_000 ])
    chk_subjects;
  Alcotest.(check int) "every combination ran" (14 * 2 * 3) !runs;
  Alcotest.(check int) "subjects whose POR-off run exhausts at 3000 states" 14
    (Hashtbl.length por_checked);
  Alcotest.(check int) "of those, subjects where POR slept a transition" 8
    (Hashtbl.fold (fun _ slept k -> if slept > 0 then k + 1 else k) por_checked 0)

(* --- the sleep-set search against a reference written apart from it ---

   The POR set equality in the sweep above cannot see a lost
   re-expansion that happens not to lose a state; the list-based
   reference can: same states in order, same edges in order, same
   slept count. *)

let test_por_matches_reference () =
  List.iter
    (fun subj ->
      List.iter
        (fun max_states ->
          let label = Printf.sprintf "%s max_states=%d" (BC.id subj) max_states in
          with_closed ~max_states subj
            { f =
                (fun aut probe ->
                  let sp = Space.explore ~por:true aut probe in
                  let states, edges, slept = List_explore.list_por aut probe in
                  Alcotest.(check int) (label ^ ": state count")
                    (List.length states) (Array.length sp.Space.states);
                  Alcotest.(check bool) (label ^ ": states in order") true
                    (List.for_all2 Composition.equal_state states
                       (Array.to_list sp.Space.states));
                  Alcotest.(check (list (triple int int (option string))))
                    (label ^ ": edges in order") edges
                    (Array.to_list
                       (Array.map (fun e -> (e.Space.src, e.Space.dst, e.Space.task))
                          sp.Space.edges));
                  Alcotest.(check int) (label ^ ": slept") slept
                    sp.Space.stats.Space.slept);
            })
        [ 400; 3_000 ])
    chk_subjects


(* --- the detector+crash pair against its reference ---

   [Composition.pair] is the closed system the model checker explores;
   [Composition.as_automaton] of the two-component composition is the
   semantics it must reproduce.  On every CHK subject, POR off and on:
   the same states in order (compared through [hash_pair], which must
   equal [hash_state] of the matching instances), the same edges in
   order, the same slept count and verdict, and every edge action
   classified alike. *)

let test_pair_matches_composition () =
  List.iter
    (fun (BC.S { id; n; detector; _ }) ->
      let det = detector n
      and crash = Afd_automata.crash_automaton ~n ~crashable:(Loc.set_of_universe ~n) in
      let comp =
        Composition.as_automaton
          (Composition.make ~name:"closed" [ Component.C det; Component.C crash ])
      and pair = Composition.pair ~name:"closed" det crash in
      let cprobe =
        Probe.make ~equal_state:Composition.equal_state
          ~hash_state:Composition.hash_state ~max_states:20_000 []
      and pprobe = Probe.make ~hash_state:Composition.hash_pair ~max_states:20_000 [] in
      List.iter
        (fun por ->
          let label = Printf.sprintf "%s por=%b" id por in
          let sc = Space.explore ~por comp cprobe and sp = Space.explore ~por pair pprobe in
          Alcotest.(check int) (label ^ ": state count")
            (Array.length sc.Space.states) (Array.length sp.Space.states);
          Alcotest.(check bool) (label ^ ": states in order") true
            (Array.for_all2
               (fun c p -> Composition.hash_state c = Composition.hash_pair p)
               sc.Space.states sp.Space.states);
          let edges (x : (_, _) Space.t) =
            Array.map (fun e -> (e.Space.src, e.Space.dst, e.Space.act, e.Space.task)) x.Space.edges
          in
          Alcotest.(check bool) (label ^ ": edges in order") true (edges sc = edges sp);
          Alcotest.(check bool) (label ^ ": edge actions classified alike") true
            (Array.for_all
               (fun e -> comp.Automaton.kind e.Space.act = pair.Automaton.kind e.Space.act)
               sp.Space.edges);
          Alcotest.(check int) (label ^ ": slept") sc.Space.stats.Space.slept
            sp.Space.stats.Space.slept;
          Alcotest.(check string) (label ^ ": verdict")
            (Space.verdict_string sc.Space.verdict)
            (Space.verdict_string sp.Space.verdict))
        [ false; true ])
    chk_subjects

(* Signature priority on every pair of component kinds, including the
   clashes a compatible composition never produces: action [k] is
   [kinds.(k / 4)] in one automaton and [kinds.(k mod 4)] in the
   other. *)
let test_pair_signature_priority () =
  let kinds = [| None; Some Automaton.Input; Some Automaton.Output; Some Automaton.Internal |] in
  let mk name kind_of =
    { Automaton.name; kind = kind_of; start = (); step = (fun () _ -> Some ()); tasks = [] }
  in
  let a = mk "a" (fun k -> kinds.(k / 4)) and b = mk "b" (fun k -> kinds.(k mod 4)) in
  let comp =
    Composition.as_automaton (Composition.make ~name:"ab" [ Component.C a; Component.C b ])
  and pair = Composition.pair ~name:"ab" a b in
  let pp_kind = Fmt.option ~none:(Fmt.any "none") Automaton.pp_kind in
  for k = 0 to 15 do
    Alcotest.(check string)
      (Printf.sprintf "kind of action %d" k)
      (Fmt.str "%a" pp_kind (comp.Automaton.kind k))
      (Fmt.str "%a" pp_kind (pair.Automaton.kind k))
  done

let suite =
  [ Alcotest.test_case "hashed explorer == list scan on the whole catalog" `Quick
      test_differential_vs_list;
    Alcotest.test_case "no congruent hash degrades to one exact bucket" `Quick
      test_hash_fallback_single_bucket;
    Alcotest.test_case "seed dedup and pinned visit order" `Quick
      test_seed_dedup_and_visit_order;
    Alcotest.test_case "truncation is an explicit verdict" `Quick
      test_truncation_verdict;
    Alcotest.test_case "POR preserves the reachable set, prunes interleavings"
      `Quick test_por_preserves_reachable_set;
    Alcotest.test_case "MC proves P's safety clauses on the closed system" `Quick
      test_mc_truthful_proved;
    Alcotest.test_case "MC: 10 proofs, 4 confirmed refutations" `Quick
      test_mc_all_subjects;
    Alcotest.test_case "MC at n=4: fold subjects' states and verdicts pinned" `Quick
      test_mc_fold_subjects_n4;
    QCheck_alcotest.to_alcotest containment_prop;
    QCheck_alcotest.to_alcotest collision_prop;
    Alcotest.test_case "explorations are well-formed; POR keeps the reachable set"
      `Quick test_well_formed;
    Alcotest.test_case "POR search == list-based sleep-set reference" `Quick
      test_por_matches_reference;
    Alcotest.test_case "Composition.pair == as_automaton on every CHK subject" `Quick
      test_pair_matches_composition;
    Alcotest.test_case "Composition.pair keeps the signature priority" `Quick
      test_pair_signature_priority;
    Alcotest.test_case "count: Some k iff explore exhausts with k states" `Quick
      test_count_matches_explore;
  ]
