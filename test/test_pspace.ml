(* Differential tests for the parallel explorer (lib/analysis/pspace).

   The claim under test is strong: Pspace.explore is STRUCTURALLY
   identical to Space.explore — same state array in the same discovery
   order, same edge array (order included), same parent tree, depths,
   verdict, and stats — at any domain count, with POR on or off, under
   any max_states budget.  One job is Space.explore itself, so the
   generators draw two or more.  Everything downstream (MC verdict tables,
   liveness lassos, lint reports, JSON) is then byte-identical at any
   --jobs, which the coarser-grained tests here confirm end to end.

   Both explorers run Space's one BFS core, so the differential does
   not compare two copies of the bookkeeping.  The well-formedness
   sweep below checks the explorations against the automaton itself
   instead (edges and parents replay, states distinct, counts and
   verdict consistent, POR-off depths are BFS distances), and checks
   the sleep-set reduction against the plain search: wherever the
   POR-off run exhausts, the POR-on run reaches the same set of
   states.

   A worker that raises mid-exploration must propagate the exception
   out of the explorer without leaking domains — the crash-safety half
   of the contract. *)

open Afd_ioa
open Afd_core
open Afd_analysis
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

(* The sequential and parallel explorations agree structurally. *)
let subject_agrees ~por ~jobs ~max_states subj =
  with_closed ~max_states subj
    { f =
        (fun aut probe ->
          Space.agree ~equal_state:Composition.equal_state ~equal_action:( = )
            (Space.explore ~por aut probe)
            (Pspace.explore ~por ~jobs aut probe));
    }

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

(* Explore one closed CHK subject with Pspace, POR off and on.  The
   well-formedness failures of both runs, labelled; and, when the
   POR-off run exhausted, whether the POR-on run reached the same
   states and how many transitions it slept ([None] when it did not
   exhaust). *)
let subject_sweep ~jobs ~max_states subj =
  with_closed ~max_states subj
    { f =
        (fun aut probe ->
          let off = Pspace.explore ~jobs aut probe
          and on = Pspace.explore ~por:true ~jobs aut probe in
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
          List.iter
            (fun jobs ->
              runs := !runs + 2;
              let label =
                Printf.sprintf "%s max_states=%d jobs=%d" (BC.id subj) max_states jobs
              in
              let failures, same_set = subject_sweep ~jobs ~max_states subj in
              Alcotest.(check (list string)) (label ^ " well-formed") [] failures;
              match same_set with
              | None -> ()
              | Some (same, slept) ->
                Alcotest.(check bool) (label ^ ": POR keeps the reachable set") true same;
                if max_states = 3_000 then Hashtbl.replace por_checked (BC.id subj) slept)
            [ 1; 2 ])
        [ 7; 400; 3_000 ])
    chk_subjects;
  Alcotest.(check int) "every combination ran" (14 * 2 * 3 * 2) !runs;
  Alcotest.(check int) "subjects whose POR-off run exhausts at 3000 states" 14
    (Hashtbl.length por_checked);
  Alcotest.(check int) "of those, subjects where POR slept a transition" 8
    (Hashtbl.fold (fun _ slept k -> if slept > 0 then k + 1 else k) por_checked 0)

(* --- qcheck: parallel == sequential across the catalog ---

   Random subject x POR x budget x jobs: the sequential exploration and
   the parallel one must agree field for field.  Small random budgets
   matter: they exercise the truncation path (cut counting at merge
   time), and budgets below the seed count exercise the seed-cut
   path. *)
let differential_prop =
  let gen =
    QCheck2.Gen.(
      let* subj_ix = int_bound (List.length chk_subjects - 1) in
      let* por = bool in
      let* jobs = oneofl [ 2; 4 ] in
      let* cap = oneofl [ 1; 7; 60; 400; 2000 ] in
      return (subj_ix, por, jobs, cap))
  in
  QCheck2.Test.make
    ~name:
      "Pspace.explore == Space.explore (structural) on CHK subjects x por x \
       budget x jobs"
    ~count:40
    ~print:(fun (i, por, jobs, cap) ->
      Printf.sprintf "subject=%s por=%b jobs=%d max_states=%d"
        (BC.id (List.nth chk_subjects i))
        por jobs cap)
    gen
    (fun (subj_ix, por, jobs, cap) ->
      subject_agrees ~por ~jobs ~max_states:cap (List.nth chk_subjects subj_ix))

(* --- full-catalog sweep at a fixed budget, both POR settings --- *)

let test_catalog_structural_equality () =
  List.iter
    (fun subj ->
      List.iter
        (fun por ->
          List.iter
            (fun jobs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s por=%b jobs=%d structurally equal"
                   (BC.id subj) por jobs)
                true
                (subject_agrees ~por ~jobs ~max_states:6_000 subj))
            [ 2; 4 ])
        [ false; true ])
    chk_subjects

(* --- three explorers stay congruent: list == hashed == parallel --- *)

let test_three_explorer_congruence () =
  let checked = ref 0 in
  List.iter
    (fun { Registry.origin; entry } ->
      let subj = Subject.make ~origin entry in
      match subj.Subject.packed with
      | None -> ()
      | Some (Subject.P { aut = a; probe = p; _ }) ->
        incr checked;
        let listed = List_explore.list_based a p in
        let hashed = Space.reachable (Space.explore a p) in
        let parallel = Space.reachable (Pspace.explore ~jobs:2 a p) in
        Alcotest.(check int)
          (subj.Subject.name ^ ": list/hashed same count")
          (List.length listed) (List.length hashed);
        Alcotest.(check int)
          (subj.Subject.name ^ ": hashed/parallel same count")
          (List.length hashed) (List.length parallel);
        List.iter2
          (fun x y ->
            Alcotest.(check bool)
              (subj.Subject.name ^ ": list/hashed same visit order")
              true (p.Probe.equal_state x y))
          listed hashed;
        List.iter2
          (fun x y ->
            Alcotest.(check bool)
              (subj.Subject.name ^ ": hashed/parallel same visit order")
              true (p.Probe.equal_state x y))
          hashed parallel)
    (Catalog.items ());
  Alcotest.(check bool) "covered a real spread of subjects" true (!checked >= 20)

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

(* --- MC verdict byte-equality at any jobs --- *)

let mc_table rs =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%s|%s|%b|%d|%d|%b|%s|%s|%s" r.BC.mc_id r.BC.mc_verdict
           r.BC.mc_exhaustive r.BC.mc_states r.BC.mc_transitions r.BC.mc_ok
           (String.concat "," r.BC.mc_safety)
           (String.concat "," r.BC.mc_liveness_proved)
           (String.concat "," r.BC.mc_liveness_skipped))
       rs)

let mc_json rs = String.concat "\n" (List.map (fun r -> r.BC.mc_json) rs)

let test_mc_byte_equality () =
  let j1 = BC.mc_all ~jobs:1 () in
  let j4 = BC.mc_all ~jobs:4 () in
  Alcotest.(check int) "same row count" (List.length j1) (List.length j4);
  Alcotest.(check string) "verdict table identical at jobs 1 vs 4" (mc_table j1)
    (mc_table j4);
  Alcotest.(check string) "outcome JSON identical at jobs 1 vs 4" (mc_json j1)
    (mc_json j4);
  List.iter
    (fun r -> Alcotest.(check bool) (r.BC.mc_id ^ " ok") true r.BC.mc_ok)
    j4

let test_mc_por_byte_equality () =
  let j1 = BC.mc_all ~por:true ~max_states:4_000 ~jobs:1 () in
  let j2 = BC.mc_all ~por:true ~max_states:4_000 ~jobs:2 () in
  Alcotest.(check string) "POR verdict table identical at jobs 1 vs 2"
    (mc_table j1) (mc_table j2);
  Alcotest.(check string) "POR outcome JSON identical at jobs 1 vs 2"
    (mc_json j1) (mc_json j2)

(* --- lint engine: whole report identical at any jobs --- *)

let test_lint_report_jobs_invariant () =
  let report ~por jobs =
    Afd_analysis.Report.to_json
      (Engine.run ~rules:(Rules.all @ Rules.mc) ~max_states:2_000 ~por ~jobs
         (Catalog.items ()))
  in
  List.iter
    (fun por ->
      Alcotest.(check string)
        (Printf.sprintf "lint JSON identical at jobs 1 vs 3, por=%b" por)
        (report ~por 1) (report ~por 3))
    [ false; true ]

(* --- crash safety: a raising step mid-exploration --- *)

exception Boom

let bomb ~armed =
  (* counter automaton whose step blows up past 5 when armed *)
  { Automaton.name = "bomb";
    kind = (fun _ -> Some Automaton.Internal);
    start = 0;
    step =
      (fun s () ->
        if armed && s >= 5 then raise Boom
        else if s < 40 then Some (s + 1)
        else None);
    tasks =
      [ { Automaton.task_name = "inc";
          fair = true;
          enabled = (fun s -> if s < 40 then Some () else None);
        }
      ];
  }

let int_probe = Probe.make ~hash_state:(fun s -> s) ~max_states:1_000 []

let test_explore_raise_no_leak () =
  (* the one-shot entry point joins its domains before re-raising *)
  match Pspace.explore ~jobs:4 (bomb ~armed:true) int_probe with
  | exception Boom -> ()
  | _ -> Alcotest.fail "expected the worker exception to propagate"

let suite =
  [ QCheck_alcotest.to_alcotest differential_prop;
    Alcotest.test_case "catalog x por x jobs: structural equality" `Quick
      test_catalog_structural_equality;
    Alcotest.test_case
      "Pspace explorations are well-formed; POR keeps the reachable set" `Quick
      test_well_formed;
    Alcotest.test_case "list == hashed == parallel on the whole catalog" `Quick
      test_three_explorer_congruence;
    Alcotest.test_case "POR search == list-based sleep-set reference" `Quick
      test_por_matches_reference;
    Alcotest.test_case "MC table and JSON byte-identical at jobs 1 vs 4" `Quick
      test_mc_byte_equality;
    Alcotest.test_case "MC under POR byte-identical at jobs 1 vs 2" `Quick
      test_mc_por_byte_equality;
    Alcotest.test_case "lint report JSON identical at any jobs" `Quick
      test_lint_report_jobs_invariant;
    Alcotest.test_case "one-shot explore joins domains on failure" `Quick
      test_explore_raise_no_leak;
  ]
