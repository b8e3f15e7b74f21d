open Afd_ioa

let mkf ~rule ~severity ~origin ~name ?component ?task ?state message =
  { Report.rule;
    severity;
    where = Report.subject ?component ?task ?state ~origin name;
    message;
  }

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

let pp_kind_opt fmt = function
  | None -> Format.pp_print_string fmt "none"
  | Some k -> Automaton.pp_kind fmt k

let enabled_by_task a s =
  List.filter_map
    (fun t -> Option.map (fun act -> (t.Automaton.task_name, act)) (t.Automaton.enabled s))
    a.Automaton.tasks

(* How complete was the sample a "for all reachable states" claim rests
   on?  Suffixed to rule messages so truncation is never silent. *)
let verdict_note space =
  match space.Space.verdict with
  | Space.Exhausted -> "exploration exhausted: this covers every reachable state"
  | Space.Truncated cap ->
    Printf.sprintf
      "exploration truncated at the %d-state budget: reachable states beyond it were \
       not checked"
      cap

(* --- the rules --- *)

let probe_coverage =
  { Rule.id = "probe-coverage";
    severity = Report.Warning;
    doc = "a registered subject has an empty action probe universe: nothing was checked";
    paper = "2.3";
    check =
      (fun subj ->
        match subj.Subject.packed with
        | Subject.P { probe = { Probe.actions = []; _ }; _ } ->
          [ mkf ~rule:"probe-coverage" ~severity:Report.Warning ~origin:subj.Subject.origin
              ~name:subj.Subject.name
              "empty action probe universe: the well-formedness of this subject was \
               not actually checked"
          ]
        | Subject.P _ -> []);
  }

let input_enabled =
  { Rule.id = "input-enabled";
    severity = Report.Error;
    doc = "every input action must be enabled in every reachable state";
    paper = "2.1";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        let states = Space.reachable (Lazy.force sp) in
        List.map
          (fun (si, act) ->
            mkf ~rule:"input-enabled" ~severity:Report.Error ~origin:subj.Subject.origin
              ~name:subj.Subject.name ~state:si
              (Fmt.str "input action %a is disabled" p.Probe.pp_action act))
          (Automaton.input_enabledness_counterexamples a ~states
             ~probes:p.Probe.actions));
  }

let task_determinism =
  { Rule.id = "task-determinism";
    severity = Report.Error;
    doc = "no two tasks may enable the same action in one state";
    paper = "2.5";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        List.concat
          (List.mapi
             (fun si s ->
               let rec pairs acc = function
                 | [] -> acc
                 | (t1, a1) :: rest ->
                   let acc =
                     List.fold_left
                       (fun acc (t2, a2) ->
                         if p.Probe.equal_action a1 a2 then
                           mkf ~rule:"task-determinism" ~severity:Report.Error
                             ~origin:subj.Subject.origin ~name:subj.Subject.name
                             ~task:t1 ~state:si
                             (Fmt.str "tasks %s and %s both enable %a" t1 t2
                                p.Probe.pp_action a1)
                           :: acc
                         else acc)
                       acc rest
                   in
                   pairs acc rest
               in
               pairs [] (enabled_by_task a s))
             (Space.reachable (Lazy.force sp))));
  }

let step_signature =
  { Rule.id = "step-signature";
    severity = Report.Error;
    doc = "the step relation must reject actions outside the signature";
    paper = "2.1";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        List.concat
          (List.mapi
             (fun si s ->
               List.filter_map
                 (fun act ->
                   if Automaton.kind_of a act = None && a.Automaton.step s act <> None
                   then
                     Some
                       (mkf ~rule:"step-signature" ~severity:Report.Error
                          ~origin:subj.Subject.origin ~name:subj.Subject.name
                          ~state:si
                          (Fmt.str
                             "action %a is outside the signature but the step \
                              relation accepts it"
                             p.Probe.pp_action act))
                   else None)
                 p.Probe.actions)
             (Space.reachable (Lazy.force sp))));
  }

let task_signature =
  { Rule.id = "task-signature";
    severity = Report.Error;
    doc = "tasks may only enable locally controlled (output/internal) actions";
    paper = "2.5";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        List.concat
          (List.mapi
             (fun si s ->
               List.filter_map
                 (fun (tname, act) ->
                   match Automaton.kind_of a act with
                   | Some Automaton.Output | Some Automaton.Internal -> None
                   | Some Automaton.Input ->
                     Some
                       (mkf ~rule:"task-signature" ~severity:Report.Error
                          ~origin:subj.Subject.origin ~name:subj.Subject.name
                          ~task:tname ~state:si
                          (Fmt.str "task enables the input action %a"
                             p.Probe.pp_action act))
                   | None ->
                     Some
                       (mkf ~rule:"task-signature" ~severity:Report.Error
                          ~origin:subj.Subject.origin ~name:subj.Subject.name
                          ~task:tname ~state:si
                          (Fmt.str "task enables %a, which is not in the signature"
                             p.Probe.pp_action act)))
                 (enabled_by_task a s))
             (Space.reachable (Lazy.force sp))));
  }

let enabled_consistency =
  { Rule.id = "enabled-consistency";
    severity = Report.Error;
    doc = "an action a task enables must be accepted by the step relation";
    paper = "2.5";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        List.concat
          (List.mapi
             (fun si s ->
               List.filter_map
                 (fun (tname, act) ->
                   match a.Automaton.step s act with
                   | Some _ -> None
                   | None ->
                     Some
                       (mkf ~rule:"enabled-consistency" ~severity:Report.Error
                          ~origin:subj.Subject.origin ~name:subj.Subject.name
                          ~task:tname ~state:si
                          (Fmt.str "task enables %a but the step relation rejects it"
                             p.Probe.pp_action act)))
                 (enabled_by_task a s))
             (Space.reachable (Lazy.force sp))));
  }

let dual_control =
  { Rule.id = "dual-control";
    severity = Report.Error;
    doc = "no action of a composition may be controlled by two components";
    paper = "2.3";
    check =
      (fun subj ->
        match subj.Subject.entry with
        | Registry.Automaton _ -> []
        | Registry.Composition (c, p) ->
          List.map
            (fun (act, owners) ->
              mkf ~rule:"dual-control" ~severity:Report.Error
                ~origin:subj.Subject.origin ~name:(Composition.name c)
                ~component:(String.concat "+" owners)
                (Fmt.str "action %a is controlled by %d components" p.Probe.pp_action
                   act (List.length owners)))
            (Composition.dual_controlled c ~probes:p.Probe.actions));
  }

let internal_leakage =
  { Rule.id = "internal-leakage";
    severity = Report.Error;
    doc = "internal actions of one component must be private to it";
    paper = "2.3";
    check =
      (fun subj ->
        match subj.Subject.entry with
        | Registry.Automaton _ -> []
        | Registry.Composition (c, p) ->
          List.map
            (fun (act, owner) ->
              mkf ~rule:"internal-leakage" ~severity:Report.Error
                ~origin:subj.Subject.origin ~name:(Composition.name c) ~component:owner
                (Fmt.str "internal action %a of %s is in another component's signature"
                   p.Probe.pp_action act owner))
            (Composition.shared_internal c ~probes:p.Probe.actions));
  }

let dead_task =
  { Rule.id = "dead-task";
    severity = Report.Warning;
    doc = "a fair task never enabled on any explored reachable state";
    paper = "2.4";
    check =
      (fun subj ->
        match (subj.Subject.entry, subj.Subject.packed) with
        | Registry.Composition _, _ ->
          (* the bounded sample of a whole composition is too sparse to
             call a component's task dead; components are expected to be
             registered (and checked) individually *)
          []
        | Registry.Automaton _, Subject.P { aut = a; space = sp; _ } ->
          if Subject.quotiented subj then
            (* a task can be enabled only at its orbit-mates'
               representatives: "never enabled" over representatives
               proves nothing about the named task *)
            []
          else
          let sp = Lazy.force sp in
          let states = Space.reachable sp in
          List.filter_map
            (fun t ->
              if
                t.Automaton.fair
                && List.for_all (fun s -> t.Automaton.enabled s = None) states
              then
                Some
                  (mkf ~rule:"dead-task" ~severity:Report.Warning
                     ~origin:subj.Subject.origin ~name:a.Automaton.name
                     ~task:t.Automaton.task_name
                     (Fmt.str
                        "fair task is never enabled on any of the %d explored states \
                         (%s)"
                        (List.length states) (verdict_note sp)))
              else None)
            a.Automaton.tasks);
  }

let unfair_task =
  { Rule.id = "unfair-task";
    severity = Report.Warning;
    doc = "only the crash automaton's tasks may carry no fairness obligation";
    paper = "4.4";
    check =
      (fun subj ->
        let (Subject.P { aut = a; _ }) = subj.Subject.packed in
        let name = subj.Subject.name in
        if contains_sub (String.lowercase_ascii name) "crash" then []
        else
          List.filter_map
            (fun t ->
              if
                (not t.Automaton.fair)
                && not
                     (contains_sub
                        (String.lowercase_ascii t.Automaton.task_name)
                        "crash")
              then
                Some
                  (mkf ~rule:"unfair-task" ~severity:Report.Warning
                     ~origin:subj.Subject.origin ~name ~task:t.Automaton.task_name
                     "task carries no fairness obligation outside the crash \
                      automaton (Section 4.4 reserves that for crash tasks)")
              else None)
            a.Automaton.tasks);
  }

let rename_roundtrip =
  { Rule.id = "rename-roundtrip";
    severity = Report.Error;
    doc = "action renamings must round-trip (to_ after of_ is the identity)";
    paper = "2.3/5.3";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; _ }) = subj.Subject.packed in
        let name = subj.Subject.name in
        match p.Probe.rename_roundtrip with
        | None -> []
        | Some rt ->
          List.filter_map
            (fun act ->
              if not (Automaton.in_signature a act) then None
              else
                match rt act with
                | Some act' when p.Probe.equal_action act act' -> None
                | Some act' ->
                  Some
                    (mkf ~rule:"rename-roundtrip" ~severity:Report.Error
                       ~origin:subj.Subject.origin ~name
                       (Fmt.str "renaming round-trips %a to the different action %a"
                          p.Probe.pp_action act p.Probe.pp_action act'))
                | None ->
                  Some
                    (mkf ~rule:"rename-roundtrip" ~severity:Report.Error
                       ~origin:subj.Subject.origin ~name
                       (Fmt.str
                          "renaming round-trip is undefined on the in-signature \
                           action %a"
                          p.Probe.pp_action act)))
            p.Probe.actions);
  }

let hiding =
  { Rule.id = "hiding";
    severity = Report.Error;
    doc = "hiding may only reclassify output actions as internal";
    paper = "2.3";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; _ }) = subj.Subject.packed in
        let name = subj.Subject.name in
        match p.Probe.base_kind with
        | None -> []
        | Some base ->
          List.filter_map
            (fun act ->
              match (base act, Automaton.kind_of a act) with
              | Some Automaton.Output, Some Automaton.Internal -> None
              | before, after when before = after -> None
              | before, after ->
                Some
                  (mkf ~rule:"hiding" ~severity:Report.Error
                     ~origin:subj.Subject.origin ~name
                     (Fmt.str
                        "hiding changed %a from %a to %a (only output to internal \
                         is allowed)"
                        p.Probe.pp_action act pp_kind_opt before pp_kind_opt after)))
            p.Probe.actions);
  }

let all =
  [ probe_coverage;
    input_enabled;
    task_determinism;
    step_signature;
    task_signature;
    enabled_consistency;
    dual_control;
    internal_leakage;
    dead_task;
    unfair_task;
    rename_roundtrip;
    hiding;
  ]

let ids = List.map (fun r -> r.Rule.id) all

(* --- graph rules over the explored state space (the --mc set) --- *)

let reachable_input_enabled =
  { Rule.id = "reachable-input-enabled";
    severity = Report.Error;
    doc =
      "an input action refused in a reachable state, with the exploration's \
       completeness verdict (a proof when exhausted)";
    paper = "2.1";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        let sp = Lazy.force sp in
        let states = Space.reachable sp in
        List.map
          (fun (si, act) ->
            mkf ~rule:"reachable-input-enabled" ~severity:Report.Error
              ~origin:subj.Subject.origin ~name:subj.Subject.name ~state:si
              (Fmt.str "input action %a is refused in reachable state #%d (%s)"
                 p.Probe.pp_action act si (verdict_note sp)))
          (Automaton.input_enabledness_counterexamples a ~states
             ~probes:p.Probe.actions));
  }

let deadlock =
  { Rule.id = "deadlock";
    severity = Report.Error;
    doc =
      "a non-quiescent reachable state (some fair task claims an enabled action) \
       from which no task move is actually possible";
    paper = "2.4";
    check =
      (fun subj ->
        let (Subject.P { aut = a; space = sp; _ }) = subj.Subject.packed in
        let fair_names =
          List.filter_map
            (fun t -> if t.Automaton.fair then Some t.Automaton.task_name else None)
            a.Automaton.tasks
        in
        List.concat
          (List.mapi
             (fun si s ->
               let moves = enabled_by_task a s in
               let fair_enabled =
                 List.exists (fun (tn, _) -> List.mem tn fair_names) moves
               in
               if
                 fair_enabled
                 && List.for_all
                      (fun (_, act) -> a.Automaton.step s act = None)
                      moves
               then
                 [ mkf ~rule:"deadlock" ~severity:Report.Error
                     ~origin:subj.Subject.origin ~name:subj.Subject.name ~state:si
                     (Fmt.str
                        "state #%d is not quiescent (%d task(s) claim enabled \
                         actions) but the step relation rejects every one of them: \
                         the scheduler would stall here forever"
                        si (List.length moves))
                 ]
               else [])
             (Space.reachable (Lazy.force sp))));
  }

let race_pair =
  { Rule.id = "race-pair";
    severity = Report.Info;
    doc =
      "two concurrently enabled tasks whose moves do not commute, deduplicated \
       under pair symmetry and annotated with whether the race recurs (its state \
       lies in a cycle of the condensation)";
    paper = "2.5";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; live; _ }) =
          subj.Subject.packed
        in
        let sp = Lazy.force sp in
        let live = Lazy.force live in
        let reported = Hashtbl.create 8 in
        let findings = ref [] in
        List.iteri
          (fun si s ->
            let moves =
              List.filter_map
                (fun t ->
                  Option.map (fun act -> (t, act)) (t.Automaton.enabled s))
                a.Automaton.tasks
            in
            let rec pairs = function
              | [] -> ()
              | ((t1, _) as m1) :: rest ->
                List.iter
                  (fun ((t2, _) as m2) ->
                    let n1 = t1.Automaton.task_name
                    and n2 = t2.Automaton.task_name in
                    (* symmetric dedup: (a,b) and (b,a) are one race *)
                    let key = if String.compare n1 n2 <= 0 then (n1, n2) else (n2, n1) in
                    if
                      (not (Hashtbl.mem reported key))
                      && not (Space.commute a p s m1 m2)
                    then begin
                      Hashtbl.add reported key ();
                      let scc = (Live.sccs live).(Live.scc_of live si) in
                      findings :=
                        mkf ~rule:"race-pair" ~severity:Report.Info
                          ~origin:subj.Subject.origin ~name:subj.Subject.name
                          ~task:(fst key) ~state:si
                          (Fmt.str
                             "tasks %s and %s are both enabled in state #%d but \
                              their moves do not commute: the schedule order is \
                              observable (%s; reported once per unordered pair)"
                             (fst key) (snd key) si
                             (if scc.Live.internal <> [] then
                                Fmt.str
                                  "recurring: the state sits in a %d-state cycle-capable \
                                   SCC, so the race can be replayed forever"
                                  (List.length scc.Live.members)
                              else "transient: the state's SCC has no internal edge"))
                        :: !findings
                    end)
                  rest;
                pairs rest
            in
            pairs moves)
          (Space.reachable sp);
        List.rev !findings);
  }

let dead_transition =
  { Rule.id = "dead-transition";
    severity = Report.Info;
    doc =
      "a probed in-signature action that labels no edge of the exhaustively \
       explored graph (dead transition, or a probe entry that can never fire)";
    paper = "2.1";
    check =
      (fun subj ->
        let (Subject.P { aut = a; probe = p; space = sp; _ }) = subj.Subject.packed in
        let sp = Lazy.force sp in
        (* Only an exhausted, unreduced exploration sees every edge:
           under truncation, POR or an orbit quotient an untaken
           action proves nothing (its orbit-mate may fire). *)
        if
          sp.Space.verdict <> Space.Exhausted
          || sp.Space.por
          || Subject.quotiented subj
        then []
        else
          let candidates =
            List.filter (Automaton.in_signature a) p.Probe.actions
          in
          (* one shared pass over the edge array (with early exit),
             instead of one Array.exists per candidate *)
          let fired =
            Live.fired_actions sp ~equal:p.Probe.equal_action candidates
          in
          List.concat
            (List.mapi
               (fun i act ->
                 if fired.(i) then []
                 else
                   [ mkf ~rule:"dead-transition" ~severity:Report.Info
                       ~origin:subj.Subject.origin ~name:subj.Subject.name
                       (Fmt.str
                          "in-signature action %a labels no edge of the %d-state \
                           exhausted graph: it can never fire (dead transition, or \
                           an unfireable probe entry)"
                          p.Probe.pp_action act
                          (Array.length sp.Space.states))
                   ])
               candidates));
  }

let livelock =
  { Rule.id = "livelock";
    severity = Report.Warning;
    doc =
      "a weakly fair cycle of internal actions only: the system can spin forever \
       without producing any output (sound even on a truncated graph)";
    paper = "2.4";
    check =
      (fun subj ->
        let (Subject.P { aut = a; space = sp; live; _ }) = subj.Subject.packed in
        let sp = Lazy.force sp in
        (* a cycle of the orbit quotient lifts to a lasso only up to
           a permutation — not necessarily a genuine cycle *)
        if sp.Space.por || Subject.quotiented subj then []
        else
          let live = Lazy.force live in
          Array.to_list (Live.sccs live)
          |> List.filter_map (fun scc ->
                 if
                   scc.Live.internal <> []
                   && scc.Live.unmet = []
                   && List.for_all
                        (fun ei ->
                          Automaton.kind_of a sp.Space.edges.(ei).Space.act
                          = Some Automaton.Internal)
                        scc.Live.internal
                 then
                   Some
                     (mkf ~rule:"livelock" ~severity:Report.Warning
                        ~origin:subj.Subject.origin ~name:subj.Subject.name
                        ~state:(List.hd scc.Live.members)
                        (Fmt.str
                           "livelock: a weakly fair cycle over %d state(s) (SCC #%d, \
                            entered at state #%d) fires internal actions only — the \
                            system can run forever without ever producing an output \
                            (the cycle is real regardless of exploration verdict)"
                           (List.length scc.Live.members) scc.Live.id
                           (List.hd scc.Live.members)))
                 else None));
  }

let unsat_fairness =
  { Rule.id = "unsatisfiable-fairness-obligation";
    severity = Report.Error;
    doc =
      "a terminal SCC where no fair execution can continue (some fair task neither \
       fires nor is ever disabled) nor stop (some fair task is always enabled): the \
       task structure admits no fair execution through it";
    paper = "2.4";
    check =
      (fun subj ->
        let (Subject.P { space = sp; live; _ }) = subj.Subject.packed in
        let sp = Lazy.force sp in
        (* terminality and the absence of witnesses are absence
           claims: only an exhausted, unreduced graph supports them *)
        if
          sp.Space.verdict <> Space.Exhausted
          || sp.Space.por
          || Subject.quotiented subj
        then []
        else
          let live = Lazy.force live in
          Array.to_list (Live.sccs live)
          |> List.filter_map (fun scc ->
                 if
                   scc.Live.terminal && scc.Live.unmet <> []
                   && scc.Live.fair_stops = []
                 then
                   Some
                     (mkf ~rule:"unsatisfiable-fairness-obligation"
                        ~severity:Report.Error ~origin:subj.Subject.origin
                        ~name:subj.Subject.name
                        ~task:(String.concat "+" scc.Live.unmet)
                        ~state:(List.hd scc.Live.members)
                        (Fmt.str
                           "terminal SCC #%d (%d state(s), entered at state #%d) \
                            admits no fair execution: fair task(s) %s neither fire \
                            on any internal edge nor are ever disabled, and no \
                            member is a fair stop — the scheduler can neither \
                            satisfy the obligation nor halt fairly"
                           scc.Live.id
                           (List.length scc.Live.members)
                           (List.hd scc.Live.members)
                           (String.concat ", " scc.Live.unmet)))
                 else None));
  }

let mc =
  [ reachable_input_enabled; deadlock; race_pair; dead_transition; livelock;
    unsat_fairness;
  ]
let mc_ids = List.map (fun r -> r.Rule.id) mc

(* --- the symmetry rules (the --symmetry set) --- *)

let symmetry_breaking_state =
  { Rule.id = "symmetry-breaking-state";
    severity = Report.Info;
    doc =
      "a subject whose declared S_n action fails equivariance: the witness \
       names the breaking permutation, the state, and the offending field, \
       task or action";
    paper = "2.1";
    check =
      (fun subj ->
        match Subject.symm_verdict subj with
        | Some (Symm.Breaking w) ->
          [ mkf ~rule:"symmetry-breaking-state" ~severity:Report.Info
              ~origin:subj.Subject.origin ~name:subj.Subject.name
              ?task:w.Symm.w_task ~state:w.Symm.w_state
              (Fmt.str
                 "declared symmetry is broken — %a: the subject explores \
                  unreduced"
                 Symm.pp_witness w)
          ]
        | Some (Symm.Certified _ | Symm.Unsupported _) | None -> []);
  }

let uncertified_symmetry =
  { Rule.id = "uncertified-symmetry";
    severity = Report.Info;
    doc =
      "symmetry was requested but this subject carries no (usable) declared \
       S_n action: the exploration fell back to unreduced";
    paper = "2.1";
    check =
      (fun subj ->
        match Subject.symm_verdict subj with
        | Some (Symm.Unsupported reason) ->
          [ mkf ~rule:"uncertified-symmetry" ~severity:Report.Info
              ~origin:subj.Subject.origin ~name:subj.Subject.name
              (Fmt.str
                 "symmetry requested but not certifiable (%s): the \
                  exploration fell back to unreduced"
                 reason)
          ]
        | Some (Symm.Certified _ | Symm.Breaking _) | None -> []);
  }

let symmetry = [ symmetry_breaking_state; uncertified_symmetry ]
let symmetry_ids = List.map (fun r -> r.Rule.id) symmetry
