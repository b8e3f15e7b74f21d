open Afd_ioa

(* A tiny three-action alphabet: Tick k (locally controlled), Reset
   (input), Noise (deliberately outside every fixture's signature). *)
type act = Tick of int | Reset | Noise

let pp_act fmt = function
  | Tick k -> Fmt.pf fmt "tick%d" k
  | Reset -> Format.pp_print_string fmt "reset"
  | Noise -> Format.pp_print_string fmt "noise"

let acts = [ Tick 1; Tick 2; Tick 3; Reset; Noise ]

let probe ?actions ?rename_roundtrip ?base_kind () =
  Probe.make ~pp_action:pp_act ?rename_roundtrip ?base_kind
    (Option.value ~default:acts actions)

(* The well-formed witness: counts 1..limit, Reset restarts. *)
let counter ~name ~limit =
  let kind = function
    | Tick _ -> Some Automaton.Output
    | Reset -> Some Automaton.Input
    | Noise -> None
  in
  let step s = function
    | Tick k when k = s + 1 && k <= limit -> Some k
    | Tick _ -> None
    | Reset -> Some 0
    | Noise -> None
  in
  let task =
    { Automaton.task_name = "tick";
      fair = true;
      enabled = (fun s -> if s < limit then Some (Tick (s + 1)) else None);
    }
  in
  { Automaton.name; kind; start = 0; step; tasks = [ task ] }

let listener =
  let kind = function
    | Tick _ -> Some Automaton.Input
    | Reset -> None
    | Noise -> None
  in
  let step s = function Tick _ -> Some s | Reset | Noise -> None in
  { Automaton.name = "listener"; kind; start = 0; step; tasks = [] }

let base = counter ~name:"fixture" ~limit:3

let well_formed = Registry.Automaton (base, probe ())

let not_input_enabled =
  (* Reset becomes disabled once the counter has advanced *)
  let step s = function
    | Reset -> if s = 0 then Some 0 else None
    | act -> base.Automaton.step s act
  in
  Registry.Automaton ({ base with Automaton.step }, probe ())

let task_nondeterministic =
  (* a second task enabling the same action as the first *)
  let clone =
    { Automaton.task_name = "tick-again";
      fair = true;
      enabled = (fun s -> if s < 3 then Some (Tick (s + 1)) else None);
    }
  in
  Registry.Automaton
    ({ base with Automaton.tasks = base.Automaton.tasks @ [ clone ] }, probe ())

let step_outside_signature =
  (* the step relation accepts Noise, which kind_of excludes *)
  let step s = function Noise -> Some s | act -> base.Automaton.step s act in
  Registry.Automaton ({ base with Automaton.step }, probe ())

let task_enables_input =
  let bad =
    { Automaton.task_name = "reset-from-inside";
      fair = true;
      enabled = (fun _ -> Some Reset);
    }
  in
  Registry.Automaton
    ({ base with Automaton.tasks = base.Automaton.tasks @ [ bad ] }, probe ())

let enabled_not_steppable =
  (* the task offers Tick 5, which the step relation rejects *)
  let bad =
    { Automaton.task_name = "overrun";
      fair = true;
      enabled = (fun s -> if s = 0 then Some (Tick 5) else None);
    }
  in
  Registry.Automaton
    ({ base with Automaton.tasks = base.Automaton.tasks @ [ bad ] }, probe ())

let dead_task =
  let dead =
    { Automaton.task_name = "never"; fair = true; enabled = (fun _ -> None) }
  in
  Registry.Automaton
    ({ base with Automaton.tasks = base.Automaton.tasks @ [ dead ] }, probe ())

let unfair_task =
  let unfair =
    { Automaton.task_name = "lazy";
      fair = false;
      enabled = (fun s -> if s < 3 then Some (Tick (s + 1)) else None);
    }
  in
  (* replace, don't append: two tasks enabling the same action would
     also trip task-determinism *)
  Registry.Automaton ({ base with Automaton.tasks = [ unfair ] }, probe ())

let dual_controlled =
  Registry.Composition
    ( Composition.make ~name:"dual"
        [ Component.C (counter ~name:"c1" ~limit:3);
          Component.C (counter ~name:"c2" ~limit:3);
        ],
      probe () )

let internal_leaked =
  (* c1's Tick is internal, yet c2 still has Tick in its signature *)
  let internalized =
    let kind = function
      | Tick _ -> Some Automaton.Internal
      | Reset -> Some Automaton.Input
      | Noise -> None
    in
    { (counter ~name:"c1" ~limit:3) with Automaton.kind }
  in
  Registry.Composition
    ( Composition.make ~name:"leaky"
        [ Component.C internalized;
          Component.C { listener with Automaton.name = "c2" };
        ],
      probe () )

let broken_roundtrip =
  (* a "renamed" automaton whose claimed inverse loses Tick 2 and sends
     Tick 1 elsewhere *)
  let rt = function
    | Tick 1 -> Some (Tick 3)
    | Tick 2 -> None
    | act -> Some act
  in
  Registry.Automaton (base, probe ~rename_roundtrip:rt ())

let broken_hiding =
  (* the "hidden" automaton reclassified the Reset input as internal *)
  let kind = function
    | Tick _ -> Some Automaton.Output
    | Reset -> Some Automaton.Internal
    | Noise -> None
  in
  Registry.Automaton
    ({ base with Automaton.kind }, probe ~base_kind:base.Automaton.kind ())

let no_probes = Registry.Automaton (base, probe ~actions:[] ())

let all =
  [ ("input-enabled", not_input_enabled);
    ("task-determinism", task_nondeterministic);
    ("step-signature", step_outside_signature);
    ("task-signature", task_enables_input);
    ("enabled-consistency", enabled_not_steppable);
    ("dual-control", dual_controlled);
    ("internal-leakage", internal_leaked);
    ("dead-task", dead_task);
    ("unfair-task", unfair_task);
    ("rename-roundtrip", broken_roundtrip);
    ("hiding", broken_hiding);
    ("probe-coverage", no_probes);
  ]

(* --- fixtures for the graph rules (the --mc set) --- *)

let stuck_counter =
  (* the task still claims Tick 4 at the cap, and nothing else can move:
     the state is non-quiescent yet the step relation rejects every
     enabled action *)
  let c = counter ~name:"stuck" ~limit:3 in
  let task =
    { Automaton.task_name = "tick";
      fair = true;
      enabled = (fun s -> if s < 4 then Some (Tick (s + 1)) else None);
    }
  in
  Registry.Automaton ({ c with Automaton.tasks = [ task ] }, probe ())

let jump_counter =
  (* two concurrently enabled tasks whose moves visibly race:
     increment-then-double lands elsewhere than double-then-increment *)
  let kind = function
    | Tick _ -> Some Automaton.Output
    | Reset -> Some Automaton.Input
    | Noise -> None
  in
  let step s = function
    | Tick 1 when s + 1 <= 5 -> Some (s + 1)
    | Tick 2 when s * 2 <= 5 -> Some (s * 2)
    | Tick _ | Noise -> None
    | Reset -> Some 0
  in
  let tasks =
    [ { Automaton.task_name = "inc";
        fair = true;
        enabled = (fun s -> if s + 1 <= 5 then Some (Tick 1) else None);
      };
      { Automaton.task_name = "dbl";
        fair = true;
        enabled = (fun s -> if s * 2 <= 5 then Some (Tick 2) else None);
      };
    ]
  in
  Registry.Automaton
    ({ Automaton.name = "jumpy"; kind; start = 0; step; tasks },
     probe ~actions:[ Tick 1; Tick 2; Reset ] ())

let short_counter =
  (* limit 2, but the probe universe still carries Tick 3: the action is
     in the signature yet labels no edge of the exhausted graph *)
  Registry.Automaton (counter ~name:"short" ~limit:2, probe ())

(* A two-state spinner: one fair task alternates Tick 1 / Tick 2
   forever, Reset restarts.  [kind] decides which liveness rule sees
   it: with internal Ticks the fair cycle produces no output ever
   (livelock); with output Ticks the same cycle is harmless. *)
let spinner ~name ~tick_kind =
  let kind = function
    | Tick _ -> Some tick_kind
    | Reset -> Some Automaton.Input
    | Noise -> None
  in
  let step s = function
    | Tick 1 when s = 0 -> Some 1
    | Tick 2 when s = 1 -> Some 0
    | Tick _ | Noise -> None
    | Reset -> Some 0
  in
  let task =
    { Automaton.task_name = "spin";
      fair = true;
      enabled = (fun s -> Some (Tick (s + 1)));
    }
  in
  { Automaton.name; kind; start = 0; step; tasks = [ task ] }

let spinner_probe () = probe ~actions:[ Tick 1; Tick 2; Reset ] ()

let livelocked_spinner =
  Registry.Automaton (spinner ~name:"livelocked" ~tick_kind:Automaton.Internal, spinner_probe ())

let harmless_cycle =
  (* same fair cycle, but the Ticks are outputs: visibly productive, so
     the livelock rule must stay silent *)
  Registry.Automaton (spinner ~name:"harmless" ~tick_kind:Automaton.Output, spinner_probe ())

let pinned_spinner =
  (* the spinner plus a second fair task that is enabled in every state
     yet whose action the step relation never accepts: the sole
     (terminal) SCC lets the scheduler neither satisfy the obligation
     (the task never fires) nor halt fairly (spin is always enabled).
     enabled-consistency flags the same root cause pointwise; the
     unsatisfiable-fairness-obligation rule reports its global shape. *)
  let s = spinner ~name:"pinned" ~tick_kind:Automaton.Output in
  let pinned =
    { Automaton.task_name = "pinned";
      fair = true;
      enabled = (fun _ -> Some (Tick 3));
    }
  in
  Registry.Automaton
    ({ s with Automaton.tasks = s.Automaton.tasks @ [ pinned ] }, spinner_probe ())

let mc =
  [ ("reachable-input-enabled", not_input_enabled);
    ("deadlock", stuck_counter);
    ("race-pair", jump_counter);
    ("dead-transition", short_counter);
    ("livelock", livelocked_spinner);
    ("unsatisfiable-fairness-obligation", pinned_spinner);
  ]

(* --- fixtures for the symmetry rules (the --symmetry set) --- *)

module Fd_event = Afd_prop.Fd_event

(* A two-process detector family in the shape of the catalog's
   truthful automata: state is the crashed-so-far set, every live
   location keeps outputting [output crashset].  Symmetric or not is
   decided entirely by [output]. *)
let sym_n = 2

let suspector ~name ~output =
  let kind = function
    | Fd_event.Crash _ -> Some Automaton.Input
    | Fd_event.Output _ -> Some Automaton.Output
  in
  let step crashset = function
    | Fd_event.Crash i -> Some (Loc.Set.add i crashset)
    | Fd_event.Output (i, o) ->
      if (not (Loc.Set.mem i crashset)) && Loc.Set.equal (output crashset) o then
        Some crashset
      else None
  in
  let task i =
    { Automaton.task_name = Printf.sprintf "fd_%s" (Loc.to_string i);
      fair = true;
      enabled =
        (fun crashset ->
          if Loc.Set.mem i crashset then None
          else Some (Fd_event.Output (i, output crashset)));
    }
  in
  { Automaton.name;
    kind;
    start = Loc.Set.empty;
    step;
    tasks = List.map task (Loc.universe ~n:sym_n);
  }

(* The probe universe must be closed under S_2 for the analyzer's
   probe-closure check: every crash, every (location, payload) pair. *)
let sym_acts =
  let locs = Loc.universe ~n:sym_n in
  let payloads =
    [ Loc.Set.empty;
      Loc.Set.singleton 0;
      Loc.Set.singleton 1;
      Loc.set_of_universe ~n:sym_n;
    ]
  in
  List.map (fun i -> Fd_event.Crash i) locs
  @ List.concat_map
      (fun i -> List.map (fun s -> Fd_event.Output (i, s)) payloads)
      locs

let sym_probe ?symm () =
  Probe.make
    ~equal_action:(Fd_event.equal Loc.Set.equal)
    ~pp_action:(Fd_event.pp Loc.pp_set)
    ?symm sym_acts

let sym_descriptor =
  { Probe.sy_n = sym_n;
    sy_state = Symm.perm_set;
    sy_action = Symm.perm_event Symm.perm_set;
    sy_cmp = Loc.Set.compare;
    sy_fields =
      [ Probe.F
          { f_name = "crashset";
            f_proj = (fun s -> s);
            f_perm = Symm.perm_set;
            f_equal = Loc.Set.equal;
          }
      ];
  }

let symmetry_breaking =
  (* suspects the smallest live location: permuting the processes moves
     the suspicion to the wrong place, so the declared symmetry breaks
     (the same defect as a min-based leader election) *)
  let output crashset =
    match Loc.min_not_in ~n:sym_n (fun j -> Loc.Set.mem j crashset) with
    | Some l -> Loc.Set.singleton l
    | None -> Loc.Set.empty
  in
  Registry.Automaton
    (suspector ~name:"min-suspector" ~output, sym_probe ~symm:sym_descriptor ())

let symmetry_undeclared =
  (* genuinely equivariant (outputs the crash set itself), but the
     probe declares no S_n action — certification has nothing to
     check, so a symmetry-requested run falls back to unreduced *)
  Registry.Automaton
    (suspector ~name:"undeclared-suspector" ~output:(fun c -> c), sym_probe ())

let symmetry_certifiable =
  (* the same equivariant automaton with the symmetry declared: the
     analyzer certifies it and both symmetry rules stay silent *)
  Registry.Automaton
    ( suspector ~name:"declared-suspector" ~output:(fun c -> c),
      sym_probe ~symm:sym_descriptor () )

let symmetry =
  [ ("symmetry-breaking-state", symmetry_breaking);
    ("uncertified-symmetry", symmetry_undeclared);
  ]

let find id =
  Option.map snd
    (List.find_opt (fun (id', _) -> String.equal id id') (all @ mc @ symmetry))
