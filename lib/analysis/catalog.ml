open Afd_ioa
open Afd_core
open Afd_system
open Afd_consensus

let n = 3

(* --- core: AFD automata over the Fd_event alphabet --- *)

let leader_acts =
  [ Fd_event.Crash 0;
    Fd_event.Crash 1;
    Fd_event.Crash 2;
    Fd_event.Output (0, 0);
    Fd_event.Output (1, 0);
    Fd_event.Output (1, 1);
    Fd_event.Output (2, 2);
  ]

let leader_probe ?actions ?equal_state ?hash_state ?max_states ?symm () =
  Probe.make
    ~equal_action:(Fd_event.equal Loc.equal)
    ~pp_action:(Fd_event.pp Loc.pp)
    ?equal_state ?hash_state ?max_states ?symm
    (Option.value ~default:leader_acts actions)

let set_acts =
  [ Fd_event.Crash 0;
    Fd_event.Crash 1;
    Fd_event.Crash 2;
    Fd_event.Output (0, Loc.Set.empty);
    Fd_event.Output (0, Loc.Set.singleton 0);
    Fd_event.Output (1, Loc.Set.of_list [ 1; 2 ]);
    Fd_event.Output (2, Loc.set_of_universe ~n);
  ]

let set_probe ?actions ?equal_state ?hash_state ?max_states ?symm () =
  Probe.make
    ~equal_action:(Fd_event.equal Loc.Set.equal)
    ~pp_action:(Fd_event.pp Loc.pp_set)
    ?equal_state ?hash_state ?max_states ?symm
    (Option.value ~default:set_acts actions)

(* S_3-closed probe universes for the symmetry-declared subjects: the
   analyzer demands that every probed action's whole orbit is probed
   (otherwise a quotient run could skip an action the unreduced run
   takes).  Supersets of [set_acts] / [leader_acts]. *)
let sym_set_acts =
  let locs = Loc.universe ~n in
  let rec subsets = function
    | [] -> [ Loc.Set.empty ]
    | x :: rest ->
      let ss = subsets rest in
      ss @ List.map (Loc.Set.add x) ss
  in
  List.map (fun i -> Fd_event.Crash i) locs
  @ List.concat_map
      (fun i -> List.map (fun s -> Fd_event.Output (i, s)) (subsets locs))
      locs

let sym_leader_acts =
  let locs = Loc.universe ~n in
  List.map (fun i -> Fd_event.Crash i) locs
  @ List.concat_map
      (fun i -> List.map (fun l -> Fd_event.Output (i, l)) locs)
      locs

(* Declared S_3 actions.  Declaring is a claim to be {e checked}, never
   an assertion: the analyzer certifies fd_perfect/fd_sigma/... and
   produces concrete breaking witnesses for the min-based leader
   detectors (fd_omega, fd_anti_omega) and the k-set ones. *)
let set_symm =
  { Probe.sy_n = n;
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

let leader_symm =
  { Probe.sy_n = n;
    sy_state = Symm.perm_set;
    sy_action = Symm.perm_event (fun pif l -> pif l);
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

let flip_symm =
  { Probe.sy_n = n;
    sy_state = (fun pif (c, t) -> (Symm.perm_set pif c, t));
    sy_action = Symm.perm_event (fun pif l -> pif l);
    sy_cmp =
      (fun (c1, t1) (c2, t2) ->
        let c = Loc.Set.compare c1 c2 in
        if c <> 0 then c else Bool.compare t1 t2);
    sy_fields =
      [ Probe.F
          { f_name = "crashset";
            f_proj = fst;
            f_perm = Symm.perm_set;
            f_equal = Loc.Set.equal;
          };
        Probe.F
          { f_name = "toggle";
            f_proj = snd;
            f_perm = (fun _ t -> t);
            f_equal = Bool.equal;
          };
      ];
  }

(* Location sets are words, so states built of sets and flags take the
   probe's structural identity.  Equal [Loc.Map]s can differ in tree
   shape, so states holding one need a custom equality and a hash
   congruent with it, through the map's bindings.  Every probe with a
   custom [equal_state] MUST pair it with a congruent hash — otherwise
   the explorer degrades to the exact single-bucket fallback (O(n²)); a
   regression test asserts the catalog carries no such probe. *)
let hash_noisy (c, q) = Hashtbl.hash (c, Loc.Map.bindings q)

let register_core () =
  let reg e = Registry.register ~origin:"core" e in
  let crashable = Loc.set_of_universe ~n in
  let sym_set_probe () = set_probe ~actions:sym_set_acts ~symm:set_symm () in
  let sym_leader_probe () = leader_probe ~actions:sym_leader_acts ~symm:leader_symm () in
  reg
    (Registry.Automaton
       (Afd_automata.crash_automaton ~n ~crashable, sym_set_probe ()));
  reg (Registry.Automaton (Afd_automata.fd_omega ~n, sym_leader_probe ()));
  reg (Registry.Automaton (Afd_automata.fd_anti_omega ~n, sym_leader_probe ()));
  reg (Registry.Automaton (Afd_automata.fd_perfect ~n, sym_set_probe ()));
  reg (Registry.Automaton (Afd_automata.fd_sigma ~n, sym_set_probe ()));
  reg (Registry.Automaton (Afd_automata.fd_omega_k ~n ~k:2, sym_set_probe ()));
  reg (Registry.Automaton (Afd_automata.fd_psi_k ~n ~k:2, sym_set_probe ()));
  (* FD-FlipFlop is a well-formed automaton (its defect is a fair
     cycle, not a malformed signature): lint it like the truthful ones.
     FD-Silent stays out — its never-enabled fair tasks trip dead-task
     by design, and the catalog is the clean-bill-of-health set; the
     model checker covers it as CHK.silent instead. *)
  reg
    (Registry.Automaton
       ( Afd_automata.fd_flip_flop ~n,
         leader_probe ~actions:sym_leader_acts ~symm:flip_symm () ));
  let eq_leader_noisy (c1, q1) (c2, q2) =
    Loc.Set.equal c1 c2 && Loc.Map.equal (List.equal Loc.equal) q1 q2
  in
  reg
    (Registry.Automaton
       ( Afd_automata.fd_omega_noisy ~n
           ~noise:(Afd_automata.noise_of_list [ (0, 2); (1, 2) ]),
         leader_probe ~equal_state:eq_leader_noisy ~hash_state:hash_noisy () ));
  let eq_set_noisy (c1, q1) (c2, q2) =
    Loc.Set.equal c1 c2 && Loc.Map.equal (List.equal Loc.Set.equal) q1 q2
  in
  reg
    (Registry.Automaton
       ( Afd_automata.fd_ev_perfect_noisy ~n
           ~noise:(Afd_automata.noise_of_list [ (0, Loc.Set.singleton 1) ]),
         set_probe ~equal_state:eq_set_noisy ~hash_state:hash_noisy () ));
  (* Algorithm 1 composed with the crash automaton: the closed system
     whose fair traces Theorem "sampled containment" tests consume. *)
  reg
    (Registry.Composition
       ( Composition.make ~name:"fd-omega-system"
           [ Component.C (Afd_automata.fd_omega ~n);
             Component.C (Afd_automata.crash_automaton ~n ~crashable);
           ],
         leader_probe ~max_states:48 () ))

(* --- system: channels, crash, environment, heartbeat, bridge --- *)

let act_probe ?seed_states ?max_states ?rename_roundtrip ?base_kind acts =
  Probe.make ~equal_action:Act.equal ~pp_action:Act.pp ?seed_states ?max_states
    ?rename_roundtrip ?base_kind acts

let ping k = Msg.Ping k

let chan_acts =
  [ Act.Send { src = 0; dst = 1; msg = ping 0 };
    Act.Send { src = 0; dst = 1; msg = ping 1 };
    Act.Receive { src = 0; dst = 1; msg = ping 0 };
    Act.Receive { src = 0; dst = 1; msg = ping 1 };
    (* outside the signature of channel C_{0,1}: *)
    Act.Send { src = 1; dst = 0; msg = ping 0 };
    Act.Receive { src = 1; dst = 0; msg = ping 0 };
    Act.Crash 0;
  ]

(* to_ ∘ of_ of the renaming [Fd_bridge.lift_leader] performs, for the
   bijection-sanity rule. *)
let lift_leader_roundtrip ~detector act =
  let of_ = function
    | Act.Crash i -> Some (Fd_event.Crash i)
    | Act.Fd { at; detector = d; payload = Act.Pleader l } when String.equal d detector
      ->
      Some (Fd_event.Output (at, l))
    | _ -> None
  in
  let to_ = function
    | Fd_event.Crash i -> Act.Crash i
    | Fd_event.Output (at, l) -> Act.Fd { at; detector; payload = Act.Pleader l }
  in
  Option.map to_ (of_ act)

let register_system () =
  let reg e = Registry.register ~origin:"system" e in
  reg (Registry.Automaton (Channel.automaton ~src:0 ~dst:1, act_probe chan_acts));
  reg
    (Registry.Automaton (Channel.lossy ~src:0 ~dst:1 ~drop_every:2, act_probe chan_acts));
  reg (Registry.Automaton (Channel.duplicating ~src:0 ~dst:1, act_probe chan_acts));
  (* hiding a channel's delivery actions, audited against the unhidden
     signature *)
  let chan = Channel.automaton ~src:0 ~dst:1 in
  reg
    (Registry.Automaton
       ( { (Automaton.hide Act.is_receive chan) with Automaton.name = "chan_p0_p1_hidden" },
         act_probe ~base_kind:chan.Automaton.kind chan_acts ));
  reg
    (Registry.Automaton
       ( Crash.automaton ~n ~crashable:(Loc.set_of_universe ~n),
         act_probe
           [ Act.Crash 0;
             Act.Crash 1;
             Act.Crash 2;
             Act.Send { src = 0; dst = 1; msg = ping 0 };
           ] ));
  reg
    (Registry.Automaton
       ( Environment.consensus_at 0,
         act_probe
           [ Act.Crash 0;
             Act.Decide { at = 0; v = true };
             Act.Decide { at = 0; v = false };
             Act.Propose { at = 0; v = true };
             Act.Propose { at = 0; v = false };
             Act.Propose { at = 1; v = true };
             Act.Decide { at = 1; v = true };
           ] ));
  reg
    (Registry.Automaton
       ( Environment.scripted_at 0 ~value:true,
         act_probe
           [ Act.Crash 0;
             Act.Decide { at = 0; v = true };
             Act.Propose { at = 0; v = true };
             Act.Propose { at = 0; v = false };
           ] ));
  reg
    (Registry.Automaton
       ( Heartbeat.automaton ~n ~initial_timeout:2 ~loc:0,
         act_probe ~max_states:64
           [ Act.Crash 0;
             Act.Receive { src = 1; dst = 0; msg = ping 0 };
             Act.Receive { src = 2; dst = 0; msg = ping 0 };
             Act.Send { src = 0; dst = 1; msg = ping 0 };
             Act.Fd { at = 0; detector = Heartbeat.detector_name; payload = Act.Pset Loc.Set.empty };
             Act.Crash 1;
           ] ));
  reg
    (Registry.Automaton
       ( Fd_bridge.lift_leader ~detector:"Omega" (Afd_automata.fd_omega ~n),
         act_probe
           ~rename_roundtrip:(lift_leader_roundtrip ~detector:"Omega")
           [ Act.Crash 0;
             Act.Crash 1;
             Act.Crash 2;
             Act.Fd { at = 0; detector = "Omega"; payload = Act.Pleader 0 };
             Act.Fd { at = 1; detector = "Omega"; payload = Act.Pleader 0 };
             Act.Fd { at = 1; detector = "Omega"; payload = Act.Pleader 1 };
             Act.Fd { at = 1; detector = "other"; payload = Act.Pleader 1 };
             Act.Propose { at = 0; v = true };
           ] ));
  reg
    (Registry.Automaton
       ( Fd_bridge.transformer ~src:"EvP" ~dst:"Omega" ~loc:0 ~f:(fun _ p ->
             match p with
             | Act.Pset s ->
               Act.Pleader (Option.value ~default:0 (Loc.min_not_in ~n (fun j -> Loc.Set.mem j s)))
             | Act.Pleader l -> Act.Pleader l),
         act_probe
           [ Act.Crash 0;
             Act.Fd { at = 0; detector = "EvP"; payload = Act.Pset Loc.Set.empty };
             Act.Fd { at = 0; detector = "EvP"; payload = Act.Pset (Loc.Set.singleton 0) };
             Act.Fd { at = 0; detector = "Omega"; payload = Act.Pleader 0 };
             Act.Fd { at = 0; detector = "Omega"; payload = Act.Pleader 1 };
             Act.Fd { at = 1; detector = "EvP"; payload = Act.Pset Loc.Set.empty };
           ] ));
  (* the full heartbeat net: processes + channels + crash *)
  reg
    (Registry.Composition
       ( (Heartbeat.net ~n ~initial_timeout:2 ~crashable:(Loc.Set.singleton 2) ()).Net.composition,
         act_probe ~max_states:48
           [ Act.Crash 0;
             Act.Crash 2;
             Act.Send { src = 0; dst = 1; msg = ping 0 };
             Act.Receive { src = 1; dst = 0; msg = ping 0 };
             Act.Fd { at = 0; detector = Heartbeat.detector_name; payload = Act.Pset Loc.Set.empty };
             Act.Fd { at = 1; detector = Heartbeat.detector_name; payload = Act.Pset Loc.Set.empty };
           ] ))

(* --- consensus: processes, detectors, and a full net --- *)

let register_consensus () =
  let reg e = Registry.register ~origin:"consensus" e in
  reg
    (Registry.Automaton
       ( Flood_p.process ~n ~f:1 ~loc:0,
         act_probe ~max_states:64
           [ Act.Crash 0;
             Act.Propose { at = 0; v = true };
             Act.Propose { at = 0; v = false };
             Act.Fd { at = 0; detector = Flood_p.detector_name; payload = Act.Pset Loc.Set.empty };
             Act.Fd { at = 0; detector = Flood_p.detector_name; payload = Act.Pset (Loc.Set.singleton 2) };
             Act.Receive { src = 1; dst = 0; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
             Act.Send { src = 0; dst = 1; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
             Act.Step { at = 0; tag = "advance" };
             Act.Propose { at = 1; v = true };
           ] ));
  reg
    (Registry.Automaton
       ( Synod_omega.process ~n ~loc:0,
         act_probe ~max_states:64
           [ Act.Crash 0;
             Act.Propose { at = 0; v = true };
             Act.Fd { at = 0; detector = Synod_omega.detector_name; payload = Act.Pleader 0 };
             Act.Fd { at = 0; detector = Synod_omega.detector_name; payload = Act.Pleader 1 };
             Act.Receive { src = 1; dst = 0; msg = Msg.Prepare { bal = 1 } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Promise { bal = 1; accepted = None } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Accept { bal = 1; v = true } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Accepted { bal = 1; v = true } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Decided { v = true } };
             Act.Send { src = 0; dst = 1; msg = Msg.Prepare { bal = 0 } };
           ] ));
  reg
    (Registry.Automaton
       ( Synod_sigma.process ~n ~loc:0,
         act_probe ~max_states:64
           [ Act.Crash 0;
             Act.Propose { at = 0; v = true };
             Act.Fd { at = 0; detector = "Sigma"; payload = Act.Pset (Loc.set_of_universe ~n) };
             Act.Fd { at = 0; detector = Synod_omega.detector_name; payload = Act.Pleader 0 };
             Act.Receive { src = 1; dst = 0; msg = Msg.Promise { bal = 1; accepted = None } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Accepted { bal = 1; v = true } };
           ] ));
  reg
    (Registry.Automaton
       ( Trb.process ~n ~sender:0 ~loc:0,
         act_probe ~max_states:64
           [ Act.Crash 0;
             Act.Propose { at = 0; v = true };
             Act.Fd { at = 0; detector = Trb.detector_name; payload = Act.Pset Loc.Set.empty };
             Act.Fd { at = 0; detector = Trb.detector_name; payload = Act.Pset (Loc.Set.singleton 0) };
             Act.Receive { src = 1; dst = 0; msg = Msg.Decided { v = true } };
             Act.Send { src = 0; dst = 1; msg = Msg.Decided { v = true } };
           ] ));
  reg
    (Registry.Automaton
       ( Kset.process ~n ~k:2 ~loc:0,
         act_probe ~max_states:64
           [ Act.Crash 0;
             Act.Fd { at = 0; detector = Kset.detector_name; payload = Act.Pset (Loc.Set.of_list [ 0; 1 ]) };
             Act.Receive { src = 1; dst = 0; msg = Msg.Kprepare { inst = 0; bal = 1 } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Kpromise { inst = 0; bal = 1; accepted = None } };
             Act.Receive { src = 1; dst = 0; msg = Msg.Kaccepted { inst = 0; bal = 1; v = 1 } };
             Act.Decide_id { at = 0; v = 0 };
             Act.Decide_id { at = 1; v = 0 };
             Act.Step { at = 0; tag = "decide_id" };
           ] ));
  reg
    (Registry.Automaton
       ( Participant.automaton ~n,
         act_probe
           [ Act.Query { at = 0; detector = Participant.detector_name };
             Act.Query { at = 1; detector = Participant.detector_name };
             Act.Query { at = 0; detector = "other" };
             Act.Resp { at = 0; detector = Participant.detector_name; payload = Act.Pleader 0 };
             Act.Resp { at = 0; detector = "other"; payload = Act.Pleader 0 };
             Act.Crash 0;
             Act.Crash 1;
           ] ));
  (* Figure 1 in full: flooding consensus over P, with environment *)
  reg
    (Registry.Composition
       ( (Flood_p.net ~n ~f:1 ~crashable:(Loc.Set.singleton 2) ()).Net.composition,
         act_probe ~max_states:48
           [ Act.Crash 0;
             Act.Crash 2;
             Act.Send { src = 0; dst = 1; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
             Act.Receive { src = 0; dst = 1; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
             Act.Fd { at = 1; detector = Flood_p.detector_name; payload = Act.Pset Loc.Set.empty };
             Act.Propose { at = 0; v = true };
             Act.Propose { at = 2; v = false };
             Act.Decide { at = 0; v = true };
             Act.Step { at = 1; tag = "advance" };
           ] ))

let items () =
  Registry.reset ();
  register_core ();
  register_system ();
  register_consensus ();
  Registry.items ()
