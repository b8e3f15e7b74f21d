(* Pins of the three Synod-based protocols (synod+Omega, Sigma+Omega,
   k-set from Psi_k): closed-net exploration counts and the digests of
   seeded runs.  The numbers were taken before the protocols shared one
   Synod core; a refactor of that core must leave every one of them
   unchanged. *)

open Afd_ioa
open Afd_system
open Afd_analysis
module C = Afd_consensus

(* --- (a) closed-net explorations (POR off) --- *)

let explore ~max_states (net : Net.t) =
  let probe =
    Probe.make ~equal_action:Act.equal ~pp_action:Act.pp
      ~equal_state:Composition.equal_state ~hash_state:Composition.hash_state ~max_states []
  in
  Space.explore (Composition.as_automaton net.Net.composition) probe

let p0 = Loc.Set.singleton 0

let exhausted (label, net, states, transitions) =
  Alcotest.test_case label `Quick (fun () ->
      let s = explore ~max_states:300_000 (net ()) in
      Alcotest.(check string) "verdict" "exhausted" (Space.verdict_string s.Space.verdict);
      Alcotest.(check int) "states" states (Array.length s.Space.states);
      Alcotest.(check int) "transitions" transitions s.Space.stats.Space.transitions)

let truncated (label, net, transitions) =
  Alcotest.test_case label `Slow (fun () ->
      let s = explore ~max_states:50_000 (net ()) in
      Alcotest.(check string) "verdict" "truncated@50000" (Space.verdict_string s.Space.verdict);
      Alcotest.(check int) "transitions" transitions s.Space.stats.Space.transitions)

let closed_nets =
  List.map exhausted
    [ ( "synod+Omega n=2 values [T;F]",
        (fun () -> C.Synod_omega.net ~n:2 ~values:[ true; false ] ~crashable:Loc.Set.empty ()),
        46,
        173 );
      ("synod+Omega n=2", (fun () -> C.Synod_omega.net ~n:2 ~crashable:Loc.Set.empty ()), 135, 534);
      ( "synod+Omega n=2 values [T;F] crashable p0",
        (fun () -> C.Synod_omega.net ~n:2 ~values:[ true; false ] ~crashable:p0 ()),
        169,
        499 );
      ("Sigma+Omega n=2", (fun () -> C.Synod_sigma.net ~n:2 ~crashable:Loc.Set.empty ()), 270, 1590);
      ( "Sigma+Omega n=2 values [T;F] crashable p0",
        (fun () -> C.Synod_sigma.net ~n:2 ~values:[ true; false ] ~crashable:p0 ()),
        785,
        3089 );
      ("k-set n=2 k=1", (fun () -> C.Kset.net ~n:2 ~k:1 ~crashable:Loc.Set.empty), 44, 144);
      ("k-set n=2 k=2", (fun () -> C.Kset.net ~n:2 ~k:2 ~crashable:Loc.Set.empty), 422, 1652);
      ("k-set n=2 k=1 crashable p0", (fun () -> C.Kset.net ~n:2 ~k:1 ~crashable:p0), 169, 451);
    ]
  @ List.map truncated
      [ ("k-set n=3 k=2 at 50k", (fun () -> C.Kset.net ~n:3 ~k:2 ~crashable:Loc.Set.empty), 289_180);
        ("synod+Omega n=3 at 50k", (fun () -> C.Synod_omega.net ~n:3 ~crashable:Loc.Set.empty ()), 392_596);
        ("Sigma+Omega n=3 at 50k", (fun () -> C.Synod_sigma.net ~n:3 ~crashable:Loc.Set.empty ()), 505_178);
      ]

(* --- (b) seeded runs of the E9, E16 and E18 configurations --- *)

let digest trace =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (Fmt.to_to_string Act.pp) trace)))

let crashable_of crash_at = Loc.Set.of_list (List.map snd crash_at)

(* (label, net, crash pattern, steps, digests of seeds 1..5) *)
let runs =
  [ ( "E9 synod+Omega n=3 crash-free",
      (fun crashable -> C.Synod_omega.net ~n:3 ~crashable ()),
      [],
      4000,
      [ "3255b11a46cffc748481e2a58c1b758f";
        "30a27b5c4f9308eae408a41492f96f91";
        "5d22ca8c150b642045bd01413ebdba4f";
        "e37e71c826c54a6ebbd44aa518c2cbe6";
        "d813375381b9b7b048331bea2cb96400"
      ] );
    ( "E9 synod+Omega n=3 leader crash",
      (fun crashable -> C.Synod_omega.net ~n:3 ~crashable ()),
      [ (30, 0) ],
      6000,
      [ "7cffdc50df0b213b7202b8a0f5d510d2";
        "516d5ea52b16b6b7c32341da4e14e7a0";
        "ec990dd93e4e4843b4ddd35829e71ffc";
        "df5fc3fe8f2469874d94dfe6a21ae0c8";
        "652e8fdc432d132ad5e5e3cd6b751eda"
      ] );
    ( "E9 synod+Omega n=5 f=2",
      (fun crashable -> C.Synod_omega.net ~n:5 ~crashable ()),
      [ (40, 0); (90, 3) ],
      9000,
      [ "c2c71e10bce7d863b2ffaffa7f14dd78";
        "ddbb3eaa646a7da35f55811449e6ec11";
        "ea067b492cf38761854420a610ed088e";
        "496c5b9abfa52e511e3bade975bb225e";
        "b2ef09cd975764edfed95982b550cd7c"
      ] );
    ( "E9 synod over EvP->Omega",
      (fun crashable -> C.Via_reduction.net ~n:3 ~crashable ()),
      [ (50, 2) ],
      9000,
      [ "add7f8b5fd8212e8a051ed215d0f957e";
        "8995aee9e919f75c78f4687b2c9d93c2";
        "d3ae0304fffe5f27ad9f8322bb31c931";
        "0874dd80ae4f55fa2c2f8db3384f8417";
        "b2e8b149343f4124ef06a2f82e87d60a"
      ] );
    ( "E16 Sigma+Omega n=3 f=2",
      (fun crashable -> C.Synod_sigma.net ~n:3 ~crashable ()),
      [ (30, 0); (70, 1) ],
      6000,
      [ "8aa16885a3b08efa6304193e32d25e83";
        "53f8cc1cb76a45f403b8cdd881c4f2fb";
        "85f41e03fc61e33b96ae064838751842";
        "63577ae5c9e4eaa504187d0dfe5775c3";
        "e375a6bf09911b70a21dcafb82146538"
      ] );
    ( "E16 Sigma+Omega n=4 f=3",
      (fun crashable -> C.Synod_sigma.net ~n:4 ~crashable ()),
      [ (20, 0); (50, 1); (90, 2) ],
      9000,
      [ "bd2204c02de006cca123d1d49f91f361";
        "4845b26a18343e586f7b9342fa17e0bd";
        "dd568b2f4c2d6a3c77c2625a62695e78";
        "da8fa4bc48a892562e6800aa00dcda55";
        "f80b6d39a279f96af44967f9513d61ae"
      ] );
    ( "E16 majority synod on the f=2 pattern",
      (fun crashable -> C.Synod_omega.net ~n:3 ~crashable ()),
      [ (10, 0); (25, 1) ],
      6000,
      [ "fc04cfd076d28ab374b53703d43e876d";
        "e6cd055c9f23db9a938c2fd47dd01e5a";
        "e151c8ec8d8d952ff1ebc8b99aa67db3";
        "c4abf2d80bfe53f0883bbfb6355a681b";
        "f8e8723d674d3fd0322a2ef4f19dad76"
      ] );
    ( "E18 k-set n=4 k=2 crash-free",
      (fun crashable -> C.Kset.net ~n:4 ~k:2 ~crashable),
      [],
      9000,
      [ "eb39f2b6309c1f503f71b1ed1629a67c";
        "fcb35a85d21f53e1a023129decffe4cd";
        "96fe24773e5b893cf70c85821a5153e3";
        "eaaff862da1561939507886f8e541576";
        "d04581163bcc241e085ec4af6aa2e9c9"
      ] );
    ( "E18 k-set n=4 k=2 one crash",
      (fun crashable -> C.Kset.net ~n:4 ~k:2 ~crashable),
      [ (40, 1) ],
      9000,
      [ "d528f213158abf659d2d892a1467135f";
        "a9063f2416a558a51facf4d664dfd3bc";
        "988ec07ac90c8b6574383fcd513dcb19";
        "f0624226594e49f1d80ed61596da4ab4";
        "6be9d1abae4ea79b5365ed8d0e3fc9c0"
      ] );
    ( "E18 k-set n=3 k=1",
      (fun crashable -> C.Kset.net ~n:3 ~k:1 ~crashable),
      [ (30, 2) ],
      8000,
      [ "b132e8fe1030463c5e757045b156f574";
        "a4f0a26522ce52a04beb66c35c02dcfa";
        "a79d21f5f174730aa145c2c1e1f0d481";
        "542036d2fb945e3991d81269ab5cf547";
        "dde2ba282de4b11609ab15294075db9d"
      ] );
  ]

let run_case (label, net, crash_at, steps, digests) =
  Alcotest.test_case label `Quick (fun () ->
      List.iteri
        (fun i expected ->
          let seed = i + 1 in
          let r = Net.run (net (crashable_of crash_at)) ~seed ~crash_at ~steps in
          Alcotest.(check string) (Printf.sprintf "seed %d" seed) expected (digest r.Net.trace))
        digests)

let suite = closed_nets @ List.map run_case runs
