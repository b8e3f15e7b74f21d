open Afd_ioa
open Afd_system
open Afd_core

let sigma_name = "Sigma"
let omega_name = Synod_omega.detector_name

type st = Synod_omega.st

let process ~n ~loc =
  Process.automaton ~name:"synodsig" ~loc ~fd_names:[ sigma_name; omega_name ]
    (Synod_omega.def ~sigma:(Some sigma_name) ~n ~self:loc)

let processes ~n =
  List.map (fun i -> Component.C (process ~n ~loc:i)) (Loc.universe ~n)

let net ~n ?values ~crashable () =
  let sigma = Fd_bridge.lift_set ~detector:sigma_name (Afd_automata.fd_sigma ~n) in
  let omega = Fd_bridge.lift_leader ~detector:omega_name (Afd_automata.fd_omega ~n) in
  let environment = Environment.of_values ~n values in
  Net.assemble ~n
    ~detectors:[ Component.C sigma; Component.C omega ]
    ~environment ~crashable ~processes:(processes ~n) ()
