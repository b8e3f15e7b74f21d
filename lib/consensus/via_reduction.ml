open Afd_ioa
open Afd_core
open Afd_system

let evp_name = "EvP"

let default_noise ~n =
  Afd_automata.noise_of_list
    (List.map (fun i -> (i, Loc.Set.singleton ((i + 1) mod n))) (Loc.universe ~n))

let leader_of_suspects ~n loc = function
  | Act.Pset s -> (
    match Loc.min_not_in ~n (fun j -> Loc.Set.mem j s) with
    | Some l -> Act.Pleader l
    | None -> Act.Pleader loc)
  | Act.Pleader l -> Act.Pleader l

let net ~n ?values ?noise ~crashable () =
  let noise = match noise with Some x -> x | None -> default_noise ~n in
  let evp =
    Fd_bridge.lift_set ~detector:evp_name (Afd_automata.fd_ev_perfect_noisy ~n ~noise)
  in
  let transformers =
    List.map
      (fun i ->
        Component.C
          (Fd_bridge.transformer ~src:evp_name ~dst:Synod_omega.detector_name ~loc:i
             ~f:(leader_of_suspects ~n)))
      (Loc.universe ~n)
  in
  let environment = Environment.of_values ~n values in
  Net.assemble ~n
    ~detectors:[ Component.C evp ]
    ~environment ~extras:transformers ~crashable
    ~processes:(Synod_omega.processes ~n) ()
