open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.t

let spared =
  P.eventually_stable ~name:"spared-location" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        if Loc.Set.is_empty live then P.J_sat
        else
          let named =
            Loc.Map.fold (fun _ l acc -> Loc.Set.add l acc) last Loc.Set.empty
          in
          let spared = Loc.Set.diff live named in
          if Loc.Set.is_empty spared then
            P.J_undecided (lazy "every live location is still being output")
          else P.J_sat)

let prop ~n:_ = P.conj [ P.validity (); spared ]
let spec =
  Afd.of_prop ~perm_out:(fun pi i -> pi i) ~name:"anti-Omega" ~pp_out:Loc.pp prop
