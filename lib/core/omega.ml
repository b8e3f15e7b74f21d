open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.t

let stable_leader =
  P.eventually_stable ~name:"stable-leader" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        if Loc.Set.is_empty live then P.J_sat
        else
          let leaders =
            Loc.Map.fold (fun _ l acc -> Loc.Set.add l acc) last Loc.Set.empty
          in
          if Loc.Set.cardinal leaders <> 1 then
            P.J_undecided
              (P.reasonf "live locations disagree on the leader: %a" Loc.pp_set leaders)
          else
            let l = Loc.Set.choose leaders in
            if Loc.Set.mem l live then P.J_sat
            else P.J_undecided (P.reasonf "stable leader %a is faulty" Loc.pp l))

let prop ~n:_ = P.conj [ P.validity (); stable_leader ]
let spec =
  Afd.of_prop ~perm_out:(fun pi i -> pi i) ~name:"Omega" ~pp_out:Loc.pp prop
