open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

let convergence =
  P.eventually_stable ~name:"convergence" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        if Loc.Set.is_empty live then P.J_sat
        else
          let faulty = st.P.crashed in
          let completeness =
            Loc.Map.fold
              (fun i s acc ->
                if Loc.Set.subset faulty s then acc
                else
                  P.j_and acc
                    (P.J_undecided
                       (P.reasonf "last output at %a misses faulty %a" Loc.pp i
                          Loc.pp_set (Loc.Set.diff faulty s))))
              last P.J_sat
          in
          let trusted = Loc.Map.fold (fun _ s acc -> Loc.Set.diff acc s) last live in
          let accuracy =
            if Loc.Set.is_empty trusted then
              P.J_undecided (lazy "every live location is still suspected by someone")
            else P.J_sat
          in
          P.j_and completeness accuracy)

let prop ~n:_ = P.conj [ P.validity (); convergence ]
let spec =
  Afd.of_prop ~perm_out:(fun pi -> Loc.Set.map pi) ~name:"EvS" ~pp_out:Loc.pp_set prop
