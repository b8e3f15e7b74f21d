open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

(* Under limit-extension semantics the two eventual clauses combine to:
   the last output of every live location equals exactly the faulty
   set (S disjoint from live and S containing faulty force S = faulty). *)
let convergence =
  P.eventually_stable ~name:"convergence" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        let faulty = st.P.crashed in
        Loc.Map.fold
          (fun i s acc ->
            let trust_violation = Loc.Set.inter s live in
            if not (Loc.Set.is_empty trust_violation) then
              P.j_and acc
                (P.J_undecided
                   (P.reasonf "last output at %a still suspects live %a" Loc.pp i
                      Loc.pp_set trust_violation))
            else if not (Loc.Set.subset faulty s) then
              P.j_and acc
                (P.J_undecided
                   (P.reasonf "last output at %a misses faulty %a" Loc.pp i
                      Loc.pp_set (Loc.Set.diff faulty s)))
            else acc)
          last P.J_sat)

let prop ~n:_ = P.conj [ P.validity (); convergence ]
let spec =
  Afd.of_prop ~perm_out:(fun pi -> Loc.Set.map pi) ~name:"EvP" ~pp_out:Loc.pp_set prop
