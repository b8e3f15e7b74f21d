open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

(* Perpetual weak accuracy is judged, not latched: the ever-suspected
   union only grows, but the live set can shrink, so "every live
   location has been suspected" may flip back to satisfied when the
   last never-suspected live location crashes.  The fold carries the
   union of all suspect sets seen so far. *)
let weak_accuracy =
  P.folding ~perm:Loc.Set.map ~cmp:Loc.Set.compare ~name:"weak-accuracy"
    ~init:Loc.Set.empty
    ~step:(fun _st suspected e ->
      match e with
      | Fd_event.Crash _ -> Ok suspected
      | Fd_event.Output (_, s) -> Ok (Loc.Set.union suspected s))
    ~judge:(fun st suspected ->
      let live = P.live st in
      if Loc.Set.is_empty live then P.J_sat
      else if Loc.Set.is_empty (Loc.Set.diff live suspected) then
        P.J_violated (lazy "every live location has been suspected at least once")
      else P.J_sat)

let completeness =
  P.eventually_stable ~name:"completeness" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, _live) ->
        let faulty = st.P.crashed in
        Loc.Map.fold
          (fun i s acc ->
            if Loc.Set.subset faulty s then acc
            else
              P.j_and acc
                (P.J_undecided
                   (P.reasonf "last output at %a misses faulty %a" Loc.pp i
                      Loc.pp_set (Loc.Set.diff faulty s))))
          last P.J_sat)

let prop ~n:_ = P.conj [ P.validity (); weak_accuracy; completeness ]
let spec =
  Afd.of_prop ~perm_out:(fun pi -> Loc.Set.map pi) ~name:"S" ~pp_out:Loc.pp_set prop
