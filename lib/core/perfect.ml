open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

(* Strong accuracy, exactly as phrased in the paper: for every prefix
   t_pre and every i live in t_pre, no output event in t_pre suspects
   i.  Equivalently: every suspected location had crashed strictly
   before the output event. *)
let accuracy =
  P.always ~name:"accuracy" (fun st e ->
      match e with
      | Fd_event.Output (j, s) when not (Loc.Set.subset s st.P.crashed) ->
        Error
          (Fmt.str "output %a at %a suspects not-yet-crashed location(s) %a"
             Loc.pp_set s Loc.pp j
             Loc.pp_set (Loc.Set.diff s st.P.crashed))
      | Fd_event.Output _ | Fd_event.Crash _ -> Ok ())

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
                   (P.reasonf "last output at %a (%a) misses faulty %a" Loc.pp i
                      Loc.pp_set s Loc.pp_set (Loc.Set.diff faulty s))))
          last P.J_sat)

let prop ~n:_ = P.conj [ P.validity (); accuracy; completeness ]
let spec =
  Afd.of_prop ~perm_out:(fun pi -> Loc.Set.map pi) ~name:"P" ~pp_out:Loc.pp_set prop
