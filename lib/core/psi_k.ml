open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

let shape ~k =
  P.always ~name:"shape" (fun _st e ->
      match e with
      | Fd_event.Output (i, s) when Loc.Set.cardinal s <> k ->
        Error
          (Fmt.str "output %a at %a has cardinality %d, expected %d" Loc.pp_set s
             Loc.pp i (Loc.Set.cardinal s) k)
      | Fd_event.Output _ | Fd_event.Crash _ -> Ok ())

let convergence =
  P.eventually_stable ~name:"convergence" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        if Loc.Set.is_empty live then P.J_sat
        else
          let sets = Loc.Map.fold (fun _ s acc -> s :: acc) last [] in
          let all_equal =
            match sets with
            | [] -> true
            | s0 :: rest -> List.for_all (Loc.Set.equal s0) rest
          in
          if not all_equal then
            P.J_undecided (lazy "live locations have not converged on one set")
          else
            let k0 = List.hd sets in
            if Loc.Set.is_empty (Loc.Set.inter k0 live) then
              P.J_undecided (lazy "converged set contains no live location")
            else P.J_sat)

let prop ~k ~n:_ = P.conj [ P.validity (); shape ~k; convergence ]

let spec ~k =
  if k < 1 then invalid_arg "Psi_k.spec: k must be >= 1";
  Afd.of_prop
    ~perm_out:(fun pi -> Loc.Set.map pi)
    ~name:(Printf.sprintf "Psi_%d" k)
    ~pp_out:Loc.pp_set
    (prop ~k)
