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

let common_live =
  P.eventually_stable ~name:"common-live" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        if Loc.Set.is_empty live then P.J_sat
        else
          let common =
            Loc.Map.fold
              (fun _ s acc -> Loc.Set.inter acc s)
              last
              (Loc.set_of_universe ~n:st.P.n)
          in
          if Loc.Set.is_empty (Loc.Set.inter common live) then
            P.J_undecided (lazy "stable outputs share no common live location")
          else P.J_sat)

let prop ~k ~n:_ = P.conj [ P.validity (); shape ~k; common_live ]

let spec ~k =
  if k < 1 then invalid_arg "Omega_k.spec: k must be >= 1";
  Afd.of_prop
    ~perm_out:(fun pi -> Loc.Set.map pi)
    ~name:(Printf.sprintf "Omega_%d" k)
    ~pp_out:Loc.pp_set
    (prop ~k)
