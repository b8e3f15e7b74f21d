open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

(* Intersection is a safety clause over pairs of outputs at arbitrary
   times; online it suffices to keep the set of distinct quorums seen
   so far (at most 2^n for fixed n, so O(1) in the trace length) and
   test each new quorum against them.  A repeated quorum must also be
   tested against itself: two occurrences of a self-disjoint (empty)
   quorum form a violating pair. *)
let intersection =
  P.folding
    ~perm:(fun pi -> List.map (Loc.Set.map pi))
    ~cmp:(List.compare Loc.Set.compare) ~name:"intersection" ~init:[]
    ~step:(fun _st seen e ->
      match e with
      | Fd_event.Crash _ -> Ok seen
      | Fd_event.Output (_, q) -> (
        let fresh = not (List.exists (Loc.Set.equal q) seen) in
        match
          List.find_opt (fun q' -> Loc.Set.is_empty (Loc.Set.inter q' q)) seen
        with
        | Some q' ->
          Error (Fmt.str "disjoint quorums %a and %a" Loc.pp_set q' Loc.pp_set q)
        | None -> if fresh then Ok (seen @ [ q ]) else Ok seen))
    ~judge:(fun _st _seen -> P.J_sat)

let completeness =
  P.eventually_stable ~name:"completeness" (fun st ->
      match P.last_outputs st with
      | Error u -> P.J_undecided (lazy u)
      | Ok (last, live) ->
        Loc.Map.fold
          (fun i q acc ->
            if Loc.Set.subset q live then acc
            else
              P.j_and acc
                (P.J_undecided
                   (P.reasonf "last quorum at %a contains faulty %a" Loc.pp i
                      Loc.pp_set (Loc.Set.diff q live))))
          last P.J_sat)

let prop ~n:_ = P.conj [ P.validity (); intersection; completeness ]
let spec =
  Afd.of_prop ~perm_out:(fun pi -> Loc.Set.map pi) ~name:"Sigma" ~pp_out:Loc.pp_set prop
