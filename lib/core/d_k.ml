open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

(* Accuracy indexed by event position: the pre-state's [len] is the
   0-based index of the event being checked, our stand-in for the
   detector's "real time". *)
let accuracy_after_k ~k =
  P.always ~name:"accuracy-after-k" (fun st e ->
      match e with
      | Fd_event.Output (i, s)
        when st.P.len >= k && not (Loc.Set.subset s st.P.crashed) ->
        Error
          (Fmt.str
             "output %a at %a at position %d (after \"time\" %d) suspects \
              not-yet-crashed %a"
             Loc.pp_set s Loc.pp i st.P.len k
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
                   (P.reasonf "last output at %a misses faulty %a" Loc.pp i
                      Loc.pp_set (Loc.Set.diff faulty s))))
          last P.J_sat)

let prop ~k ~n:_ = P.conj [ P.validity (); accuracy_after_k ~k; completeness ]

let spec ~k =
  Afd.of_prop
    ~perm_out:(fun pi -> Loc.Set.map pi)
    ~name:(Printf.sprintf "D_%d" k)
    ~pp_out:Loc.pp_set
    (prop ~k)

(* Witness for non-closure under constrained reordering, n = 2, no
   crashes.  Original trace ([k-1] padding outputs at p0, then):

     pos k-1 : Output(p1, {p0})   -- inaccurate, but position < k
     pos k   : Output(p0, {})
     pos k+1 : Output(p1, {})

   Accepted: the only inaccurate output sits below position k, last
   outputs are {} at both (live) locations.  Moving the p0 output in
   front of the p1 output is a legal constrained reordering (different
   locations, no crash events), but it pushes the inaccurate output to
   position k, where accuracy is enforced — rejected. *)
let closure_counterexample ~k =
  if k < 1 then invalid_arg "D_k.closure_counterexample: k must be >= 1";
  let pad = List.init (k - 1) (fun _ -> Fd_event.Output (0, Loc.Set.empty)) in
  let original =
    pad
    @ [ Fd_event.Output (1, Loc.Set.singleton 0);
        Fd_event.Output (0, Loc.Set.empty);
        Fd_event.Output (1, Loc.Set.empty);
      ]
  in
  let reordered =
    pad
    @ [ Fd_event.Output (0, Loc.Set.empty);
        Fd_event.Output (1, Loc.Set.singleton 0);
        Fd_event.Output (1, Loc.Set.empty);
      ]
  in
  (original, reordered)
