open Afd_ioa
module P = Afd_prop.Prop

type out = Loc.Set.t

(* "Every output equals the final faulty set" cannot latch: an output
   that looks wrong now may be proven right by later crashes (that is
   precisely Marabout's prescience).  The fold keeps the distinct
   payloads seen so far with the location of their first occurrence
   (at most 2^n entries) and re-judges them against the current
   crashed-so-far set, which at the end of the trace is the final
   faulty set. *)
let exactness =
  P.folding
    ~perm:(fun pi -> List.map (fun (s, i) -> (Loc.Set.map pi s, pi i)))
    ~cmp:
      (List.compare (fun (s1, i1) (s2, i2) ->
           let c = Loc.Set.compare s1 s2 in
           if c <> 0 then c else Int.compare i1 i2))
    ~name:"exactness" ~init:[]
    ~step:(fun _st seen e ->
      match e with
      | Fd_event.Crash _ -> Ok seen
      | Fd_event.Output (i, s) ->
        if List.exists (fun (s', _) -> Loc.Set.equal s s') seen then Ok seen
        else Ok (seen @ [ (s, i) ]))
    ~judge:(fun st seen ->
      (* One reason for all the offending payloads, joined as [P.j_and]
         would join theirs: the judge runs on every reachable state. *)
      let faulty = st.P.crashed in
      match List.filter (fun (s, _) -> not (Loc.Set.equal s faulty)) seen with
      | [] -> P.J_sat
      | wrong ->
        let differs ppf (s, i) =
          Format.fprintf ppf "output %a at %a differs from final faulty set %a"
            Loc.pp_set s Loc.pp i Loc.pp_set faulty
        in
        P.J_violated (P.reasonf "%a" Fmt.(list ~sep:(any "; ") differs) wrong))

let prop ~n:_ = P.conj [ P.validity (); exactness ]
let spec =
  Afd.of_prop ~perm_out:(fun pi -> Loc.Set.map pi) ~name:"Marabout" ~pp_out:Loc.pp_set
    prop

type refutation = {
  pattern_a : Loc.Set.t;
  pattern_b : Loc.Set.t;
  explanation : string;
}

let refutation ~n =
  if n < 1 then invalid_arg "Marabout.refutation: n must be >= 1";
  { pattern_a = Loc.Set.empty;
    pattern_b = Loc.Set.singleton 0;
    explanation =
      "Under pattern A (no crashes) the first output must be {}; under \
       pattern B (p0 crashes after the first output) it must be {p0}. A \
       deterministic automaton has received no crash input before its first \
       output, so it emits the same set in both runs - contradiction.";
  }

let requires_prediction ~n ~first_output_after =
  (* The mandated first output is faulty(t), which depends on crash
     events occurring after position [first_output_after]; two schedules
     agreeing up to that position but diverging later exist iff some
     location can still crash. *)
  ignore first_output_after;
  n >= 1
