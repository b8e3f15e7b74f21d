open Afd_ioa

type packed =
  | P : {
      aut : ('s, 'a) Automaton.t;
      probe : ('s, 'a) Probe.t;
      space : ('s, 'a) Space.t Lazy.t;
      live : Live.t Lazy.t;
      symm : Symm.verdict Lazy.t option;
      quotiented : bool Lazy.t;
    }
      -> packed

type t = {
  origin : string;
  entry : Registry.entry;
  name : string;
  packed : packed;
}

let make ?(por = false) ?max_states ?(symmetry = false) ~origin entry =
  let with_cap p =
    match max_states with None -> p | Some m -> { p with Probe.max_states = m }
  in
  let pack a p =
    (* Orbit quotienting is gated on the certificate, and the quotient
       run that certifies is the shared exploration: a breaking or
       undeclared subject explores unreduced instead (and the symmetry
       rules report why). *)
    let quotient =
      if not symmetry then None
      else
        Some
          (lazy
            (match Symm.prepare a p with
            | Error v -> (v, None)
            | Ok q -> (
              match Symm.explore ~por q with
              | Ok (c, sp) -> (Symm.Certified c, Some sp)
              | Error w -> (Symm.Breaking w, None))))
    in
    let quotient_space = lazy (Option.bind quotient (fun q -> snd (Lazy.force q))) in
    let space =
      lazy
        (match Lazy.force quotient_space with
        | Some sp -> sp
        | None -> Space.explore ~por a p)
    in
    P
      { aut = a;
        probe = p;
        space;
        live = lazy (Live.analyze a (Lazy.force space));
        symm = Option.map (Lazy.map fst) quotient;
        quotiented = lazy (Option.is_some (Lazy.force quotient_space));
      }
  in
  let packed =
    match entry with
    | Registry.Automaton (a, p) -> pack a (with_cap p)
    | Registry.Composition (c, p) ->
      (* Composition states hold closures, on which the probe's default
         structural equality would bail out: flatten with the
         componentwise equality and its congruent hash. *)
      let a = Composition.as_automaton c in
      let p =
        with_cap
          { p with
            Probe.equal_state = Composition.equal_state;
            hash_state = Some Composition.hash_state;
          }
      in
      pack a p
  in
  { origin; entry; name = Registry.entry_name entry; packed }

let symm_verdict t =
  let (P { symm; _ }) = t.packed in
  Option.map Lazy.force symm

let quotiented t =
  let (P { quotiented = q; _ }) = t.packed in
  Lazy.force q

let exploration t =
  let (P { space = sp; _ }) = t.packed in
  if not (Lazy.is_val sp) then None
  else
    let sp = Lazy.force sp in
    Some
      { Report.explored = t.name;
        exp_origin = t.origin;
        states = Array.length sp.Space.states;
        transitions = sp.Space.stats.Space.transitions;
        verdict = Space.verdict_string sp.Space.verdict;
        exhaustive = sp.Space.verdict = Space.Exhausted;
        por = sp.Space.por;
        slept = sp.Space.stats.Space.slept;
      }
