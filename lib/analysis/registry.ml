type entry =
  | Automaton :
      ('s, 'a) Afd_ioa.Automaton.t * ('s, 'a) Probe.t
      -> entry
  | Composition :
      'a Afd_ioa.Composition.t * ('a Afd_ioa.Composition.state, 'a) Probe.t
      -> entry

type item = { origin : string; entry : entry }

let entry_name = function
  | Automaton (a, _) -> a.Afd_ioa.Automaton.name
  | Composition (c, _) -> Afd_ioa.Composition.name c

let store : item list ref = ref []

let register ~origin entry = store := { origin; entry } :: !store
let items () = List.rev !store
let size () = List.length !store
let reset () = store := []
