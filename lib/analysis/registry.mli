(** The probe-universe registry: the catalog of subjects the lint
    engine audits.

    Each library section registers its automata and compositions
    together with a {!Probe.t} describing how to sample them; the
    engine then runs every rule over every entry.  The existential
    packing mirrors {!Afd_ioa.Component}: subjects over different
    state types and action alphabets live in one catalog. *)

type entry =
  | Automaton :
      ('s, 'a) Afd_ioa.Automaton.t * ('s, 'a) Probe.t
      -> entry
  | Composition :
      'a Afd_ioa.Composition.t * ('a Afd_ioa.Composition.state, 'a) Probe.t
      -> entry

type item = { origin : string; entry : entry }

val entry_name : entry -> string

val register : origin:string -> entry -> unit
(** Append an entry under the given origin label (the registering
    library section, e.g. ["core"], ["system"], ["consensus"]). *)

val items : unit -> item list
(** Registration order. *)

val size : unit -> int
val reset : unit -> unit
