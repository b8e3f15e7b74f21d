(** Environment automata (Sections 4.5 and 9.2).

    [consensus_at] is the paper's Algorithm 4: the automaton E_{C,i}
    with output actions [propose(0)_i], [propose(1)_i] (one task each),
    inputs [decide(-)_i] and [crash_i], and a [stop] flag set by the
    first propose or by the crash.  The composition of the E_{C,i} is
    the well-formed environment E_C of Theorem 44.

    Because both propose tasks are simultaneously enabled initially,
    the choice of input value rests with the scheduler — matching the
    [Env_{i,v}] edges of the execution tree (Section 9.4). *)

open Afd_ioa

type state = { stop : bool; proposed : bool option; decided : bool option }
(** Besides Algorithm 4's [stop] flag we record what was proposed and
    decided at this location — pure observation used by tests. *)

val consensus_at : Loc.t -> (state, Act.t) Automaton.t
(** E_{C,i} (Algorithm 4). *)

val consensus : n:int -> Act.t Component.t list
(** The full E_C: one E_{C,i} per location. *)

val scripted_at : Loc.t -> value:bool -> (state, Act.t) Automaton.t
(** A deterministic variant whose single task proposes the given value
    — used when an experiment needs a fixed input assignment rather
    than a scheduler-chosen one. *)

val scripted : values:bool list -> Act.t Component.t list
(** One scripted environment automaton per location; [values] must
    have length [n]. *)

val of_values : n:int -> bool list option -> Act.t Component.t list
(** The environment of a consensus net: [scripted ~values:vs] for
    [Some vs], the full E_C ([consensus ~n]) for [None]. *)
