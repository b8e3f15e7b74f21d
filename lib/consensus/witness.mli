(** The bounded-problem witness automaton U for consensus
    (Section 7.3).

    [U] is a single (non-distributed) automaton solving binary
    consensus: it latches the first proposed value and, at each
    not-yet-crashed location that has not decided, offers a decide
    output of the latched value.  It is {e crash independent} (crashes
    only suppress future outputs; deleting crash events from any finite
    trace leaves a trace of U) and has {e bounded length} (at most [n]
    decide events) — certifying that consensus is a bounded problem,
    the hypothesis of Theorem 21. *)

open Afd_ioa
open Afd_system

type state

val automaton : n:int -> (state, Act.t) Automaton.t

val output_bound : n:int -> int
(** The bound [b] of the bounded-length property: [n]. *)

val sample_traces : n:int -> seeds:int list -> steps:int -> Act.t list list
(** Fair traces of U composed with the crash automaton and E_C, for
    feeding the {!Afd_core.Bounded_problem} checkers. *)
