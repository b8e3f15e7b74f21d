(** Congruence harness: the mega discipline against the boxed
    [Scheduler]/[Afd_automata.run_system] path.

    At small n with full connectivity the catalog's truthful detectors
    are pure functions of the crash set, so the whole composed
    fd-system state packs into one int (the crash bitmask, plus one
    aux bit for the flip-flop detector) and a step touches only the
    fired task — the mega engine's flat-state, O(touched) discipline.
    This module runs that compiled system under a draw-for-draw
    replica of [Scheduler.run]'s [Random] policy (same RNG stream,
    same starvation backstop, same forced-crash consumption, same
    idle-stepping and quiescence rule), so its fired event sequence
    must be {e identical} to [Afd_automata.generate_trace] — the
    qcheck differential in the test suite asserts exactly that, and
    that the spec verdicts agree, across every detector kind, seed,
    fault pattern and step budget it generates. *)

open Afd_ioa
open Afd_core

type kind =
  | Perfect
  | Sigma
  | Omega
  | Anti_omega
  | Omega_k of int
  | Psi_k of int
  | Silent
  | Flip_flop

val name : kind -> string

val leader_valued : kind -> bool
(** Leader-valued kinds ([Omega], [Anti_omega], [Flip_flop]) output a
    location; the rest output location sets. *)

val reference_set :
  kind -> n:int -> seed:int -> crash_at:(int * Loc.t) list -> steps:int -> Loc.Set.t Fd_event.t list
(** [Afd_automata.generate_trace] of the matching catalog automaton —
    the boxed reference the mega run must equal (set-valued kinds). *)

val reference_leader :
  kind -> n:int -> seed:int -> crash_at:(int * Loc.t) list -> steps:int -> Loc.t Fd_event.t list

type 'o outcome = {
  trace : 'o Fd_event.t list;
  quiescent : bool;
  steps_taken : int;
}

val run_set :
  kind -> n:int -> seed:int -> crash_at:(int * Loc.t) list -> steps:int -> Loc.Set.t outcome
(** Mega-style run of a set-valued kind.  Raises [Invalid_argument] on
    leader-valued kinds, [n] outside [1..9] (the forced-pattern
    replica needs single-digit task names), or negative steps. *)

val run_leader :
  kind -> n:int -> seed:int -> crash_at:(int * Loc.t) list -> steps:int -> Loc.t outcome

val spec_verdict_set : kind -> n:int -> Loc.Set.t Fd_event.t list -> Verdict.t
(** Verdict of the matching catalog spec on a trace. *)

val spec_verdict_leader : kind -> n:int -> Loc.t Fd_event.t list -> Verdict.t
