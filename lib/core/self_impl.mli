(** Algorithm 3: self-implementability of AFDs (Section 6).

    [A^self] is a distributed algorithm that uses an AFD [D] to solve a
    renaming [D'] of [D]: at each location it buffers [D]'s outputs in
    a FIFO queue [fdq] and re-emits them under the renamed action, and
    a crash permanently disables the renamed outputs.  Theorem 13: for
    every fair trace [t] of the composed system, if [t|Î∪O_D ∈ T_D]
    then [t|Î∪O_D' ∈ T_D'].

    The combined alphabet carries both the original events and the
    renamed outputs. *)

open Afd_ioa

type 'o act =
  | Orig of 'o Fd_event.t  (** crash events and D's outputs *)
  | Renamed of Loc.t * 'o  (** D''s outputs: [rIO] applied to D's *)

val pp_act : 'o Fmt.t -> 'o act Fmt.t

type 'o state = { fdq : 'o list; failed : bool }

val self_automaton : loc:Loc.t -> ('o state, 'o act) Automaton.t
(** [A^self_i]: Algorithm 3's automaton at location [loc]. *)

type 'o run = {
  combined : 'o act list;  (** full trace of the composed system *)
  original : 'o Fd_event.t list;  (** [t|Î∪O_D] *)
  renamed : 'o Fd_event.t list;
      (** [t|Î∪O_D'] mapped back through [rIO⁻¹] so both can be checked
          against the same spec *)
}

val run :
  detector:('s, 'o Fd_event.t) Automaton.t ->
  n:int ->
  seed:int ->
  crash_at:(int * Loc.t) list ->
  steps:int ->
  'o run
(** Compose [detector], the crash automaton and the [n] [A^self]
    automata; drive a fair random schedule with the given fault
    pattern; return the two projections of Theorem 13. *)

val check_theorem13 :
  spec:'o Afd.spec ->
  detector:('s, 'o Fd_event.t) Automaton.t ->
  n:int ->
  seed:int ->
  crash_at:(int * Loc.t) list ->
  steps:int ->
  (unit, string) result
(** Run and verify: if the original projection is accepted by [spec],
    the renamed projection must be too. *)
