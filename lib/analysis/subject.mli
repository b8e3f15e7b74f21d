(** A lint subject: a registry item packed with one shared (lazy)
    state-space exploration.

    A [Subject.t] flattens compositions once
    ({!Composition.as_automaton}, with the componentwise state equality
    {e and} its congruent hash) and memoizes a single exploration that
    all rules share; the exploration (with its {!Space.verdict}) is
    surfaced in the report only if some rule actually forced it.  A
    subject explores on {!Space.explore}, or, when its declared symmetry certifies, on the
    {!Symm.explore} run that certified it. *)

open Afd_ioa

(** Uniform automaton view: the automaton, its probe, the shared lazy
    exploration, and the shared lazy {!Live} condensation over it (the
    SCC/fairness analysis all graph rules and liveness verdicts draw
    from — computed once per subject, like the exploration itself). *)
type packed =
  | P : {
      aut : ('s, 'a) Automaton.t;
      probe : ('s, 'a) Probe.t;
      space : ('s, 'a) Space.t Lazy.t;
      live : Live.t Lazy.t;
      symm : Symm.verdict Lazy.t option;
          (** the equivariance verdict, when the engine ran with
              symmetry on; forcing it runs the quotient exploration
              that certifies *)
      quotiented : bool Lazy.t;
          (** whether the shared exploration is orbit-quotiented —
              true exactly when the declared symmetry certified, and
              then the shared exploration {e is} the run that
              certified it.  Absence-style rules (dead-task,
              dead-transition, livelock, unsatisfiable fairness) skip
              themselves on a quotient, as under POR. *)
    }
      -> packed

type t = {
  origin : string;
  entry : Registry.entry;
  name : string;
  packed : packed;
}

val make :
  ?por:bool ->
  ?max_states:int ->
  ?symmetry:bool ->
  origin:string ->
  Registry.entry ->
  t
(** [max_states] overrides the probe's own exploration cap;
    [por] (default [false]) turns on the sleep-set reduction for the
    shared exploration (edge-granular rules then skip themselves — see
    {!Rules.mc}).

    [symmetry] (default [false]) explores each subject's orbit
    quotient with {!Symm.explore}, at the same [por]: a subject that
    certifies is explored once, by that run, which is its shared
    exploration; a breaking or undeclared one explores unreduced, and
    the symmetry rules ({!Rules.symmetry}) report the verdict. *)

val symm_verdict : t -> Symm.verdict option
(** The equivariance verdict; [None] when the engine ran without
    symmetry.  Forces the (bounded) quotient exploration. *)

val quotiented : t -> bool
(** Whether the shared exploration runs on orbit representatives
    (certified symmetry only).  Forces the quotient exploration, not
    an unreduced one. *)

val exploration : t -> Report.exploration option
(** The exploration summary, only if some rule forced it ([None] for
    subjects no rule explored). *)
