(** Automata implementing AFDs (Algorithms 1 and 2 of the paper), the
    crash automaton, and a trace generator.

    These automata act on the alphabet ['o Fd_event.t]: crash events
    are their inputs, detector outputs their outputs.  Composed with
    the crash automaton they form closed systems whose fair traces are
    (per the paper's claims, verified by our tests) contained in the
    corresponding AFD's trace set.

    The [fd_perfect] automaton adds the guard [i ∉ crashset] to the
    output precondition of the paper's Algorithm 2.  As printed, the
    algorithm would keep producing [FD-P(S)_i] events after [crash_i],
    violating the validity property its own Section 3.2 requires; the
    guard matches Algorithm 1's treatment and is evidently the intent
    (see DESIGN.md, "errata"). *)

open Afd_ioa

val crash_automaton : n:int -> crashable:Loc.Set.t -> (Loc.Set.t, 'o Fd_event.t) Automaton.t
(** The crash automaton (Section 4.4): one {e unfair} task per location
    of [crashable], each emitting [Crash i] once.  Which crashes
    actually occur, and when, is decided by the scheduler's forced
    firings — realizing one fault pattern per run. *)

val fd_omega : n:int -> (Loc.Set.t, Loc.t Fd_event.t) Automaton.t
(** Algorithm 1: at every non-crashed location, continually output
    [min (Pi \ crashset)].  State: the crash set. *)

val fd_perfect : n:int -> (Loc.Set.t, Loc.Set.t Fd_event.t) Automaton.t
(** Algorithm 2 (with the erratum guard): at every non-crashed
    location, continually output the current crash set. *)

(** {2 Truthful automata for the rest of the catalog}

    Each follows the Algorithm 1/2 shape — state is the crash set,
    every live location continually outputs a function of it — and its
    fair traces lie in the corresponding AFD's trace set (verified by
    tests).  Where noted, correctness needs a bound on the number of
    crashes in the fault pattern. *)

val fd_sigma : n:int -> (Loc.Set.t, Loc.Set.t Fd_event.t) Automaton.t
(** Outputs the quorum [Pi \ crashset].  In T_Σ whenever at least one
    location stays live (quorums always contain every live location). *)

val fd_anti_omega : n:int -> (Loc.Set.t, Loc.t Fd_event.t) Automaton.t
(** Spares the smallest live location by naming the smallest {e other}
    location (which may be crashed — anti-Ω has no accuracy clause).
    In T_anti-Ω whenever at least one location stays live; the old
    max-live choice failed with a single live location (it named it
    forever), a corner the fair-cycle model checker refutes. *)

val fd_omega_k : n:int -> k:int -> (Loc.Set.t, Loc.Set.t Fd_event.t) Automaton.t
(** Outputs the [k] smallest locations of [Pi \ crashset], padded with
    the smallest crashed ones if fewer remain.  In T_Ωk whenever at
    least one location stays live. *)

val fd_psi_k : n:int -> k:int -> (Loc.Set.t, Loc.Set.t Fd_event.t) Automaton.t
(** Same output as [fd_omega_k]; since all locations compute it from
    the same crash set, the outputs converge to one common set — in
    T_Ψk under the same condition. *)

(** {2 Liveness-broken detectors}

    Deliberately broken {e only} in the limit: every finite prefix is
    safe, so no seeded schedule in the CHECK matrix can catch them —
    they exist to exercise {!Afd_analysis.Mc}'s fair-cycle (lasso)
    refutations. *)

val fd_flip_flop : n:int -> (Loc.Set.t * bool, Loc.t Fd_event.t) Automaton.t
(** Alternates between electing the smallest and the largest live
    location on every output.  Each output names a live leader, but
    with two or more live locations the assignment never converges:
    Ω's [stable-leader] is violated along a fair cycle while
    [validity.liveness] still holds. *)

val fd_silent : n:int -> (Loc.Set.t, Loc.Set.t Fd_event.t) Automaton.t
(** Only location 0 ever outputs (the accurate crash set); all other
    locations stay silent forever.  Safe on every prefix against P,
    but the fair cycle firing [fd_0] alone (the silent locations' fd
    tasks are disabled, so weak fairness is vacuous) keeps
    [validity.liveness] — and P's [completeness] — pending forever. *)

type 'o noise = 'o list Loc.Map.t
(** Finite scripted "wrong" outputs per location, consumed before the
    automaton converges to its truthful output.  Produces richer traces
    for the closure property tests while still satisfying the eventual
    clauses of ◇P, Ω, etc. *)

val noise_of_list : (Loc.t * 'o) list -> 'o noise

val fd_omega_noisy :
  n:int -> noise:Loc.t noise -> (Loc.Set.t * Loc.t noise, Loc.t Fd_event.t) Automaton.t
(** Like [fd_omega] but each location first emits its scripted noise
    leaders; still satisfies T_Ω (noise is finite). *)

val fd_ev_perfect_noisy :
  n:int ->
  noise:Loc.Set.t noise ->
  (Loc.Set.t * Loc.Set.t noise, Loc.Set.t Fd_event.t) Automaton.t
(** A ◇P implementation exhibiting transient false suspicions: each
    location first emits its scripted noise sets, then converges to the
    exact crash set.  Satisfies T_◇P but generally not T_P. *)

val generate_trace :
  detector:('s, 'o Fd_event.t) Automaton.t ->
  n:int ->
  seed:int ->
  crash_at:(int * Loc.t) list ->
  steps:int ->
  'o Fd_event.t list
(** Compose the detector with the crash automaton, run a fair random
    schedule of [steps] steps with the given fault pattern (location
    [i] is crashed at global step [k] for each [(k, i)]), and return
    the resulting FD trace, read off the fired sequence. *)

val run_monitored :
  ?record_fired:bool ->
  observe:('o Fd_event.t -> unit) ->
  detector:('s, 'o Fd_event.t) Automaton.t ->
  n:int ->
  seed:int ->
  crash_at:(int * Loc.t) list ->
  steps:int ->
  unit ->
  'o Fd_event.t Scheduler.outcome
(** The same composed system and schedule as {!generate_trace}, but
    streaming: [observe] is called with each FD event as it fires
    (e.g. [Afd_prop.Monitor.observe m]), in exactly the order
    {!generate_trace} would list it — online monitor verdicts
    therefore coincide with offline replay of the generated trace.
    [record_fired] defaults to [false], so the run's live memory
    beyond the observer's own does not grow with [steps]. *)
