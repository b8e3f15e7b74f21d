(** Deliberately malformed automata, one per lint rule.

    Each fixture violates exactly the side condition its name (a rule
    id from {!Rules}) refers to, and is otherwise well-formed.  They
    serve two purposes: the test suite asserts that every rule fires on
    its fixture (and that the well-formed witness passes clean), and
    [afd_lint --fixture ID] demonstrates a nonzero exit on demand. *)

type act = Tick of int | Reset | Noise
(** The fixtures' alphabet: [Tick] is locally controlled, [Reset] is an
    input, [Noise] is outside every fixture's signature. *)

val counter : name:string -> limit:int -> (int, act) Afd_ioa.Automaton.t
(** A well-formed counter: one fair task ticks up to [limit], [Reset]
    restarts.  Building block for the fixtures and the library-level
    check tests. *)

val listener : (int, act) Afd_ioa.Automaton.t
(** A taskless automaton with [Tick] as an input, compatible with a
    single [counter] in a composition. *)

val well_formed : Registry.entry
(** A small well-formed counter automaton; the lint finds nothing. *)

val all : (string * Registry.entry) list
(** [(rule_id, fixture)] pairs: linting the fixture yields at least one
    finding of rule [rule_id]. *)

val mc : (string * Registry.entry) list
(** Fixtures for the graph rules ({!Rules.mc}), same convention as
    {!all}: a non-quiescent stuck state for [deadlock], a visibly racing
    task pair for [race-pair], a never-firing in-signature action for
    [dead-transition], a fair all-internal cycle for [livelock], and a
    terminal SCC that admits no fair execution for
    [unsatisfiable-fairness-obligation]. *)

val harmless_cycle : Registry.entry
(** The same fair two-state cycle as the [livelock] fixture but with
    {e output} ticks: visibly productive, so the livelock rule (and
    every other rule) must stay silent on it. *)

val symmetry : (string * Registry.entry) list
(** Fixtures for the symmetry rules ({!Rules.symmetry}), same
    convention: a min-based suspector whose declared S_2 action breaks
    for [symmetry-breaking-state], and an equivariant suspector with
    no declared action for [uncertified-symmetry].  Lint them with the
    engine's [~symmetry:true] — without it both rules are silent by
    design. *)

val symmetry_certifiable : Registry.entry
(** The equivariant suspector {e with} its S_2 action declared: the
    analyzer certifies it, the exploration quotients, and both
    symmetry rules must stay silent. *)

val find : string -> Registry.entry option
(** Searches {!all}, {!mc} and {!symmetry}. *)
