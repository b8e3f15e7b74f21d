(** The three defining operations on failure-detector traces
    (Section 3.2): validity, sampling, and constrained reordering.

    Each comes as a checker (used to verify the definitions on concrete
    traces) and, for the two closure operations, a seeded random
    generator (used by the property tests of closure under sampling and
    closure under constrained reordering).

    {b Finite-trace semantics.}  The paper's definitions concern
    infinite sequences.  On finite prefixes we use:
    - validity clause (1) — no outputs after a crash at the same
      location — is checked exactly (it is a safety property);
    - validity clause (2) — infinitely many outputs at live locations —
      is read under limit extension as "every live location has an
      output", reported as [Undecided] when unmet.

    Payloads compare structurally ({!Afd.spec}'s contract). *)


val validity : n:int -> 'o Fd_event.t list -> Verdict.t
(** {!Afd_prop.Prop.validity} replayed over the trace. *)

val is_sampling : of_:'o Fd_event.t list -> 'o Fd_event.t list -> bool
(** [is_sampling ~of_:t t'] — Section 3.2: [t'] is a
    subsequence of [t]; live locations keep all their outputs; each
    faulty location keeps its first crash event and a prefix of its
    outputs. *)

val gen_sampling : Random.State.t -> 'o Fd_event.t list -> 'o Fd_event.t list
(** A random sampling of the given trace: drops a random suffix of
    outputs at each faulty location and randomly drops duplicate crash
    events (the first crash at each location is always kept). *)

val is_constrained_reordering : of_:'o Fd_event.t list -> 'o Fd_event.t list -> bool
(** [is_constrained_reordering ~of_:t t'] — Section 3.2:
    [t'] is a permutation of [t] preserving (1) the relative order of
    same-location events and (2) the order between any crash event and
    any event that follows it. *)

val gen_reordering : Random.State.t -> 'o Fd_event.t list -> 'o Fd_event.t list
(** A random constrained reordering: a uniform-ish random linear
    extension of the partial order induced by the two constraints. *)

val count_reorderings_upto : limit:int -> 'o Fd_event.t list -> int
(** Number of distinct constrained reorderings of the trace, counted by
    exhaustive enumeration but capped at [limit] (used by tests and the
    bench that sizes the closure space). *)
