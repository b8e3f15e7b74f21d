(** Probe universes: the finite samples over which the lint rules audit
    a (possibly infinite-state, infinite-alphabet) automaton.

    Signatures in this repository are predicates over possibly infinite
    action sets, so none of the paper's side conditions is decidable in
    general.  A probe universe makes the check mechanical anyway: a set
    of representative actions, optional extra seed states (reachable
    states are sampled by bounded exploration from the start state, see
    {!Space}), and the equalities needed to compare states and
    actions.  Registering an automaton with a dishonest probe universe
    weakens the lint, never the automaton — the rules report a
    [Warning] when a universe is empty rather than silently passing. *)

(** One declared state field for the symmetry analyzer ({!Symm}): a
    name, a projection, how a process permutation {e would} transport
    the field's content, and an equality to compare transported
    contents.  The analyzer {e infers} the classification
    (identity-independent / process-indexed / symmetry-breaking); the
    declaration never asserts it. *)
type 's sym_field =
  | F : {
      f_name : string;
      f_proj : 's -> 'f;
      f_perm : (int -> int) -> 'f -> 'f;
      f_equal : 'f -> 'f -> bool;
    }
      -> 's sym_field

(** How the symmetric group S_n acts on an automaton's states and
    actions.  Declaring a symmetry never asserts equivariance — the
    {!Symm} analyzer checks the step/enabledness/signature functions
    against the declared action and either certifies the subject or
    produces a concrete breaking witness. *)
type ('s, 'a) symmetry = {
  sy_n : int;  (** the process universe the permutations act on *)
  sy_state : (int -> int) -> 's -> 's;
  sy_action : (int -> int) -> 'a -> 'a;
  sy_cmp : 's -> 's -> int;
      (** total order on states, congruent with [equal_state]
          ([sy_cmp a b = 0] iff [equal_state a b]) — the orbit
          canonicalizer takes the minimum of a state's orbit under it *)
  sy_fields : 's sym_field list;
}

type ('s, 'a) t = {
  actions : 'a list;  (** representative actions, inputs and outputs alike *)
  seed_states : 's list;  (** extra exploration seeds besides the start state *)
  equal_action : 'a -> 'a -> bool;
  equal_state : 's -> 's -> bool;
  hash_state : ('s -> int) option;
      (** A hash consistent with [equal_state] (equal states must hash
          alike); drives the {!Space} explorer's hashed seen-set.
          [None] means no congruent hash is known and the explorer
          degrades to a single bucket (exact, quadratic). *)
  pp_action : 'a Fmt.t;
  max_states : int;  (** cap on the bounded state exploration *)
  rename_roundtrip : ('a -> 'a option) option;
      (** For automata built by {!Afd_ioa.Automaton.rename} (or a
          wrapper such as [Fd_bridge.lift]): the composition
          [to_ ∘ of_].  The bijection sanity rule demands that it be
          the identity on every probed in-signature action. *)
  base_kind : ('a -> Afd_ioa.Automaton.kind option) option;
      (** For automata built by {!Afd_ioa.Automaton.hide}: the
          signature of the unhidden base.  The hiding sanity rule
          demands that hiding only reclassifies outputs as internal. *)
  symm : ('s, 'a) symmetry option;
      (** Declared S_n action for the symmetry analyzer; [None] means
          the subject cannot be certified and always explores
          unreduced. *)
}

val make :
  ?seed_states:'s list ->
  ?equal_action:('a -> 'a -> bool) ->
  ?equal_state:('s -> 's -> bool) ->
  ?hash_state:('s -> int) ->
  ?pp_action:'a Fmt.t ->
  ?max_states:int ->
  ?rename_roundtrip:('a -> 'a option) ->
  ?base_kind:('a -> Afd_ioa.Automaton.kind option) ->
  ?symm:('s, 'a) symmetry ->
  'a list ->
  ('s, 'a) t
(** Defaults: no seed states, structural equality (total — comparison
    failures on abstract values compare unequal, which only makes the
    exploration more conservative), a ["<action>"] printer, and a
    96-state exploration cap.

    [hash_state] defaults to [Hashtbl.hash] when [equal_state] is left
    structural (the two are congruent), and to [None] when a custom
    [equal_state] is supplied without a matching hash — supply both to
    keep the hashed seen-set fast on semantic equalities such as
    [Loc.Set.equal]. *)
