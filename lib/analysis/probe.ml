(* One declared state field, for the symmetry analyzer's classification:
   the analyzer infers whether the field's content is identity-independent
   (invariant under every permutation), process-indexed (transported by
   [f_perm]), or symmetry-breaking (neither) — the declaration only says
   how a permutation *would* act on the field, never that it does. *)
type 's sym_field =
  | F : {
      f_name : string;
      f_proj : 's -> 'f;
      f_perm : (int -> int) -> 'f -> 'f;
      f_equal : 'f -> 'f -> bool;
    }
      -> 's sym_field

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
  actions : 'a list;
  seed_states : 's list;
  equal_action : 'a -> 'a -> bool;
  equal_state : 's -> 's -> bool;
  hash_state : ('s -> int) option;
  pp_action : 'a Fmt.t;
  max_states : int;
  rename_roundtrip : ('a -> 'a option) option;
  base_kind : ('a -> Afd_ioa.Automaton.kind option) option;
  symm : ('s, 'a) symmetry option;
}

(* Structural equality that never raises: states/actions containing
   abstract blocks (closures) compare unequal, which only makes the
   reachable-state sample larger, never wrong. *)
let structural a b = try Stdlib.compare a b = 0 with Invalid_argument _ -> false

let make ?(seed_states = []) ?(equal_action = structural) ?equal_state ?hash_state
    ?(pp_action = Fmt.any "<action>") ?(max_states = 96) ?rename_roundtrip ?base_kind
    ?symm actions =
  (* A hash is only safe when it is a congruence for the state equality:
     with the default structural equality, [Hashtbl.hash] qualifies; a
     caller-supplied equality needs a matching caller-supplied hash,
     otherwise the explorer falls back to a single bucket (exact, just
     slower). *)
  let hash_state =
    match (hash_state, equal_state) with
    | (Some _ as h), _ -> h
    | None, None -> Some Hashtbl.hash
    | None, Some _ -> None
  in
  let equal_state = Option.value ~default:structural equal_state in
  { actions;
    seed_states;
    equal_action;
    equal_state;
    hash_state;
    pp_action;
    max_states;
    rename_roundtrip;
    base_kind;
    symm;
  }
