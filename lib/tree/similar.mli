(** The similar-modulo-i relation on tree nodes (Section 8.3).

    [N ∼i N'] holds when only the crashed process at [i] could
    distinguish the two configurations: (1) [crash_i] occurred in both
    executions; (2) all processes at [j ≠ i] have equal states; (3) all
    channels between locations other than [i] are equal; (4) each
    channel {e out of} [i] holds, in [N], a prefix of what it holds in
    [N']; (5) the environment automata at [j ≠ i] are equal; (6) the
    remaining FD sequences are equal.  (Channels {e into} [i] and the
    process at [i] are unrestricted — nobody live reads them.)

    Lemma 39: if [N ∼i N'] then for every label [l], either
    [N^l ∼i N'] or [N^l ∼i N'^l].  Theorem 40 follows by induction.
    {!check_lemma39} verifies the lemma on a concrete pair;
    {!candidate_pairs} harvests nontrivial related pairs from the
    graph (a delivery into the crashed location leaves the node
    ∼i-related to its successor). *)

open Afd_ioa

type ctx
(** Preprocessed tree: component classification by location, per-node
    channel queues (replayed along the exploration's BFS-parent edges)
    and the crash history (the crashes of [t_D] before the node's
    position). *)

val make_ctx : Tagged_tree.t -> n:int -> ctx

val similar_mod : ctx -> i:Loc.t -> int -> int -> bool
(** [similar_mod ctx ~i id id'] decides [N ∼i N'] for quotient nodes. *)

val check_lemma39 : ctx -> i:Loc.t -> int -> int -> (unit, string) result
(** Verify Lemma 39's disjunction for every label at the given related
    pair; [Error] describes the first label where both disjuncts
    fail. *)

val candidate_pairs : ctx -> i:Loc.t -> limit:int -> (int * int) list
(** Nontrivial ∼i-related pairs [(N, N')] where [N'] is [N]'s child
    via a delivery into the crashed [i] (plus the diagonal pair of the
    first post-crash node, for reflexivity coverage). *)
