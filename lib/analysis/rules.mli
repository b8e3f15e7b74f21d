(** The initial rule set of the model linter.

    Every rule enforces a structural side condition that the paper's
    theorems assume (Sections 2.3–2.5, 4.4, 5.3); an automaton that
    violates one can silently invalidate an experiment, which is why
    the whole catalog is audited by [afd_lint] under [dune runtest].

    - [probe-coverage] (warning) — a registered subject with an empty
      action probe universe was not actually checked (the silent-pass
      fix for the old sampled probes);
    - [input-enabled] (error, §2.1) — a probed input action is disabled
      in a reachable sampled state;
    - [task-determinism] (error, §2.5) — two tasks enable the same
      action in one state;
    - [step-signature] (error, §2.1) — the step relation accepts an
      action whose [kind_of] is [None];
    - [task-signature] (error, §2.5) — a task enables an action that is
      an input or outside the signature (tasks partition the locally
      controlled actions);
    - [enabled-consistency] (error, §2.5) — a task enables an action
      the step relation then rejects;
    - [dual-control] (error, §2.3) — a probed action is controlled by
      two components of a composition;
    - [internal-leakage] (error, §2.3) — a probed action is internal to
      one component yet in another component's signature;
    - [dead-task] (warning, §2.4) — a fair task of a standalone
      automaton is never enabled on any explored reachable state;
    - [unfair-task] (warning, §4.4) — a task without a fairness
      obligation outside the crash automaton (only the crash
      automaton's tasks are exempt from fairness);
    - [rename-roundtrip] (error, §2.3/§5.3) — an action renaming whose
      [to_ ∘ of_] is not the identity on a probed in-signature action;
    - [hiding] (error, §2.3) — a hiding that changes the signature
      other than reclassifying outputs as internal.

    Rules whose message asserts something "for all reachable states"
    ([dead-task], [reachable-input-enabled], [dead-transition]) carry
    the exploration's {!Space.verdict} in their message, so a truncated
    sample is never silently presented as a proof. *)

val all : Rule.t list
(** The full rule set, in documentation order. *)

val ids : string list

(** {1 Graph rules}

    The [--mc] set: rules over the explored transition {e graph} (not
    just the state list), run by [afd_lint --mc] alongside {!all}:

    - [reachable-input-enabled] (error, §2.1) — an input action refused
      in a reachable state, with the exploration verdict (an actual
      proof of input-enabledness when [Exhausted]);
    - [deadlock] (error, §2.4) — a non-quiescent reachable state (some
      fair task claims an enabled action) in which the step relation
      rejects every enabled action: the scheduler stalls there forever;
    - [race-pair] (info, §2.5) — two concurrently enabled tasks whose
      moves do not commute (per {!Space.commute}); report-only, since
      observable interleaving is often intended.  Symmetric pairs are
      deduplicated (reported once per unordered pair) and each finding
      says whether the race recurs — its state lies in a cycle-capable
      SCC of the {!Live} condensation — or is transient;
    - [dead-transition] (info, §2.1) — an in-signature probed action
      labelling no edge of the graph, found in one shared
      {!Live.fired_actions} pass; claimed only when the exploration
      is [Exhausted] and unreduced (under truncation or POR an untaken
      action proves nothing);
    - [livelock] (warning, §2.4) — a weakly fair cycle firing internal
      actions only: the scheduler can spin there forever without any
      output.  A positive fact about real edges, so reported even on a
      truncated graph (skipped only under POR, which drops edges);
    - [unsatisfiable-fairness-obligation] (error, §2.4) — a terminal
      SCC in which some fair task neither fires on any internal edge
      nor is ever disabled, and no member is a fair stop: the task
      structure admits {e no} fair execution once the SCC is entered.
      An absence claim, so gated on an [Exhausted] unreduced graph. *)

val mc : Rule.t list
val mc_ids : string list

(** {1 Symmetry rules}

    The [--symmetry] set, meaningful only when the engine ran with
    [~symmetry:true] (otherwise {!Subject.symm_verdict} is [None] and
    both rules stay silent):

    - [symmetry-breaking-state] (info, §2.1) — the subject declares an
      S_n action ({!Probe.t}[.symm]) but the {!Symm} analyzer found a
      concrete equivariance failure; the finding carries the witness
      (permutation, state index, and the offending field, task or
      action) and the subject explores unreduced;
    - [uncertified-symmetry] (info, §2.1) — symmetry was requested but
      the subject declares no usable S_n action, so the exploration
      fell back to unreduced.

    Both are info-severity: an asymmetric subject is a missed
    optimization, never a defect. *)

val symmetry : Rule.t list
val symmetry_ids : string list
