(** The lint engine: run a rule set over registry items.

    Each item is wrapped in a {!Subject.t}, so all rules on one subject
    share a single memoized state-space exploration; the explorations
    (with completeness verdicts) land in the report's
    [Report.explorations]. *)

val run :
  ?rules:Rule.t list ->
  ?max_states:int ->
  ?por:bool ->
  ?symmetry:bool ->
  Registry.item list ->
  Report.t
(** Defaults to {!Rules.all}.  [max_states] overrides every subject's
    exploration cap; [por] turns on the sleep-set reduction;
    [symmetry] runs the {!Symm} equivariance analysis per subject and
    orbit-quotients certified explorations (pair it with
    {!Rules.symmetry} so the verdicts surface as findings). *)

val run_entry :
  ?rules:Rule.t list ->
  ?symmetry:bool ->
  origin:string ->
  Registry.entry ->
  Report.t
(** Lint a single subject at its probe's own cap, without POR (used
    by the fixture tests). *)
