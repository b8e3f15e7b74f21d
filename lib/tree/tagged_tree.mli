(** The tagged tree of executions R^{t_D} (Section 8).

    Given a system S (processes, channels, environment — {e without}
    crash or failure-detector automata) and a fixed FD sequence
    [t_D ∈ T_D] over [Î ∪ O_D], the tree R^{t_D} has a node for every
    finite execution whose projection on [Î ∪ O_D] is a prefix of
    [t_D]; each node has one outgoing edge per label in
    [L = {FD} ∪ {Proc_i} ∪ {Chan_{i,j}} ∪ {Env_{i,v}}].  An FD edge's
    action tag is the head of the remaining FD sequence; a task edge's
    tag is the unique enabled action of that task (⊥ when disabled).

    Infinitely many tree nodes share the same (config, FD-sequence)
    tags, so we materialize the {e quotient graph} keyed by
    [(config, position in t_D)]: every tagging, valence and hook
    statement of Sections 8–9 is invariant under that quotient (Lemmas
    33–34 are exactly the statement that tags determine subtrees).
    ⊥-edges become self-loops (Proposition 30: exe(N) is unchanged).

    {b The quotient graph is an exploration of the one BFS core}
    ({!Afd_analysis.Space.explore}) over the system paired with a t_D
    player: its state is [(config, pos)], and it has one task per
    label — the FD task is enabled while [pos < |t_D|], steps the head
    event and advances [pos]; a composition task is enabled exactly
    when the composition says so.  Node ids are the core's discovery
    order; the core keeps only the enabled edges, and {!node} supplies
    the ⊥ self-loops of the disabled labels on the fly.

    Labels other than FD are exactly the tasks of the composition,
    which matches the paper's label set because each process has one
    task, each channel one, and E_{C,i} two ([Env_{i,0}], [Env_{i,1}]). *)

open Afd_ioa
open Afd_core
open Afd_system

type label =
  | FD
  | Task of Composition.task_id

val pp_label : label Fmt.t

type node = {
  id : int;
  config : Act.t Composition.state;
  pos : int;  (** events of [t_D] already consumed *)
  edges : (label * Act.t option * int) array;
      (** (label, action tag, successor node id), one per label in
          {!labels} order (FD first); a [None] tag loops to the node
          itself *)
}

type t = {
  system : Act.t Composition.t;
  td : Act.fd_payload Fd_event.t array;
  labels : label array;  (** FD first, then the composition's tasks *)
  space : (Act.t Composition.state * int, int * Act.t) Afd_analysis.Space.t;
      (** the core's exploration: states are [(config, pos)], state 0
          is the root ⊤, and an edge's action pairs its label's index
          in [labels] with its tag.  Only enabled edges are kept. *)
  offsets : int array;
      (** node [i]'s core edges are [space.edges.(offsets.(i))] up to,
          excluding, [space.edges.(offsets.(i + 1))] *)
}

val labels : t -> label list

val build :
  system:Act.t Composition.t ->
  detector:string ->
  td:Act.fd_payload Fd_event.t list ->
  max_nodes:int ->
  (t, string) result
(** Breadth-first exploration of the quotient graph; [detector] is the
    name under which FD-edge outputs enter the system.  [max_nodes] is
    the core's state budget: [Error] exactly when the quotient graph
    has more than [max_nodes] nodes.  Raises [Invalid_argument] when
    the composition refuses an enabled action. *)

val size : t -> int
(** Number of quotient nodes. *)

val node : t -> int -> node
(** The node with the given id, its ⊥ edges included. *)

val iter : (node -> unit) -> t -> unit
(** Every node, in id order. *)

val act_of_fd_event : Act.fd_payload Fd_event.t -> detector:string -> Act.t
(** How FD-edge events enter the system: crashes as [Act.Crash],
    outputs as [Act.Fd]. *)

val decision_of_edge : Act.t option -> bool option
(** The decision value carried by an edge tag, if it is a decide. *)

val exe_of_walk : t -> int list -> Act.t list
(** The action sequence (⊥ tags skipped) along a node-id walk —
    [exe(N)] of Proposition 29, as a schedule. *)

val equal_upto : t -> t -> depth:int -> bool
(** Theorem 41: unfold both quotient graphs from their roots in
    lockstep and compare edge labels, action tags and configurations
    down to the given depth.  Two trees built from FD sequences whose
    longest common prefix has length [x] must be equal up to depth
    [x] (each FD edge consumes one event, so at most [x] of the paper's
    t_D events are visible within [x] levels). *)
