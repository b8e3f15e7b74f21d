(** The parallel experiment engine.

    [run cfg entries] expands every matrix entry into cells (one per
    fault pattern per seed index), derives each cell's scheduler seed
    deterministically from [cfg.root_seed], executes all cells on a
    {!Pool} of [cfg.jobs] domains, and reassembles results in matrix
    order.  Because seeds are a pure function of [(root_seed, entry id,
    fault index, seed index)] and results are stored by cell index, the
    verdict table is bit-identical for any [jobs] — parallelism cannot
    leak into results. *)

type cfg = {
  jobs : int;  (** domains to use; [<= 1] runs sequentially *)
  root_seed : int;  (** root of the splitmix64 seed derivation *)
  seeds_override : int option;
      (** when set, overrides every entry's default seed count *)
}

val default_cfg : cfg
(** [jobs = 1], [root_seed = 1], no seed override. *)

type run = {
  cfg : cfg;
  exps : Metrics.exp list;  (** in entry order, regardless of [jobs] *)
}

val cell_seed : root:int -> id:string -> fault_index:int -> seed_index:int -> int
(** The derivation used for every cell; exposed for tests and for
    bodies that need further per-cell substreams. *)

val run : cfg -> Matrix.entry list -> run

val verdict_table : run -> string
(** Section headers plus every rendered row, newline-separated — the
    byte-comparable artifact of the determinism tests.  Contains no
    timing-derived text. *)

val pp : Format.formatter -> run -> unit
(** Prints {!verdict_table} followed by a one-line matrix summary
    (experiments, cells, jobs). *)
