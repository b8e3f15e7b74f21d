(** BENCH.json emission — the machine-readable counterpart of the
    pretty verdict table.

    The JSON is hand-rolled (the repo deliberately has no JSON
    dependency, same as [Afd_analysis.Report]).  Schema, informally:

    {v
    { "schema": "afd-bench/1",
      "root_seed": int, "seeds_override": int|null,
      "experiments": [
        { "id": str, "section": str, "label": str,
          "cells": int, "steps_fired": int,
          "verdicts": {"sat": int, "undecided": int, "violated": int},
          "rows": [ { "seed_index": int, "fault_index": int,
                      "scheduler_seed": int, "verdict": str,
                      "reason": str|null, "steps": int,
                      "quiescent": bool,
                      "counterexample": int|null,    -- minimal violating
                                                     -- prefix index
                      "clauses": [ { "clause": str,  -- property-checked
                                     "verdict": str, -- runs only
                                     "reason": str|null } ] } ] } ] }
    v}

    Every field is a pure function of the matrix and its root seed: the
    report holds no clock, job count or repository state, so two runs
    of the same root seed emit the same bytes at any [--jobs].  Timing
    is the repository benchmark's job ([benchmark/main.exe]). *)

val to_json : Engine.run -> string

val write : path:string -> Engine.run -> unit
(** Write {!to_json} to [path]. *)
