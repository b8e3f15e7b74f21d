(** JSON string literals, the one escaper behind every hand-rolled JSON
    writer in the repository (lint reports, model-checking outcomes,
    counterexamples, the experiment report).  The repository
    deliberately has no JSON dependency. *)

val escape : string -> string
(** The body of a JSON string literal: ["\""] and ["\\"] backslashed,
    newline, tab and carriage return as [\n], [\t], [\r], every other
    control byte below [0x20] as [\u00XX].  All other bytes — UTF-8
    sequences included — pass through unchanged, so valid UTF-8 in
    gives valid JSON out. *)

val string : string -> string
(** [escape] wrapped in double quotes. *)
