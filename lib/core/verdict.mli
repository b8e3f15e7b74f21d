(** Three-valued verdicts for trace-property monitors — an alias of
    {!Afd_prop.Verdict}, where the type and its documentation live. *)

include module type of struct
  include Afd_prop.Verdict
end
