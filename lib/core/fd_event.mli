(** Events of failure-detector traces (Section 3.2) — an alias of
    {!Afd_prop.Fd_event}, where the type and its documentation live. *)

include module type of struct
  include Afd_prop.Fd_event
end
