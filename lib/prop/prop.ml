open Afd_ioa

(* --- incremental trace summary (the "crashed-so-far context") --- *)

type 'o state = {
  n : int;
  len : int;
  crashed : Loc.Set.t;
  last_output : 'o Loc.Map.t;
}

let init ~n =
  { n;
    len = 0;
    crashed = Loc.Set.empty;
    last_output = Loc.Map.empty;
  }

let update st e =
  match e with
  | Fd_event.Crash i -> { st with len = st.len + 1; crashed = Loc.Set.add i st.crashed }
  | Fd_event.Output (i, o) ->
    { st with len = st.len + 1; last_output = Loc.Map.add i o st.last_output }

(* Transport a process permutation through the summary: relabel the
   crashed set and the last-output map, mapping payloads through the
   output transport.  Needed by the symmetry-quotiented model checker;
   the length is invariant under relabelling. *)
let permute pif pout st =
  { st with
    crashed = Loc.Set.map pif st.crashed;
    last_output =
      Loc.Map.fold
        (fun k v acc -> Loc.Map.add (pif k) (pout v) acc)
        st.last_output Loc.Map.empty;
  }

let live st = Loc.Set.diff (Loc.set_of_universe ~n:st.n) st.crashed

let last_outputs st =
  let live = live st in
  let missing = ref None in
  let map =
    Loc.Set.fold
      (fun i acc ->
        match Loc.Map.find_opt i st.last_output with
        | Some o -> Loc.Map.add i o acc
        | None ->
          if !missing = None then missing := Some i;
          acc)
      live Loc.Map.empty
  in
  match !missing with
  | Some i ->
    Error (Printf.sprintf "live location %s has no output yet" (Loc.to_string i))
  | None -> Ok (map, live)

(* --- stable-suffix judgements --- *)

(* Reasons are lazy: the model checker judges every reachable state but
   prints the reason of at most one per clause, so a judge captures its
   format arguments and formats nothing until a reason is forced. *)
type judgement = J_sat | J_violated of string Lazy.t | J_undecided of string Lazy.t

let reasonf fmt = Format.kdprintf (fun pr -> lazy (Format.asprintf "%t" pr)) fmt
let join r1 r2 = lazy (Lazy.force r1 ^ "; " ^ Lazy.force r2)

let j_and a b =
  match (a, b) with
  | J_violated r1, J_violated r2 -> J_violated (join r1 r2)
  | (J_violated _ as v), _ | _, (J_violated _ as v) -> v
  | J_undecided r1, J_undecided r2 -> J_undecided (join r1 r2)
  | (J_undecided _ as u), _ | _, (J_undecided _ as u) -> u
  | J_sat, J_sat -> J_sat

let j_of_bool ~undecided b = if b then J_sat else J_undecided (Lazy.from_val undecided)

let to_verdict = function
  | J_sat -> Verdict.Sat
  | J_violated r -> Verdict.Violated (Lazy.force r)
  | J_undecided r -> Verdict.Undecided (Lazy.force r)

let for_locs locs f = Loc.Set.fold (fun i acc -> j_and acc (f i)) locs J_sat
let for_live st f = for_locs (live st) f

(* --- formulas --- *)

type 'o event_check = 'o state -> 'o Fd_event.t -> (unit, string) result
type 'o state_judge = 'o state -> judgement

type 'o clause =
  | Always of 'o event_check
  | Stable of 'o state_judge
  | Fold : { fold : ('o, 'acc) fold; acc : 'acc } -> 'o clause

and ('o, 'acc) fold = {
  fstep : 'o state -> 'acc -> 'o Fd_event.t -> ('acc, string) result;
  fjudge : 'o state -> 'acc -> judgement;
  fperm : ((Loc.t -> Loc.t) -> 'acc -> 'acc) option;
      (* how a process permutation transports the accumulator; needed
         (only) by the symmetry-quotiented model checker, which permutes
         whole product states — [None] makes the clause's spec
         uncertifiable, never wrong *)
  fcmp : ('acc -> 'acc -> int) option;
      (* a total order on accumulators (e.g. [Loc.Set.compare]), 0
         only on structurally equal ones: the model checker's quotient
         takes orbit minima under it while comparing and hashing
         accumulators structurally; required alongside [fperm] for
         certification *)
}

type 'o t = Clause of string * 'o clause | Conj of 'o t list

let always ~name check = Clause (name, Always check)
let eventually_stable ~name judge = Clause (name, Stable judge)

(* Every argument is labeled, so [?perm]/[?cmp] are never erased by a
   positional application — callers always name what they pass. *)
let[@warning "-16"] folding ?perm ?cmp ~name ~init ~step ~judge =
  Clause
    ( name,
      Fold { fold = { fstep = step; fjudge = judge; fperm = perm; fcmp = cmp }; acc = init } )

let conj ts = Conj ts
let ( &&& ) a b = Conj [ a; b ]

let rec clauses = function
  | Clause (name, c) -> [ (name, c) ]
  | Conj ts -> List.concat_map clauses ts

(* --- clauses as runtime state --- *)

exception Violation of string

(* An unchanged clause comes back physically equal, so stepping an
   [Always] or [Stable] clause allocates nothing. *)
let step st e c =
  match c with
  | Always check -> (match check st e with Ok () -> c | Error r -> raise (Violation r))
  | Stable _ -> c
  | Fold { fold; acc } -> (
    match fold.fstep st acc e with
    | Ok acc' -> Fold { fold; acc = acc' }
    | Error r -> raise (Violation r))

let judge st = function
  | Always _ -> J_sat
  | Stable j -> j st
  | Fold { fold; acc } -> fold.fjudge st acc

(* Structural comparison across an existential boundary — exact for the
   first-order accumulators the catalog uses (sets, lists, pairs);
   values that defeat [compare] (closures) compare unequal, which only
   splits states, never merges wrongly. *)
let obj_equal a b =
  try Stdlib.compare (Obj.repr a) (Obj.repr b) = 0 with Invalid_argument _ -> false

let equal a b =
  match (a, b) with
  | Always _, Always _ | Stable _, Stable _ -> true
  | Fold f, Fold g -> obj_equal f.acc g.acc
  | (Always _ | Stable _ | Fold _), _ -> false

let rank = function Always _ -> 0 | Stable _ -> 1 | Fold _ -> 2

(* Accumulators compare through the fold's [fcmp], which is 0 exactly
   on structurally equal accumulators, so the order is congruent with
   [equal].  Two folds compared here are one clause's states, so the
   cast stays inside one existential instance.  Without [fcmp] there is
   no order to guess: the model checker's quotient refuses such a fold
   before it compares anything. *)
let compare a b =
  match (a, b) with
  | Fold f, Fold g -> (
    match f.fold.fcmp with
    | Some c -> c f.acc (Obj.magic g.acc)
    | None -> invalid_arg "Prop.compare: fold clause has no accumulator order (fcmp)")
  | _ -> Int.compare (rank a) (rank b)

let hash h = function
  | Always _ | Stable _ -> h
  | Fold f -> (h * 131) + Hashtbl.hash (Obj.repr f.acc)

let permute_clause pif = function
  | (Always _ | Stable _) as c -> c
  | Fold { fold; acc } -> (
    match fold.fperm with
    | Some fp -> Fold { fold; acc = fp pif acc }
    | None -> invalid_arg "Prop.permute_clause: fold clause has no transport (fperm)")

(* --- the canned validity formula (Section 3.2) --- *)

let validity () =
  conj
    [ always ~name:"validity.safety" (fun st e ->
          match e with
          | Fd_event.Output (i, _) when Loc.Set.mem i st.crashed ->
            Error (Printf.sprintf "output at %s after its crash" (Loc.to_string i))
          | Fd_event.Output _ | Fd_event.Crash _ -> Ok ());
      eventually_stable ~name:"validity.liveness" (fun st ->
          for_live st (fun i ->
              if Loc.Map.mem i st.last_output then J_sat
              else J_undecided (reasonf "live location %a has 0 < 1 outputs" Loc.pp i)));
    ]
