(* The four workloads.  Each one times calls into public library
   functions from outside; nothing in the libraries is instrumented.

   - mc-catalog: the 14 CHK subjects at n=3, exactly what [afd_lint
     --mc] and CI run.  Explorations stay under 4k states, so fixed
     per-exploration costs (set-up, SCC condensation, lasso replay,
     JSON) dominate.
   - mc-deep: the same subjects at n=4 (613 to 85k states each), where
     steady-state exploration (seen-set hashing, equality, GC)
     dominates.  Same layers as mc-catalog at another size: a change
     that trades set-up for throughput shows on one and not the other.
   - parametric: orbit-quotiented re-verification and the cutoff ladder
     up to n=6, where symmetry certification and canonicalization
     dominate.  The mc-* workloads never reach [Symm].
   - churn: the lib/mega discrete-event engine, vcube/hypercube and
     hb-pc/ring; the only workload on lib/mega.

   The MC workloads' input is the fixed CHK catalog, run in catalog
   order: OCaml 5.1 never shrinks the heap, so the order decides how
   large it already is when the biggest call runs, and a per-seed
   order moves parametric's peak heap by 11%.  Churn's input is a fixed
   family of engine seeds, for the reason given at [churn_cfgs].  The
   workload seed seeds the isolated lib/mega replays.

   A pass is a list of calls.  Every call starts from a fully collected
   heap (an untimed [Gc.full_major]), so its time does not depend on
   the calls before it. *)

open Afd_bench
module Mc = Afd_analysis.Mc
module Space = Afd_analysis.Space
module Mega = Afd_mega

(* --- output checks --- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* Outputs that must be identical every time the same input is run. *)
let first_seen : (string, string) Hashtbl.t = Hashtbl.create 64

let check_repeats key v =
  match Hashtbl.find_opt first_seen key with
  | None -> Hashtbl.add first_seen key v
  | Some v0 -> check (key ^ " differs from its first run") (String.equal v0 v)

(* --- passes --- *)

(* [Smoke] is the small size: the untimed warm-up of every run and the
   whole of [--smoke]. *)
type size = Full | Smoke

(* What the calls of one pass cost.  [cpu_s] is process CPU time: the
   benchmark runs one domain, so it equals wall time when the process
   has a core to itself, and it leaves out time spent waiting for a
   core shared with other load.  [wall_s] is on the clock of the
   spans. *)
type meter = {
  mutable cpu_s : float;
  mutable wall_s : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

type ctx = {
  size : size;
  rng : Random.State.t;
  trace : Trace.t option;  (** [Some] in the traced pass *)
  meter : meter;
}

let meter () =
  { cpu_s = 0.; wall_s = 0.; minor_words = 0.; promoted_words = 0.;
    major_collections = 0 }

(* One call into the libraries.  In the traced pass it is a root span,
   and the Mc phases it reports become its children. *)
let call c name f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = Sys.time () and t0 = Unix.gettimeofday () in
  let r = match c.trace with None -> f () | Some tr -> Trace.with_span tr name f in
  let c1 = Sys.time () and t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let m = c.meter in
  m.cpu_s <- m.cpu_s +. (c1 -. c0);
  m.wall_s <- m.wall_s +. (t1 -. t0);
  m.minor_words <- m.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  m.promoted_words <-
    m.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  m.major_collections <-
    m.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  r

let add_phases c timings = Option.iter (fun tr -> Trace.add_phases tr timings) c.trace

type pass = {
  work : int;  (** product states, or simulated events for churn *)
  values : (string * float) list;  (** per-layer values of this pass *)
}

type t = { name : string; pass : ctx -> pass }

let subjects = Check.subjects @ Check.liveness_subjects

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* The Mc phases of a traced pass ([?timings] spans) and the rest of
   its calls: product construction, outcome and JSON building.  Empty
   for a pass that never calls Mc. *)
let mc_phases tr ~pass_s =
  let total name =
    List.fold_left
      (fun acc s -> if s.Trace.name = name then acc +. Trace.dur s else acc)
      0. (Trace.spans tr)
  in
  let phases = [ "explore"; "clause_eval"; "lasso"; "symmetry" ] in
  if not (List.exists (fun s -> List.mem s.Trace.name phases) (Trace.spans tr)) then []
  else
    let timed = List.fold_left (fun acc p -> acc +. total p) 0. phases in
    List.map (fun p -> ("mc." ^ p ^ "_s", total p)) phases
    @ [ ("mc.other_s", pass_s -. timed) ]

type counts = { states : int; transitions : int; cut : int }

let explore_values l =
  [ ("explore.states", float (sum (fun x -> x.states) l));
    ("explore.transitions", float (sum (fun x -> x.transitions) l));
    ("explore.cut", float (sum (fun x -> x.cut) l)) ]

let counts (o : _ Mc.outcome) =
  { states = o.Mc.states; transitions = o.Mc.transitions; cut = o.Mc.stats.Space.cut }

let no_symmetry c =
  Option.iter
    (fun tr ->
      check "no symmetry phase on an mc-* workload"
        (not (List.exists (fun s -> s.Trace.name = "symmetry") (Trace.spans tr))))
    c.trace

let subject_name subj = "subject." ^ Check.id subj

(* mc-catalog *)

let catalog_pass c =
  let profile = Option.is_some c.trace in
  let rs =
    List.filter_map
      (fun subj ->
        match
          call c (subject_name subj) (fun () ->
              let r = Check.mc_subject ~profile subj in
              Result.iter (fun r -> add_phases c r.Check.mc_profile) r;
              r)
        with
        | Ok r ->
          check (r.Check.mc_id ^ " mc_ok") r.Check.mc_ok;
          (* profiled JSON carries a "profile" field *)
          if not profile then
            check_repeats ("mc-catalog " ^ r.Check.mc_id) r.Check.mc_json;
          let cut = Json.to_float (Json.member "cut" (Json.parse r.Check.mc_json)) in
          Some
            { states = r.Check.mc_states; transitions = r.Check.mc_transitions;
              cut = int_of_float cut }
        | Error e ->
          check (Check.id subj ^ ": " ^ e) false;
          None)
      subjects
  in
  no_symmetry c;
  { work = sum (fun x -> x.states) rs; values = explore_values rs }

(* mc-deep *)

let deep_n = function Full -> 4 | Smoke -> 3

(* The meta-verdict of [Check.mc_subject] (POR off), for outcomes of
   [Mc.check_spec]: exhaustive, and proved for a truthful pairing or
   confirmed-refuted for a broken one. *)
let outcome_ok ~expect_violated (o : _ Mc.outcome) =
  o.Mc.verdict = Space.Exhausted
  &&
  if expect_violated then
    (o.Mc.violations <> [] || o.Mc.lassos <> [])
    && List.for_all (fun v -> v.Mc.confirmed) o.Mc.violations
    && List.for_all (fun l -> l.Mc.l_confirmed) o.Mc.lassos
  else o.Mc.proved

let deep_pass c =
  let n = deep_n c.size in
  let rs =
    List.filter_map
      (fun (Check.S s as subj) ->
        match
          call c (subject_name subj) (fun () ->
              let timings = Option.map (fun _ -> ref []) c.trace in
              let r =
                Mc.check_spec ?timings ~n ~max_states:200_000 s.spec
                  ~detector:(s.detector n)
              in
              Option.iter (fun t -> add_phases c !t) timings;
              r)
        with
        | Ok o ->
          let id = Printf.sprintf "%s at n=%d" s.id n in
          check (id ^ " proved/refuted as at n=3")
            (outcome_ok ~expect_violated:(Check.expect_violated subj) o);
          check_repeats ("mc-deep " ^ id)
            (Printf.sprintf "%d %d %b" o.Mc.states o.Mc.transitions o.Mc.proved);
          Some (counts o)
        | Error e ->
          check (s.id ^ ": " ^ e) false;
          None)
      subjects
  in
  no_symmetry c;
  { work = sum (fun x -> x.states) rs; values = explore_values rs }

(* parametric *)

let ladder = function Full -> [ 2; 3; 4; 5; 6 ] | Smoke -> [ 2; 3 ]

let symm_values rs =
  let points r =
    match r.Check.sy_parametric with Some p -> p.Mc.par_points | None -> []
  in
  let raw_at p = Option.value ~default:0 p.Mc.pt_raw_states in
  let orbits r =
    if r.Check.sy_status = "certified" then
      r.Check.sy_states + sum (fun p -> p.Mc.pt_orbits) (points r)
    else 0
  in
  let raw r =
    r.Check.sy_raw_states + sum raw_at (points r)
  in
  let top_n r =
    List.fold_left
      (fun acc p -> if p.Mc.pt_proved then max acc p.Mc.pt_n else acc)
      0 (points r)
  in
  let work r =
    r.Check.sy_states + r.Check.sy_raw_states
    + sum (fun p -> p.Mc.pt_orbits + raw_at p) (points r)
  in
  let certified = List.filter (fun r -> r.Check.sy_status = "certified") rs in
  { work = sum work rs;
    values =
      [ ("symm.orbits", float (sum orbits rs)); ("symm.raw_states", float (sum raw rs));
        ("symm.certified", float (List.length certified));
        ("symm.top_n", float (List.fold_left (fun acc r -> max acc (top_n r)) 0 rs)) ] }

let sy_pass c =
  let ns = ladder c.size in
  symm_values
    (List.filter_map
       (fun subj ->
         match call c (subject_name subj) (fun () -> Check.sy_subject ~ns subj) with
         | Ok r ->
           check (r.Check.sy_id ^ " sy_ok") r.Check.sy_ok;
           check_repeats
             (Printf.sprintf "parametric %s up to n=%d" r.Check.sy_id
                (List.fold_left max 0 ns))
             r.Check.sy_json;
           Some r
         | Error e ->
           check (Check.id subj ^ ": " ^ e) false;
           None)
       subjects)

(* [Check.sy_subject] takes no timings, so the traced pass replays its
   calls through [Mc.check_spec ~timings]: the unreduced and the
   quotient run at the subject's size, then the cutoff ladder as
   [Mc.parametric] climbs it. *)
let sy_replay c tr =
  let found = ref [] in
  List.iter
    (fun subj ->
      let (Check.S s) = subj in
      let run ?symmetry label n =
        Trace.with_span tr label (fun () ->
            let timings = ref [] in
            let r =
              Mc.check_spec ~timings ?symmetry ~n s.spec ~detector:(s.detector n)
            in
            Trace.add_phases tr !timings;
            (match r with
            | Ok o -> found := counts o :: !found
            | Error e -> check (s.id ^ ": " ^ e) false);
            r)
      in
      let rec climb kit = function
        | [] -> ()
        | n :: rest -> (
          match run ~symmetry:kit (Printf.sprintf "rung.%d" n) n with
          | Ok ({ Mc.sym = Mc.Sym_quotient _; _ } as o) ->
            ignore (run (Printf.sprintf "rung.%d.raw" n) n);
            if
              o.Mc.violations = [] && o.Mc.lassos = []
              && o.Mc.verdict = Space.Exhausted
            then climb kit rest
          | Ok _ | Error _ -> ())
      in
      call c (subject_name subj) (fun () ->
          match s.symm with
          | None -> ()
          | Some kit -> (
            ignore (run "check.raw" s.n);
            match run ~symmetry:kit "check.quotient" s.n with
            | Ok { Mc.sym = Mc.Sym_quotient _; _ } -> climb kit (ladder c.size)
            | Ok _ | Error _ -> ())))
    subjects;
  { work = sum (fun x -> x.states) !found; values = explore_values !found }

let parametric_pass c = match c.trace with None -> sy_pass c | Some tr -> sy_replay c tr

(* churn *)

let detectors = [ "vcube"; "hb-pc" ]

(* Engine seeds 1..k.  One engine seed's cost varies up to 2x: vcube's
   is dominated by false-suspicion bookkeeping, and how many false
   suspicions a run accrues depends on where the adversary partitions.
   Two families of six seeds can differ by 25% (103k against 160k false
   suspicions), so the family is fixed, like the MC catalog.  Events
   per process match 2x10^5 processes x (4x10^6 vcube, 8x10^6 hb-pc)
   events. *)
let churn_cfgs c =
  let procs, events, k =
    match c.size with Full -> (50_000, 1_000_000, 6) | Smoke -> (10_000, 100_000, 2)
  in
  List.concat_map
    (fun seed ->
      [ Mega.Engine.cfg ~procs ~events ~topology:Mega.Topology.Hypercube
          ~detector:"vcube" ~seed ();
        Mega.Engine.cfg ~procs ~events:(2 * events) ~topology:(Mega.Topology.Ring 2)
          ~detector:"hb-pc" ~seed () ])
    (List.init k succ)

(* Isolated replays of the lib/mega layers the engine spends its events
   in, at the engine's scale: as many pending calendar events as
   processes, delays drawn like the engine's (1-4 ticks for deliveries,
   1-8 for timers), the engine's sample size and window. *)

let ns_per dt ops = dt /. float ops *. 1e9

let calendar_replay ~pending rng =
  let cal = Mega.Calendar.create () in
  let delay () =
    if Random.State.int rng 4 = 0 then 1 + Random.State.int rng 8
    else 1 + Random.State.int rng 4
  in
  for i = 0 to pending - 1 do
    Mega.Calendar.schedule cal ~at:(delay ()) ~kind:0 ~a:i ~b:0 ~c:0 ~d:0
  done;
  let batch = 1024 in
  let delays = Array.init batch (fun _ -> delay ()) in
  let rounds = max 1 (4 * pending / batch) in
  let t_pop = ref 0. and t_sched = ref 0. in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      ignore (Mega.Calendar.pop cal)
    done;
    let t1 = Unix.gettimeofday () in
    let now = Mega.Calendar.now cal in
    for i = 0 to batch - 1 do
      Mega.Calendar.schedule cal ~at:(now + delays.(i)) ~kind:(i land 1) ~a:i ~b:0 ~c:0
        ~d:0
    done;
    let t2 = Unix.gettimeofday () in
    t_pop := !t_pop +. (t1 -. t0);
    t_sched := !t_sched +. (t2 -. t1)
  done;
  check "calendar keeps its pending events" (Mega.Calendar.pending cal = pending);
  [ ("calendar.schedule_ns", ns_per !t_sched (rounds * batch));
    ("calendar.pop_ns", ns_per !t_pop (rounds * batch)) ]

let sample_replay ~ops rng =
  let s = 32 in
  let draws = Array.init ops (fun _ -> Random.State.int rng (2 * s * s)) in
  let smp = Mega.Sample.create ~s ~window:4096 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun d ->
      let pair = d lsr 1 in
      Mega.Sample.susp smp ~observer:(pair / s) ~target:(pair mod s)
        ~suspected:(d land 1 = 1))
    draws;
  let susp = Unix.gettimeofday () -. t0 in
  let finalize () =
    let t0 = Unix.gettimeofday () in
    ignore
      (Mega.Sample.finalize smp ~final_dead:(fun q -> q mod 5 = 0) ~completeness:true);
    Unix.gettimeofday () -. t0
  in
  let fin = List.sort compare (List.init 5 (fun _ -> finalize ())) in
  [ ("sample.susp_ns", ns_per susp ops); ("sample.finalize_s", List.nth fin 2) ]

let topology_replay ~n =
  let acc = ref 0 and calls = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun topo ->
      let d = Mega.Topology.degree topo ~n in
      for p = 0 to n - 1 do
        for j = 0 to d - 1 do
          acc := !acc + Mega.Topology.neighbor topo ~n p j
        done
      done;
      calls := !calls + (n * d))
    [ Mega.Topology.Hypercube; Mega.Topology.Ring 2 ];
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  [ ("topology.neighbor_ns", ns_per dt !calls) ]

(* Made after the traced pass's engine runs and outside [call], so
   they are not part of its time. *)
let replays c =
  let procs = (List.hd (churn_cfgs c)).Mega.Engine.procs in
  calendar_replay ~pending:procs c.rng
  @ sample_replay ~ops:(20 * procs) c.rng
  @ topology_replay ~n:procs

let churn_pass c =
  let rs =
    List.map
      (fun (cfg : Mega.Engine.cfg) ->
        let d = cfg.Mega.Engine.detector and seed = cfg.Mega.Engine.seed in
        let r =
          call c (Printf.sprintf "run.%s.%d" d seed) (fun () -> Mega.Engine.run cfg)
        in
        check (d ^ " Engine.ok") (Mega.Engine.ok r);
        check (d ^ " monitor not violated")
          (match r.Mega.Engine.monitor_verdict with
          | Afd_core.Verdict.Violated _ -> false
          | _ -> true);
        check (d ^ " processed = requested")
          (r.Mega.Engine.processed = r.Mega.Engine.requested);
        check_repeats
          (Printf.sprintf "churn %s seed=%d procs=%d" d seed cfg.Mega.Engine.procs)
          (Mega.Engine.deterministic_summary r);
        r)
      (churn_cfgs c)
  in
  (* per detector: totals over its runs, the worst p99 and the longest
     virtual time *)
  let per_detector d =
    let rs = List.filter (fun r -> r.Mega.Engine.detector_name = d) rs in
    let total f = float (sum f rs) in
    let worst f = float (List.fold_left (fun a r -> max a (f r)) 0 rs) in
    let wall = List.fold_left (fun a r -> a +. r.Mega.Engine.wall_s) 0. rs in
    let processed = total (fun r -> r.Mega.Engine.processed) in
    let sends = total (fun r -> r.Mega.Engine.sends) in
    let v k x = (Printf.sprintf "churn.%s.%s" d k, x) in
    [ v "wall_s" wall; v "events_per_s" (processed /. wall);
      v "sends_per_event" (sends /. processed);
      v "drop_ratio" (total (fun r -> r.Mega.Engine.drops) /. sends);
      v "detections" (total (fun r -> r.Mega.Engine.detections));
      v "detect_latency_p99_ticks" (worst (fun r -> r.Mega.Engine.lat_p99));
      v "false_suspicions" (total (fun r -> r.Mega.Engine.false_suspicions));
      v "vtime_ticks" (worst (fun r -> r.Mega.Engine.vtime)) ]
  in
  { work = sum (fun r -> r.Mega.Engine.processed) rs;
    values =
      List.concat_map per_detector detectors
      @ if Option.is_some c.trace then replays c else [] }

let all =
  [ { name = "mc-catalog"; pass = catalog_pass };
    { name = "mc-deep"; pass = deep_pass };
    { name = "parametric"; pass = parametric_pass };
    { name = "churn"; pass = churn_pass } ]

let find name = List.find_opt (fun w -> w.name = name) all
