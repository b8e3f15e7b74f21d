(* The repository benchmark.  See README.md for the workloads, the
   metrics and how to compare two sets of runs.

     main.exe --workload W --seed S --seconds T --trace 0|1
     main.exe --all [--seed S] [--seconds T] [--runs K] [--json FILE]
     main.exe --compare A.json B.json
     main.exe --smoke

   Each workload runs in child processes of this executable (one
   domain each): a few that only set up, for the median [setup_s], and
   one that also measures.  Times are process CPU seconds (see
   [Workloads.meter]); spans are on the wall clock.  The last line of
   standard output of --workload is one JSON object: correct,
   attempted, failed, and the end-to-end metrics (--trace 0) or the
   per-layer ones (--trace 1). *)

module W = Workloads

(* --- metrics --- *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  deterministic : bool;  (** must repeat exactly across runs of one seed *)
}

let metric ?(det = false) name unit_ better =
  { name; unit_; lower_is_better = better = `Lower; deterministic = det }

let end_to_end =
  [ metric "setup_s" "s" `Lower; metric "pass_s.p50" "s" `Lower;
    metric "pass_s.min" "s" `Lower; metric "work_per_s" "1/s" `Higher;
    metric "peak_heap_mb" "MB" `Lower ]

let per_layer =
  let s n = metric n "s" `Lower and count n b = metric ~det:true n "count" b in
  List.map
    (fun p -> s ("mc." ^ p ^ "_s"))
    [ "explore"; "clause_eval"; "lasso"; "symmetry"; "other" ]
  @ [ count "explore.states" `Lower; count "explore.transitions" `Lower;
      count "explore.cut" `Lower; metric "explore.states_per_s" "1/s" `Higher ]
  @ List.map (fun subj -> s ("subject." ^ Afd_bench.Check.id subj ^ ".s")) W.subjects
  @ [ count "symm.orbits" `Lower; count "symm.raw_states" `Lower;
      count "symm.certified" `Higher; count "symm.top_n" `Higher;
      metric "gc.minor_mb" "MB" `Lower; metric "gc.promoted_mb" "MB" `Lower;
      metric "gc.major_collections" "count" `Lower ]
  @ List.concat_map
      (fun d ->
        let c = Printf.sprintf "churn.%s.%s" d in
        [ s (c "wall_s"); metric (c "events_per_s") "1/s" `Higher;
          metric ~det:true (c "sends_per_event") "ratio" `Lower;
          metric ~det:true (c "drop_ratio") "ratio" `Lower;
          count (c "detections") `Higher;
          metric ~det:true (c "detect_latency_p99_ticks") "ticks" `Lower;
          count (c "false_suspicions") `Lower;
          metric ~det:true (c "vtime_ticks") "ticks" `Higher ])
      W.detectors
  @ [ metric "calendar.schedule_ns" "ns" `Lower; metric "calendar.pop_ns" "ns" `Lower;
      metric "sample.susp_ns" "ns" `Lower; s "sample.finalize_s";
      metric "topology.neighbor_ns" "ns" `Lower; metric "trace.overhead" "ratio" `Lower;
      metric "trace.coverage" "ratio" `Higher ]

(* --- statistics --- *)

let sorted l = List.sort Float.compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The quartiles of Python's [statistics.quantiles(l, n=4)] (exclusive
   method), so spreads read the same here as in any script. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* --- the measuring child --- *)

let mb words = words *. float (Sys.word_size / 8) /. 1048576.

let run_pass w base trace =
  let c = { base with W.trace; meter = W.meter () } in
  let p = w.W.pass c in
  (c.W.meter, p)

let medians_by_name rows =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) rows) in
  List.map (fun k -> (k, median (List.filter_map (List.assoc_opt k) rows))) names

let write_trace ~workload ~seed tr =
  let dir = ".benchmark" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Printf.sprintf "%s/trace-%s-seed%d.json" dir workload seed in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string (Trace.to_json tr)))

(* The per-layer values of the traced pass: its Mc phases, per-subject
   times, how much of it the phase spans cover, and its cost against
   the untraced median. *)
let traced_values tr ~pass_s ~overhead =
  let spans = Trace.spans tr in
  let phases = W.mc_phases tr ~pass_s in
  let covered =
    List.fold_left
      (fun acc s -> if s.Trace.parent >= 0 then acc +. Trace.self_time tr s else acc)
      0. spans
  in
  if phases <> [] then
    W.check "phase spans cover at least 90% of the traced pass"
      (covered >= 0.9 *. pass_s);
  let subjects =
    List.filter_map
      (fun s ->
        if s.Trace.parent < 0 && String.starts_with ~prefix:"subject." s.Trace.name
        then Some (s.Trace.name ^ ".s", Trace.dur s)
        else None)
      spans
  in
  phases @ subjects
  @ [ ("trace.overhead", overhead);
      ("trace.coverage", if phases = [] then 0. else covered /. pass_s) ]

(* Set up (an untimed warm-up pass at the small size), say "ready"
   with the CPU seconds spent since process start, then measure passes
   until [seconds] have elapsed, and optionally one traced pass.
   Prints one JSON line: checks and raw metric values. *)
let child ~workload ~seed ~seconds ~trace ~size ~setup_only =
  let w = Option.get (W.find workload) in
  let base =
    { W.size = W.Smoke; rng = Random.State.make [| seed |]; trace = None;
      meter = W.meter () }
  in
  ignore (run_pass w base None);
  Printf.printf "ready %.17g\n%!" (Sys.time ());
  let values =
    if setup_only then []
    else begin
      let base = { base with W.size } in
      let t_begin = Unix.gettimeofday () in
      let first = run_pass w base None in
      (* after set-up and one pass, whatever the pass count *)
      let peak = mb (float (Gc.quick_stat ()).Gc.top_heap_words) in
      let rec loop acc =
        if Unix.gettimeofday () -. t_begin >= seconds then List.rev acc
        else loop (run_pass w base None :: acc)
      in
      let passes = loop [ first ] in
      let dts = List.map (fun (m, _) -> m.W.cpu_s) passes in
      let per_s (m, p) = float p.W.work /. m.W.cpu_s in
      let e2e =
        [ ("pass_s.p50", median dts); ("pass_s.min", List.fold_left min infinity dts);
          ("work_per_s", median (List.map per_s passes)); ("peak_heap_mb", peak) ]
      in
      let layer =
        if not trace then []
        else begin
          let gc f = median (List.map (fun (m, _) -> f m) passes) in
          let untraced =
            medians_by_name (List.map (fun (_, p) -> p.W.values) passes)
            @ [ ("gc.minor_mb", gc (fun m -> mb m.W.minor_words));
                ("gc.promoted_mb", gc (fun m -> mb m.W.promoted_words));
                ("gc.major_collections", gc (fun m -> float m.W.major_collections)) ]
          in
          let tr = Trace.create () in
          let m, p = run_pass w base (Some tr) in
          if size = W.Full then write_trace ~workload ~seed tr;
          let traced =
            p.W.values
            @ traced_values tr ~pass_s:m.W.wall_s ~overhead:(m.W.cpu_s /. median dts)
          in
          let fresh (k, _) = not (List.mem_assoc k untraced) in
          let all = untraced @ List.filter fresh traced in
          let states_per_s =
            match
              (List.assoc_opt "explore.states" all, List.assoc_opt "mc.explore_s" all)
            with
            | Some st, Some ex when ex > 0. -> st /. ex
            | _ -> 0.
          in
          ("explore.states_per_s", states_per_s) :: all
        end
      in
      [ ("passes", float (List.length passes)) ] @ e2e @ layer
    end
  in
  let obj kv = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kv) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("attempted", Json.Num (float !W.attempted));
            ("failed", Json.Num (float !W.failed)); ("values", obj values) ]))

(* --- the parent: one workload --- *)

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  passes : int;
  e2e : (string * float) list;
  layer : (string * float) list;  (** empty without --trace *)
}

let setup_starts = 4

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let ready = In_channel.input_line ic in
  let rest = In_channel.input_all ic in
  let setup = Option.bind ready (fun l -> Scanf.sscanf_opt l "ready %f%!" Fun.id) in
  match (setup, Unix.close_process_in ic) with
  | Some setup, Unix.WEXITED 0 -> (
    match List.rev (String.split_on_char '\n' (String.trim rest)) with
    | last :: _ -> (setup, Json.parse last)
    | [] -> failwith "child printed no result")
  | _ -> failwith ("child failed: " ^ String.concat " " args)

(* A metric the workload does not exercise reads 0; a name outside the
   table is a bug. *)
let project table values =
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun m -> m.name = k) table) then
        failwith ("unlisted metric " ^ k))
    values;
  List.map
    (fun m -> (m.name, Option.value ~default:0. (List.assoc_opt m.name values)))
    table

let run_workload ~smoke ~seed ~seconds ~trace workload =
  let args setup_only =
    [ "--child"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ (if smoke then [ "--smoke" ] else [])
    @ if setup_only then [ "--setup-only" ] else []
  in
  let starts =
    List.init (if smoke then 0 else setup_starts) (fun _ -> spawn (args true))
  in
  let setup, res = spawn (args false) in
  let all = (setup, res) :: starts in
  let total k =
    List.fold_left
      (fun acc (_, r) -> acc + int_of_float (Json.to_float (Json.member k r)))
      0 all
  in
  let values =
    List.map
      (fun (k, v) -> (k, Json.to_float v))
      (Json.to_assoc (Json.member "values" res))
  in
  let layer_names = List.map (fun m -> m.name) per_layer in
  let e2e, layer = List.partition (fun (k, _) -> not (List.mem k layer_names)) values in
  let setup_s = median (List.map fst all) in
  { workload; seed; attempted = total "attempted"; failed = total "failed";
    passes = int_of_float (List.assoc "passes" e2e);
    e2e = project end_to_end (("setup_s", setup_s) :: List.remove_assoc "passes" e2e);
    layer = (if trace then project per_layer layer else []) }

let metrics_json table values =
  Json.Obj
    (List.map
       (fun (k, v) ->
         let m = List.find (fun m -> m.name = k) table in
         (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
       values)

let run_json r =
  Json.Obj
    [ ("workload", Json.Str r.workload); ("seed", Json.Num (float r.seed));
      ("cores", Json.Num (float (Domain.recommended_domain_count ())));
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float r.attempted));
      ("failed", Json.Num (float r.failed)); ("passes", Json.Num (float r.passes));
      ("end_to_end", metrics_json end_to_end r.e2e);
      ("per_layer", metrics_json per_layer r.layer) ]

let print_run r =
  Printf.printf
    "# %s seed %d: %d timed passes, setup over %d starts, %d/%d checks failed\n"
    r.workload r.seed r.passes (setup_starts + 1) r.failed r.attempted;
  List.iter
    (fun (table, values) ->
      List.iter
        (fun (k, v) ->
          let m = List.find (fun m -> m.name = k) table in
          Printf.printf "%-11s %-34s %16.6g %s\n" r.workload k v m.unit_)
        values)
    [ (end_to_end, r.e2e); (per_layer, r.layer) ]

(* --- comparing two sets of runs --- *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let bounds () =
  let spec = Json.parse (read_file "BENCHMARK.json") in
  List.map
    (fun m ->
      (Json.to_str (Json.member "name" m), Json.to_float (Json.member "bound" m)))
    (Json.to_list (Json.member "end_to_end" spec))

let compare_files fa fb =
  let bounds = bounds () in
  let load f = Json.to_list (Json.member "runs" (Json.parse (read_file f))) in
  let ra = load fa and rb = load fb in
  let of_workload w r = Json.to_str (Json.member "workload" r) = w in
  let values runs w group k =
    List.filter_map
      (fun r ->
        if not (of_workload w r) then None
        else
          match Json.member k (Json.member group r) with
          | Json.Null -> None
          | v -> Some (Json.to_float (Json.member "value" v)))
      runs
  in
  let flagged = ref 0 in
  let show v =
    if v = [] then "-"
    else
      let q1, q3 = quartiles v in
      Printf.sprintf "%.5g [%.5g, %.5g]" (median v) q1 q3
  in
  let row w group m =
    let va = values ra w group m.name and vb = values rb w group m.name in
    if va <> [] || vb <> [] then begin
      let ma = median va and mb = median vb in
      let change = if va = [] || vb = [] || ma = 0. then 0. else (mb -. ma) /. ma in
      let worse = if m.lower_is_better then change else -.change in
      let differs = List.length (List.sort_uniq compare (va @ vb)) > 1 in
      let flag =
        match List.assoc_opt m.name bounds with
        | Some b when group = "end_to_end" && worse > b ->
          Printf.sprintf "  WORSE by %.1f%% > bound %.0f%%" (100. *. worse) (100. *. b)
        | _ when m.deterministic && differs -> "  DIFFERS (deterministic count)"
        | _ -> ""
      in
      if flag <> "" then incr flagged;
      Printf.printf "  %-34s A %-30s B %-30s %+6.1f%%%s\n" m.name (show va) (show vb)
        (100. *. change) flag
    end
  in
  List.iter
    (fun (w : W.t) ->
      let n runs = List.length (List.filter (of_workload w.name) runs) in
      if n ra + n rb > 0 then begin
        Printf.printf "== %s  (A: %d runs, B: %d runs; median [q1, q3])\n" w.name
          (n ra) (n rb);
        List.iter (row w.name "end_to_end") end_to_end;
        List.iter (row w.name "per_layer") per_layer
      end)
    W.all;
  Printf.printf "%d flagged\n" !flagged;
  exit (if !flagged = 0 then 0 else 1)

(* --- smoke: every workload once at the small size, traced --- *)

(* BENCHMARK.json must list exactly the workloads and metrics this
   program prints. *)
let spec_matches () =
  let spec = Json.parse (read_file "BENCHMARK.json") in
  let names key f = List.map f (Json.to_list (Json.member key spec)) in
  let field k m = Json.to_str (Json.member k m) in
  let entry m = (field "name" m, field "unit" m, field "better" m) in
  let ours table =
    List.map
      (fun m -> (m.name, m.unit_, if m.lower_is_better then "lower" else "higher"))
      table
  in
  names "workloads" (field "name") = List.map (fun (w : W.t) -> w.name) W.all
  && names "end_to_end" entry = ours end_to_end
  && names "per_layer" entry = ours per_layer

let smoke () =
  let ok = ref (spec_matches ()) in
  if not !ok then
    prerr_endline "smoke: BENCHMARK.json does not list the metrics main.exe prints";
  List.iter
    (fun (w : W.t) ->
      let r = run_workload ~smoke:true ~seed:1 ~seconds:0. ~trace:true w.name in
      let good =
        r.failed = 0 && r.attempted > 0 && List.assoc "work_per_s" r.e2e > 0.
      in
      if not good then ok := false;
      Printf.printf "smoke %-11s %s: %d checks, %.2fs pass\n" w.name
        (if good then "ok" else "FAILED")
        r.attempted (List.assoc "pass_s.p50" r.e2e))
    W.all;
  exit (if !ok then 0 else 1)

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed S --seconds T --trace 0|1\n\
    \       main.exe --all [--seed S] [--seconds T] [--runs K] [--json FILE]\n\
    \       main.exe --compare A.json B.json\n\
    \       main.exe --smoke\n\
     workloads: mc-catalog mc-deep parametric churn";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | x :: v :: _ when x = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.mem k args in
  let int k d =
    match opt k args with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let seed = int "--seed" 1 and runs = int "--runs" 1 in
  let seconds =
    match opt "--seconds" args with
    | None -> 20.
    | Some v -> (
      match float_of_string_opt v with Some f when f >= 0. -> f | _ -> usage ())
  in
  let trace =
    match opt "--trace" args with
    | None | Some "0" -> false
    | Some "1" -> true
    | _ -> usage ()
  in
  let known w = if W.find w = None then usage () else w in
  match (opt "--child" args, opt "--workload" args, opt "--compare" args) with
  | Some w, _, _ ->
    child ~workload:(known w) ~seed ~seconds ~trace
      ~size:(if flag "--smoke" then W.Smoke else W.Full)
      ~setup_only:(flag "--setup-only")
  | None, Some w, _ ->
    let r = run_workload ~smoke:false ~seed ~seconds ~trace (known w) in
    print_run r;
    let metrics =
      if trace then metrics_json per_layer r.layer else metrics_json end_to_end r.e2e
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool (r.failed = 0));
              ("attempted", Json.Num (float r.attempted));
              ("failed", Json.Num (float r.failed)); ("metrics", metrics) ]));
    exit (if r.failed = 0 then 0 else 1)
  | None, None, Some fa -> (
    match opt fa args with Some fb -> compare_files fa fb | None -> usage ())
  | None, None, None when flag "--smoke" -> smoke ()
  | None, None, None when flag "--all" ->
    let one (w : W.t) =
      let r = run_workload ~smoke:false ~seed ~seconds ~trace:true w.name in
      print_run r;
      r
    in
    let rs = List.concat (List.init runs (fun _ -> List.map one W.all)) in
    Option.iter
      (fun f ->
        let doc = Json.Obj [ ("runs", Json.Arr (List.map run_json rs)) ] in
        Out_channel.with_open_bin f (fun oc -> output_string oc (Json.to_string doc)))
      (opt "--json" args);
    exit (if List.for_all (fun r -> r.failed = 0) rs then 0 else 1)
  | None, None, None -> usage ()
