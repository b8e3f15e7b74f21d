open Afd_ioa
open Afd_core

type cfg = {
  procs : int;
  events : int;
  churn_rate : float;
  topology : Topology.t;
  detector : string;
  seed : int;
  sample : int;
}

let cfg ?(churn_rate = 5.0) ?(topology = Topology.Ring 2) ?(detector = "vcube") ?(seed = 1)
    ?(sample = 32) ~procs ~events () =
  { procs; events; churn_rate; topology; detector; seed; sample }

type report = {
  detector_name : string;
  procs0 : int;
  requested : int;
  processed : int;
  vtime : int;
  final_live : int;
  final_count : int;
  crashes : int;
  recoveries : int;
  joins : int;
  leaves : int;
  link_downs : int;
  link_ups : int;
  partitions : int;
  heals : int;
  sends : int;
  drops : int;
  detections : int;
  lat_p50 : int;
  lat_p95 : int;
  lat_p99 : int;
  false_suspicions : int;
  fs_p50 : int;
  fs_p95 : int;
  fs_p99 : int;
  monitor_verdict : Verdict.t;
  monitor_clauses : (string * Verdict.t) list;
  wall_s : float;
  events_per_s : float;
  peak_words : int;
}

(* calendar event kinds *)
let k_timer = 0
let k_deliver = 1

let max_links = 16
let period = 8

(* int keys: [Int.equal] instead of the generic table's polymorphic compare *)
module Itbl = Hashtbl.Make (Int)

let run c =
  if c.procs < 1 || c.procs > 1_500_000 then
    invalid_arg "Engine.run: procs out of [1, 1_500_000]";
  if c.events < 0 then invalid_arg "Engine.run: negative event budget";
  let det_spec =
    match Catalog.find c.detector with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf "Engine.run: unknown detector %S (have: %s)" c.detector
           (String.concat ", " Catalog.names))
  in
  let t0 = Unix.gettimeofday () in
  (* headroom for joiners; the churn layer stops joining at capacity *)
  let cap = c.procs + (c.procs / 4) + 64 in
  let univ = Univ.create ~cap ~n:c.procs in
  let cal = Calendar.create () in
  let stream key = Rng.make (Scheduler.Seed.derive ~root:c.seed ~key ~index:0) in
  let delay_rng = stream "mega.delay" in
  let churn_rng = stream "mega.churn" in
  let det_rng = stream "mega.detector" in
  let sample = Sample.create ~s:(min 63 (max 1 (min c.sample c.procs))) ~window:4096 in
  let epoch = Array.make cap 0 in
  let crash_time = Array.make cap (-1) in
  let first_detect = Array.make cap (-1) in
  let lat = Stats.series () in
  let fs_dur = Stats.series () in
  (* open false suspicions: (observer * cap + target) -> start time,
     indexed by both endpoints so that a stop touches only its own
     records.  An index list may hold keys already retracted, or
     listed twice; every key in [fs_index.(p)] names [p], so removing
     one that is stale or gone is harmless. *)
  let fs_open : int Itbl.t = Itbl.create 64 in
  let fs_index = Array.make cap [] in
  let links = Array.make max_links 0 in
  let llen = ref 0 in
  let part = ref (-1) in
  let sends = ref 0 in
  let drops = ref 0 in
  let crashes = ref 0 in
  let recoveries = ref 0 in
  let joins = ref 0 in
  let leaves = ref 0 in
  let link_downs = ref 0 in
  let link_ups = ref 0 in
  let partitions = ref 0 in
  let heals = ref 0 in
  let detections = ref 0 in
  let false_suspicions = ref 0 in
  let link_down src dst =
    let key = (src * cap) + dst in
    let down = ref false in
    for i = 0 to !llen - 1 do
      if links.(i) = key then down := true
    done;
    !down
  in
  let send ~src ~dst ~tag ~payload =
    incr sends;
    let cut = !part >= 0 && src < !part <> (dst < !part) in
    if cut || link_down src dst then incr drops
    else
      Calendar.schedule cal
        ~at:(Calendar.now cal + 1 + Rng.int delay_rng 4)
        ~kind:k_deliver ~a:src ~b:dst ~c:tag ~d:payload
  in
  let set_timer ~p ~after =
    Calendar.schedule cal
      ~at:(Calendar.now cal + max 1 after)
      ~kind:k_timer ~a:p ~b:epoch.(p) ~c:0 ~d:0
  in
  let suspect ~observer ~target ~suspected =
    Sample.susp sample ~observer ~target ~suspected;
    let now = Calendar.now cal in
    if suspected then begin
      if Univ.is_live univ target then begin
        incr false_suspicions;
        let key = (observer * cap) + target in
        if not (Itbl.mem fs_open key) then begin
          Itbl.add fs_open key now;
          fs_index.(observer) <- key :: fs_index.(observer);
          fs_index.(target) <- key :: fs_index.(target)
        end
      end
      else if first_detect.(target) < 0 && crash_time.(target) >= 0 then begin
        first_detect.(target) <- now;
        incr detections;
        Stats.add lat (now - crash_time.(target))
      end
    end
    else begin
      let key = (observer * cap) + target in
      match Itbl.find fs_open key with
      | start ->
        Stats.add fs_dur (now - start);
        Itbl.remove fs_open key
      | exception Not_found -> ()
    end
  in
  let ctx =
    { Detector.univ;
      topo = c.topology;
      cal;
      det_rng;
      period;
      send;
      set_timer;
      suspect;
    }
  in
  let det = det_spec.Detector.instantiate ctx in
  (* false-suspicion records involving a process that just died are
     void: the suspicion is no longer false *)
  let purge_fs p =
    List.iter (Itbl.remove fs_open) fs_index.(p);
    fs_index.(p) <- []
  in
  let stop p =
    epoch.(p) <- epoch.(p) + 1;
    det.Detector.on_stop p;
    crash_time.(p) <- Calendar.now cal;
    first_detect.(p) <- -1;
    Sample.clear_row sample p;
    Sample.crash sample p;
    purge_fs p
  in
  let draw_with_status st =
    let n = Univ.count univ in
    let found = ref (-1) in
    let tries = ref 0 in
    while !found < 0 && !tries < 8 do
      let i = Rng.int churn_rng n in
      if Univ.status univ i = st then found := i;
      incr tries
    done;
    !found
  in
  let churn_action () =
    match Churn.pick churn_rng with
    | Churn.Crash ->
      if Univ.live_count univ > 2 then begin
        let p = draw_with_status Univ.live in
        if p >= 0 then begin
          Univ.set_status univ p Univ.crashed;
          stop p;
          incr crashes
        end
      end
    | Churn.Recover -> (
      let p = draw_with_status Univ.crashed in
      if p >= 0 then begin
        Univ.set_status univ p Univ.live;
        epoch.(p) <- epoch.(p) + 1;
        crash_time.(p) <- -1;
        first_detect.(p) <- -1;
        det.Detector.on_start p;
        incr recoveries
      end)
    | Churn.Join -> (
      match Univ.join univ ~ext:(1_000_000_000 + !joins) with
      | Some id ->
        det.Detector.on_start id;
        incr joins
      | None -> ())
    | Churn.Leave ->
      if Univ.live_count univ > 2 then begin
        let p = draw_with_status Univ.live in
        if p >= 0 then begin
          Univ.set_status univ p Univ.left;
          stop p;
          incr leaves
        end
      end
    | Churn.Link_down ->
      if !llen < max_links then begin
        let src = draw_with_status Univ.live in
        let dst = draw_with_status Univ.live in
        if src >= 0 && dst >= 0 && src <> dst then begin
          links.(!llen) <- (src * cap) + dst;
          incr llen;
          incr link_downs
        end
      end
    | Churn.Link_up ->
      if !llen > 0 then begin
        let i = Rng.int churn_rng !llen in
        links.(i) <- links.(!llen - 1);
        decr llen;
        incr link_ups
      end
    | Churn.Partition ->
      if !part < 0 && Univ.count univ >= 2 then begin
        part := 1 + Rng.int churn_rng (Univ.count univ - 1);
        incr partitions
      end
    | Churn.Heal ->
      if !part >= 0 then begin
        part := -1;
        incr heals
      end
  in
  (* boot the universe *)
  for p = 0 to c.procs - 1 do
    det.Detector.on_start p
  done;
  let churn_k =
    if c.churn_rate <= 0.0 then 0
    else max 1 (int_of_float ((1000.0 /. c.churn_rate) +. 0.5))
  in
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < c.events do
    if Calendar.pop cal then begin
      incr processed;
      let k = Calendar.ev_kind cal in
      if k = k_timer then begin
        let p = Calendar.ev_a cal in
        if Calendar.ev_b cal = epoch.(p) && Univ.is_live univ p then det.Detector.on_timer p
      end
      else begin
        let dst = Calendar.ev_b cal in
        if Univ.is_live univ dst then
          det.Detector.on_receive ~src:(Calendar.ev_a cal) ~dst ~tag:(Calendar.ev_c cal)
            ~payload:(Calendar.ev_d cal)
      end;
      if churn_k > 0 && !processed mod churn_k = 0 then churn_action ()
    end
    else continue := false
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let final_dead q =
    let st = Univ.status univ q in
    st = Univ.crashed || st = Univ.left
  in
  let completeness = c.detector = "vcube" in
  let monitor_verdict, monitor_clauses = Sample.finalize sample ~final_dead ~completeness in
  let lat_p50, lat_p95, lat_p99 = Stats.percentiles lat in
  let fs_p50, fs_p95, fs_p99 = Stats.percentiles fs_dur in
  { detector_name = det_spec.Detector.sname;
    procs0 = c.procs;
    requested = c.events;
    processed = !processed;
    vtime = Calendar.now cal;
    final_live = Univ.live_count univ;
    final_count = Univ.count univ;
    crashes = !crashes;
    recoveries = !recoveries;
    joins = !joins;
    leaves = !leaves;
    link_downs = !link_downs;
    link_ups = !link_ups;
    partitions = !partitions;
    heals = !heals;
    sends = !sends;
    drops = !drops;
    detections = !detections;
    lat_p50;
    lat_p95;
    lat_p99;
    false_suspicions = !false_suspicions;
    fs_p50;
    fs_p95;
    fs_p99;
    monitor_verdict;
    monitor_clauses;
    wall_s = wall;
    events_per_s = (if wall > 0.0 then float_of_int !processed /. wall else 0.0);
    peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

let deterministic_summary r =
  Printf.sprintf
    "%s n0=%d ev=%d vt=%d live=%d/%d churn=%d/%d/%d/%d links=%d/%d part=%d/%d msg=%d/%d \
     det=%d lat=%d/%d/%d fs=%d dur=%d/%d/%d mon=%s"
    r.detector_name r.procs0 r.processed r.vtime r.final_live r.final_count r.crashes
    r.recoveries r.joins r.leaves r.link_downs r.link_ups r.partitions r.heals r.sends r.drops
    r.detections r.lat_p50 r.lat_p95 r.lat_p99 r.false_suspicions r.fs_p50 r.fs_p95 r.fs_p99
    (Fmt.str "%a" Verdict.pp r.monitor_verdict)

(* Below this much virtual time the first failure-detection timeout
   (2 periods + slack, doubled a few times under churn) need not have
   fired at all, so zero detections is the expected outcome, not a
   detector failure.  At high procs-per-event ratios the budget runs
   out within a couple of ticks — the CI smoke at 10^4 procs x 10^5
   events is exactly such a run. *)
let detection_horizon = 96

let ok r =
  (match r.monitor_verdict with Verdict.Violated _ -> false | _ -> true)
  && (r.crashes + r.leaves = 0 || r.detections > 0 || r.processed < r.requested
     || r.vtime < detection_horizon)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>detector          %s@,\
     universe          %d initial, %d final (%d live)@,\
     events            %d processed (budget %d), virtual time %d ticks@,\
     churn             %d crashes, %d recoveries, %d joins, %d leaves@,\
     network           %d link cuts, %d repairs, %d partitions, %d heals@,\
     messages          %d sent, %d lost to faults@,\
     detections        %d (latency p50/p95/p99 = %d/%d/%d ticks)@,\
     false suspicions  %d (duration p50/p95/p99 = %d/%d/%d ticks)@,\
     sampled monitor   %a@,\
     throughput        %.0f events/s (%.2fs wall)@,\
     peak heap         %d words (%.1f MB)@]"
    r.detector_name r.procs0 r.final_count r.final_live r.processed r.requested r.vtime
    r.crashes r.recoveries r.joins r.leaves r.link_downs r.link_ups r.partitions r.heals
    r.sends r.drops r.detections r.lat_p50 r.lat_p95 r.lat_p99 r.false_suspicions r.fs_p50
    r.fs_p95 r.fs_p99 Verdict.pp r.monitor_verdict r.events_per_s r.wall_s r.peak_words
    (float_of_int (r.peak_words * 8) /. 1048576.0)
