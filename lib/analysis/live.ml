open Afd_ioa

type scc = {
  id : int;
  members : int list;
  internal : int list;
  terminal : bool;
  unmet : string list;
  disabled_witness : (string * int) list;
  fair_stops : int list;
}

(* The condensation over flat arrays.  [mem] lists every SCC's members
   ascending, SCC [c]'s at [mem_off.(c) ..< mem_off.(c + 1)]; [int_edges]
   lists its internal task edges (edge indices, ascending) the same way
   through [int_off].  Fair tasks are numbered in task-list order. *)
type t = {
  scc_of : int array;
  mem_off : int array;
  mem : int array;
  int_off : int array;
  int_edges : int array;
  fair_names : string array;
  disabled : int -> int -> bool;  (* fair task, state: not enabled there *)
  fair_cycle : Bytes.t;  (* per SCC: an internal edge and every obligation met *)
  stop : Bytes.t;  (* per state, memoized fair stop: 0 unknown, 1 no, 2 yes *)
  records : scc array Lazy.t;
}

(* Compressed successor lists of the task-labelled edges: state [v]'s
   successors are [dst.(off.(v)) ..< dst.(off.(v + 1))], in reverse edge
   order — the order a list built by consing the edges in order holds
   them.  Probed environment actions are not under the scheduler's
   control, so they neither form autonomous cycles nor discharge
   fairness obligations. *)
let task_csr nstates (edges : _ Space.edge array) =
  let off = Array.make (nstates + 1) 0 in
  Array.iter
    (fun e ->
      if Option.is_some e.Space.task then
        off.(e.Space.src + 1) <- off.(e.Space.src + 1) + 1)
    edges;
  for v = 1 to nstates do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let fill = Array.sub off 0 nstates in
  let dst = Array.make off.(nstates) 0 in
  for ei = Array.length edges - 1 downto 0 do
    let e = edges.(ei) in
    if Option.is_some e.Space.task then begin
      dst.(fill.(e.Space.src)) <- e.Space.dst;
      fill.(e.Space.src) <- fill.(e.Space.src) + 1
    end
  done;
  (off, dst)

(* Tarjan, iterative over int arrays: the call stack holds each open
   vertex and the position of its next successor, so product graphs in
   the tens of thousands of states cannot blow the OCaml stack.  A
   vertex is on Tarjan's stack exactly while it is visited and not yet
   assigned to an SCC. *)
let condense nstates off dst =
  let index = Array.make nstates (-1) in
  let lowlink = Array.make nstates 0 in
  let scc_of = Array.make nstates (-1) in
  let tarjan = Array.make nstates 0 and tsp = ref 0 in
  let call_v = Array.make nstates 0 and call_k = Array.make nstates 0 and top = ref 0 in
  let counter = ref 0 and scc_count = ref 0 in
  let push v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    tarjan.(!tsp) <- v;
    incr tsp;
    call_v.(!top) <- v;
    call_k.(!top) <- off.(v);
    incr top
  in
  for root = 0 to nstates - 1 do
    if index.(root) < 0 then begin
      push root;
      while !top > 0 do
        let f = !top - 1 in
        let v = call_v.(f) and k = call_k.(f) in
        if k < off.(v + 1) then begin
          call_k.(f) <- k + 1;
          let w = dst.(k) in
          if index.(w) < 0 then push w
          else if scc_of.(w) < 0 then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          top := f;
          if f > 0 then begin
            let u = call_v.(f - 1) in
            lowlink.(u) <- min lowlink.(u) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let id = !scc_count in
            incr scc_count;
            let continue = ref true in
            while !continue do
              decr tsp;
              let w = tarjan.(!tsp) in
              scc_of.(w) <- id;
              continue := w <> v
            done
          end
        end
      done
    end
  done;
  (scc_of, !scc_count)

(* Bucket [0 ..< len] by [key] (values in [0 ..< buckets]) where [keep]
   holds, ascending within each bucket: offsets and the flat items. *)
let bucket buckets len key keep =
  let off = Array.make (buckets + 1) 0 in
  for i = 0 to len - 1 do
    if keep i then off.(key i + 1) <- off.(key i + 1) + 1
  done;
  for c = 1 to buckets do
    off.(c) <- off.(c) + off.(c - 1)
  done;
  let fill = Array.sub off 0 buckets in
  let items = Array.make off.(buckets) 0 in
  for i = 0 to len - 1 do
    if keep i then begin
      items.(fill.(key i)) <- i;
      fill.(key i) <- fill.(key i) + 1
    end
  done;
  (off, items)

let slice items off c = Array.to_list (Array.sub items off.(c) (off.(c + 1) - off.(c)))
let members t c = slice t.mem t.mem_off c
let internal t c = slice t.int_edges t.int_off c
let fair_tasks t = Array.to_list t.fair_names

let fair_stop_at t i =
  match Bytes.get t.stop i with
  | '\001' -> false
  | '\002' -> true
  | _ ->
    let nfair = Array.length t.fair_names in
    let rec all_disabled f = f >= nfair || (t.disabled f i && all_disabled (f + 1)) in
    let r = all_disabled 0 in
    Bytes.set t.stop i (if r then '\002' else '\001');
    r

(* The first member of SCC [c] (ascending) where fair task [f] is
   disabled. *)
let witness t c f =
  let rec go k =
    if k >= t.mem_off.(c + 1) then None
    else if t.disabled f t.mem.(k) then Some t.mem.(k)
    else go (k + 1)
  in
  go t.mem_off.(c)

(* Per fair task with one, in task-list order: its name and the first
   member of SCC [c] where it is disabled. *)
let disabled_witness t c =
  List.concat
    (List.mapi
       (fun f name -> match witness t c f with Some m -> [ (name, m) ] | None -> [])
       (fair_tasks t))

(* The records, as the lint rules read them: built once, on first
   request, from the same arrays. *)
let build_records t (edges : _ Space.edge array) =
  let nsccs = Array.length t.int_off - 1 in
  let has_exit = Array.make nsccs false in
  Array.iter
    (fun e ->
      let cs = t.scc_of.(e.Space.src) in
      if Option.is_some e.Space.task && cs <> t.scc_of.(e.Space.dst) then
        has_exit.(cs) <- true)
    edges;
  Array.init nsccs (fun c ->
      let internal = internal t c in
      let fires = List.filter_map (fun ei -> edges.(ei).Space.task) internal in
      let disabled_witness = disabled_witness t c in
      let members = members t c in
      { id = c;
        members;
        internal;
        terminal = not has_exit.(c);
        unmet =
          List.filter
            (fun name ->
              (not (List.mem name fires)) && not (List.mem_assoc name disabled_witness))
            (fair_tasks t);
        disabled_witness;
        fair_stops = List.filter (fair_stop_at t) members;
      })

let analyze aut space =
  let nstates = Array.length space.Space.states in
  let edges = space.Space.edges in
  let scc_of, nsccs =
    let off, dst = task_csr nstates edges in
    condense nstates off dst
  in
  let mem_off, mem = bucket nsccs nstates (fun i -> scc_of.(i)) (fun _ -> true) in
  let internal_at ei =
    let e = edges.(ei) in
    Option.is_some e.Space.task && scc_of.(e.Space.src) = scc_of.(e.Space.dst)
  in
  let int_off, int_edges =
    bucket nsccs (Array.length edges) (fun ei -> scc_of.(edges.(ei).Space.src)) internal_at
  in
  let fair = Array.of_list (List.filter (fun tk -> tk.Automaton.fair) aut.Automaton.tasks) in
  let fair_names = Array.map (fun tk -> tk.Automaton.task_name) fair in
  (* A fair task's class is the first fair task of its name. *)
  let class_of = Hashtbl.create 16 in
  Array.iteri
    (fun f name -> if not (Hashtbl.mem class_of name) then Hashtbl.add class_of name f)
    fair_names;
  let fair_class = Array.map (Hashtbl.find class_of) fair_names in
  let states = space.Space.states in
  let rec t =
    { scc_of;
      mem_off;
      mem;
      int_off;
      int_edges;
      fair_names;
      disabled = (fun f i -> Option.is_none (fair.(f).Automaton.enabled states.(i)));
      fair_cycle = Bytes.make nsccs '\000';
      stop = Bytes.make nstates '\000';
      records = lazy (build_records t edges);
    }
  in
  (* Per SCC with an internal edge: a fair task's name is met when an
     internal edge fires it or some member disables a fair task of
     that name; the SCC carries a fair cycle when every name is met. *)
  let nfair = Array.length fair in
  let met = Array.make nfair false in
  for c = 0 to nsccs - 1 do
    if int_off.(c + 1) > int_off.(c) then begin
      Array.fill met 0 nfair false;
      for k = int_off.(c) to int_off.(c + 1) - 1 do
        Option.iter
          (fun name -> Option.iter (fun f -> met.(f) <- true) (Hashtbl.find_opt class_of name))
          edges.(int_edges.(k)).Space.task
      done;
      for f = 0 to nfair - 1 do
        if (not met.(fair_class.(f))) && Option.is_some (witness t c f) then
          met.(fair_class.(f)) <- true
      done;
      if Array.for_all (fun f -> met.(f)) fair_class then Bytes.set t.fair_cycle c '\001'
    end
  done;
  t

let scc_count t = Array.length t.int_off - 1
let scc_of t i = t.scc_of.(i)
let sccs t = Lazy.force t.records
let fair_cycle_through t i = Bytes.get t.fair_cycle t.scc_of.(i) = '\001'

(* Shortest intra-SCC edge path from [src] to [dst], as edge indices.
   Total within an SCC by strong connectivity of the task subgraph. *)
let bfs_path edges adj src dst =
  if src = dst then []
  else begin
    let pred = Hashtbl.create 16 in
    Hashtbl.replace pred src (-1);
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun ei ->
          let w = edges.(ei).Space.dst in
          if (not !found) && not (Hashtbl.mem pred w) then begin
            Hashtbl.replace pred w ei;
            if w = dst then found := true else Queue.add w q
          end)
        (Option.value ~default:[] (Hashtbl.find_opt adj v))
    done;
    if not !found then invalid_arg "Live.cycle_actions: SCC not strongly connected";
    let rec walk w acc =
      match Hashtbl.find pred w with
      | -1 -> acc
      | ei -> walk edges.(ei).Space.src (ei :: acc)
    in
    walk dst []
  end

let cycle_actions space t pivot =
  if not (fair_cycle_through t pivot) then
    invalid_arg "Live.cycle_actions: no fair cycle through this state";
  let c = t.scc_of.(pivot) in
  let internal = internal t c in
  let edges = space.Space.edges in
  let adj = Hashtbl.create 16 in
  List.iter
    (fun ei ->
      let src = edges.(ei).Space.src in
      Hashtbl.replace adj src
        (Option.value ~default:[] (Hashtbl.find_opt adj src) @ [ ei ]))
    internal;
  let disabled_witness = disabled_witness t c in
  (* One witness waypoint per fair task: prefer an internal edge firing
     the task (the closed walk then fires it every round); otherwise a
     member where the task is disabled (weak fairness is vacuous there
     every round).  A fair cycle guarantees one of the two exists. *)
  let waypoints =
    List.filter_map
      (fun name ->
        match List.find_opt (fun ei -> edges.(ei).Space.task = Some name) internal with
        | Some ei -> Some (`Edge ei)
        | None -> (
          match List.assoc_opt name disabled_witness with
          | Some m -> if m = pivot then None else Some (`State m)
          | None ->
            (* the task is disabled on every member (no witness search
               needed beyond the first), or it never appears: either
               way the pivot itself discharges it *)
            None))
      (fair_tasks t)
  in
  let stitch hops =
    let cur = ref pivot and acc = ref [] in
    List.iter
      (fun hop ->
        match hop with
        | `Edge ei ->
          acc := !acc @ bfs_path edges adj !cur edges.(ei).Space.src @ [ ei ];
          cur := edges.(ei).Space.dst
        | `State m ->
          acc := !acc @ bfs_path edges adj !cur m;
          cur := m)
      hops;
    !acc @ bfs_path edges adj !cur pivot
  in
  let cycle = stitch waypoints in
  (* All obligations were met by disabled states at or near the pivot:
     force at least one real edge so the walk is a cycle, not a point. *)
  let cycle =
    if cycle <> [] then cycle else stitch [ `Edge (List.hd internal) ]
  in
  List.map (fun ei -> edges.(ei).Space.act) cycle

let fired_actions space ~equal actions =
  let acts = Array.of_list actions in
  let seen = Array.make (Array.length acts) false in
  let remaining = ref (Array.length acts) in
  (try
     Array.iter
       (fun e ->
         if !remaining = 0 then raise Exit;
         Array.iteri
           (fun i a ->
             if (not seen.(i)) && equal a e.Space.act then begin
               seen.(i) <- true;
               decr remaining
             end)
           acts)
       space.Space.edges
   with Exit -> ());
  seen
