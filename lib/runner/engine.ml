open Afd_core

type cfg = { jobs : int; root_seed : int; seeds_override : int option }

let default_cfg = { jobs = 1; root_seed = 1; seeds_override = None }

type run = { cfg : cfg; exps : Metrics.exp list }

let cell_seed ~root ~id ~fault_index ~seed_index =
  Afd_ioa.Scheduler.Seed.derive ~root
    ~key:(id ^ "#" ^ string_of_int fault_index)
    ~index:seed_index

(* One schedulable unit: entry ordinal plus cell coordinates. *)
type cell_task = {
  ordinal : int;
  entry : Matrix.entry;
  seed_index : int;
  fault_index : int;
  scheduler_seed : int;
}

let seeds_of cfg (e : Matrix.entry) =
  match cfg.seeds_override with Some n -> n | None -> e.Matrix.seeds

let expand cfg entries =
  List.concat
    (List.mapi
       (fun ordinal (e : Matrix.entry) ->
         List.concat
           (List.mapi
              (fun fault_index _ ->
                List.init (seeds_of cfg e) (fun seed_index ->
                    { ordinal;
                      entry = e;
                      seed_index;
                      fault_index;
                      scheduler_seed =
                        cell_seed ~root:cfg.root_seed ~id:e.Matrix.id
                          ~fault_index ~seed_index;
                    }))
              e.Matrix.faults))
       entries)

let run_cell task =
  let faults = List.nth task.entry.Matrix.faults task.fault_index in
  let outcome =
    try task.entry.Matrix.body ~seed:task.scheduler_seed ~faults
    with e ->
      Metrics.outcome (Verdict.Violated ("exception: " ^ Printexc.to_string e))
  in
  { Metrics.seed_index = task.seed_index;
    fault_index = task.fault_index;
    scheduler_seed = task.scheduler_seed;
    outcome;
  }

let run cfg entries =
  let tasks = Array.of_list (expand cfg entries) in
  let cells = Pool.map ~jobs:cfg.jobs run_cell tasks in
  (* Reassemble per entry, in matrix order: results were stored by cell
     index, so this grouping is independent of domain scheduling. *)
  let exps =
    List.mapi
      (fun ordinal (e : Matrix.entry) ->
        let mine = ref [] in
        Array.iteri
          (fun i c -> if tasks.(i).ordinal = ordinal then mine := c :: !mine)
          cells;
        let mine = List.rev !mine in
        let outcomes = List.map (fun c -> c.Metrics.outcome) mine in
        let rendered =
          String.concat "\n" (e.Matrix.pre_lines @ [ e.Matrix.show outcomes ])
        in
        { Metrics.id = e.Matrix.id;
          section = e.Matrix.section;
          label = e.Matrix.label;
          cells = mine;
          rendered;
        })
      entries
  in
  { cfg; exps }

let verdict_table r =
  let buf = Buffer.create 4096 in
  let last_section = ref None in
  List.iter
    (fun (e : Metrics.exp) ->
      if !last_section <> Some e.section then begin
        Buffer.add_string buf (Printf.sprintf "\n== %s ==\n" e.section);
        last_section := Some e.section
      end;
      Buffer.add_string buf e.rendered;
      Buffer.add_char buf '\n')
    r.exps;
  Buffer.contents buf

let pp fmt r =
  Format.pp_print_string fmt (verdict_table r);
  let cells =
    List.fold_left (fun acc e -> acc + List.length e.Metrics.cells) 0 r.exps
  in
  Format.fprintf fmt "(matrix: %d experiments, %d cells, jobs=%d)@."
    (List.length r.exps) cells r.cfg.jobs
