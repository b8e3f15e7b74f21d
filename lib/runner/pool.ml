(* Claim indices from [next] until exhausted.  The task closure itself
   catches whatever the user function raises (storing it in the result
   slot), so a worker never lets an exception escape before its join. *)
let steal next n task =
  let rec go () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      task i;
      go ()
    end
  in
  go ()

let map ~jobs f arr =
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let task i = results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e) in
    let next = Atomic.make 0 in
    let domains =
      Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> steal next n task))
    in
    (* the caller is a worker too *)
    steal next n task;
    Array.iter Domain.join domains;
    (* Re-raise the first failure in index order, so error reporting
       does not depend on domain interleaving. *)
    Array.map
      (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      results
  end
