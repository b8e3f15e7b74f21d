(* Orbit-reduction rows (SY) for the experiment matrix.

   Each row re-verifies one CHK subject through {!Check.sy_subject}:
   the unreduced and orbit-quotiented model-checking runs must claim
   the same things, and certified subjects additionally climb the
   parametric cutoff ladder.  The cell's [steps] is the total product
   states explored (quotient + unreduced), so the perf gate tracks the
   reduction machinery's throughput alongside the explorers'.  Rows
   are deterministic: pure graph work. *)

module R = Afd_runner
module A = Afd_analysis
module Check = Check

let section = "SY  Orbit reduction (equivariance certificates, cutoff ladders)"

let cap = 6_000

(* [expect] pins the certification outcome itself: a row goes Violated
   when a subject that must certify stops certifying (or vice versa) —
   a regression in the analyzer, not just in the verdicts. *)
let entry ~id ~label ~expect subj =
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      match Check.sy_subject ~max_states:cap subj with
      | Error e ->
        R.Metrics.outcome ~detail:("FAIL: " ^ e) (Afd_core.Verdict.Violated e)
      | Ok r ->
        let ladder =
          match r.Check.sy_parametric with
          | None -> ""
          | Some p ->
            Printf.sprintf "  ladder=%s"
              (match p.A.Mc.par_verdict with
              | A.Mc.Cutoff_candidate { n0; upto } ->
                Printf.sprintf "cutoff-candidate(n0=%d,upto=%d)" n0 upto
              | A.Mc.Proved_upto n -> Printf.sprintf "proved-upto(%d)" n
              | A.Mc.Refuted_at n -> Printf.sprintf "refuted-at(%d)" n
              | A.Mc.Unverified why -> "unverified: " ^ why)
        in
        let detail =
          Printf.sprintf "%s  states=%d raw=%d%s" r.Check.sy_status
            r.Check.sy_states r.Check.sy_raw_states ladder
        in
        let verdict =
          if not r.Check.sy_ok then
            Afd_core.Verdict.Violated "quotiented and unreduced runs disagree"
          else if r.Check.sy_status <> expect then
            Afd_core.Verdict.Violated
              (Printf.sprintf "expected %s, certification said %s" expect
                 r.Check.sy_status)
          else Afd_core.Verdict.Sat
        in
        R.Metrics.outcome
          ~steps:(r.Check.sy_states + r.Check.sy_raw_states)
          ~detail verdict)

let find id =
  List.find
    (fun s -> String.equal (Check.id s) id)
    (Check.subjects @ Check.liveness_subjects)

let entries () =
  [ entry ~id:"SY.p" ~label:"quotient P: FD-P + cutoff ladder"
      ~expect:"certified" (find "CHK.p");
    entry ~id:"SY.s" ~label:"quotient S: FD-P + cutoff ladder"
      ~expect:"certified" (find "CHK.s");
    entry ~id:"SY.sigma" ~label:"quotient Sigma: FD-Sigma + cutoff ladder"
      ~expect:"certified" (find "CHK.sigma");
    entry ~id:"SY.marabout" ~label:"quotient Marabout vs FD-P (refuted ladder)"
      ~expect:"certified" (find "CHK.marabout");
    entry ~id:"SY.omega" ~label:"FD-Omega breaks symmetry (named witness)"
      ~expect:"breaking" (find "CHK.omega");
    entry ~id:"SY.flipflop" ~label:"FD-FlipFlop breaks symmetry (named witness)"
      ~expect:"breaking" (find "CHK.flipflop");
  ]
