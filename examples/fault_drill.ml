(* Fault drill: supervising a PerpLE campaign through injected failures.

   A long verification campaign is only as good as its ability to survive
   runs that hang, crash or silently lose stores.  This example injects
   such faults into the simulated machine and shows the supervision layer
   doing its job:

   1. a certain hang, caught by quiescence detection and salvaged as a
      truncated prefix (checkpoint-resume);
   2. a flaky mix of faults across a 12-run campaign — watchdog aborts,
      retries with backed-off budgets, salvage — with the ledger printed
      per run;
   3. the same campaign with faults disabled, confirming the supervised
      pipeline degrades nothing when nothing goes wrong.

   Run with: dune exec examples/fault_drill.exe *)

module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Fault = Perple_sim.Fault
module Engine = Perple_core.Engine
module Supervisor = Perple_harness.Supervisor
module Rng = Perple_util.Rng

let fault kind probability = { Fault.kind; probability }

let report_line i (report : Engine.report) =
  let sup = Option.get report.Engine.supervision in
  Printf.printf "  run %2d: %-9s  attempts %d  salvaged %d/%d  rounds %d%s\n"
    i
    (Supervisor.outcome_name sup.Supervisor.outcome)
    (List.length sup.Supervisor.attempts)
    report.Engine.salvaged_iterations report.Engine.requested_iterations
    sup.Supervisor.total_rounds
    (if report.Engine.degraded then "  [degraded]" else "")

let campaign ~name ~faults ~seed ~runs ~iterations =
  Printf.printf "%s (faults: %s)\n" name (Fault.profile_to_string faults);
  let policy = Supervisor.default_policy ~iterations in
  let config = Config.with_faults faults Config.default in
  let rng = Rng.create seed in
  let degraded = ref 0 in
  for i = 1 to runs do
    let run_seed = Int64.to_int (Rng.bits64 rng) land max_int in
    match
      Engine.run ~config ~policy ~seed:run_seed ~iterations Catalog.sb
    with
    | Error _ -> assert false
    | Ok report ->
      report_line i report;
      if report.Engine.degraded then incr degraded
  done;
  Printf.printf "  => %d/%d runs degraded\n\n" !degraded runs

let () =
  (* 1. A guaranteed hang: every thread stops at a random iteration.  The
     machine quiesces, the supervisor retries with halved budgets, and the
     best partial prefix is salvaged rather than thrown away. *)
  campaign ~name:"certain hang, salvage drill"
    ~faults:[ fault Fault.Hang 1.0 ]
    ~seed:11 ~runs:3 ~iterations:4_000;

  (* 2. A flaky environment: occasional hangs and crashes plus a whiff of
     silent store loss.  Most runs are clean; the faulty ones are caught,
     retried and salvaged, and the campaign completes every time. *)
  campaign ~name:"flaky campaign"
    ~faults:
      [
        fault Fault.Hang 0.08;
        fault Fault.Crash 0.08;
        fault Fault.Store_loss 0.002;
      ]
    ~seed:23 ~runs:12 ~iterations:4_000;

  (* 3. Faults off: supervision is pure overhead accounting — every run
     completes on its first attempt, nothing is degraded. *)
  campaign ~name:"control (no faults)" ~faults:[] ~seed:23 ~runs:12
    ~iterations:4_000
