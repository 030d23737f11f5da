module Ast = Perple_litmus.Ast
module Config = Perple_sim.Config
module Operational = Perple_memmodel.Operational
module Solver = Perple_memmodel.Solver
module Perpetual = Perple_harness.Perpetual
module Machine = Perple_sim.Machine

(* Whole-trace verification of a perpetual run: every recorded iteration's
   loads are decoded back to the exact store that produced them (the
   sequenced values make reads-from unambiguous), the run unrolls into one
   flat event trace, and {!Solver.classify_trace} checks it against the
   model's axioms directly — no per-iteration outcome extraction, no
   enumeration.  This is the classification the report layer trusts for
   runs far beyond the operational enumerator's reach. *)

let spec_model = function
  | Config.Sc -> Operational.Sc
  | Config.Tso -> Operational.Tso
  | Config.Pso -> Operational.Pso
  (* The planted bugs are deviations from TSO; their traces are judged
     against the honest model, which is how the checker detects them. *)
  | Config.Tso_store_reorder | Config.Tso_fence_ignored -> Operational.Tso

(* Per-thread instruction skeleton: flushes are ordering-irrelevant in the
   volatile axioms (no rf/ws/fr can touch them), so they are dropped and
   the remaining instructions renumbered densely. *)
type slot_kind =
  | S_write of string
  | S_read of string * int  (* location, load slot *)
  | S_fence

let skeleton test =
  Array.map
    (fun program ->
      let slot = ref 0 in
      Array.to_list program
      |> List.filter_map (fun instr ->
             match instr with
             | Ast.Store (x, _) -> Some (S_write x)
             | Ast.Load (_, x) ->
               let s = !slot in
               incr slot;
               Some (S_read (x, s))
             | Ast.Mfence | Ast.Drain -> Some S_fence
             | Ast.Flush _ -> None)
      |> Array.of_list)
    test.Ast.threads

exception Undecodable of string

let trace_of_run (conv : Convert.t) (run : Perpetual.run) =
  let test = conv.Convert.test in
  let skel = skeleton test in
  let nthreads = Array.length skel in
  let retired =
    let arr = run.Perpetual.machine.Machine.iterations_retired in
    Array.init nthreads (fun t -> if t < Array.length arr then arr.(t) else 0)
  in
  let loc_names = Array.of_list (Ast.locations test) in
  let loc_id x =
    let rec find i = if loc_names.(i) = x then i else find (i + 1) in
    find 0
  in
  (* Event position of an instruction within one skeleton iteration, and
     among the iteration's stores alone (the layout of unretired trailing
     iterations, which carry only stores a reader observed). *)
  let per_instr () =
    Array.map (fun p -> Array.make (Array.length p) 0) test.Ast.threads
  in
  let full_pos = per_instr () and store_pos = per_instr () in
  let stores_per_iter = Array.make nthreads 0 in
  Array.iteri
    (fun t program ->
      let pos = ref 0 and spos = ref 0 in
      Array.iteri
        (fun instr_index instr ->
          match instr with
          | Ast.Store _ ->
            full_pos.(t).(instr_index) <- !pos;
            store_pos.(t).(instr_index) <- !spos;
            incr pos;
            incr spos
          | Ast.Load _ | Ast.Mfence | Ast.Drain -> incr pos
          | Ast.Flush _ -> ())
        program;
      stores_per_iter.(t) <- !spos)
    test.Ast.threads;
  (* Per (thread, load slot) location, by name and by id. *)
  let slot_loc =
    Array.map
      (fun skel_t ->
        Array.to_list skel_t
        |> List.filter_map (function S_read (x, _) -> Some x | _ -> None)
        |> Array.of_list)
      skel
  in
  let slot_lid = Array.map (Array.map loc_id) slot_loc in
  let decode t i s =
    let value = run.Perpetual.bufs.(t).((run.Perpetual.t_reads.(t) * i) + s) in
    match Convert.decode conv ~loc_id:slot_lid.(t).(s) ~value with
    | Some d -> d
    | None ->
      raise
        (Undecodable
           (Printf.sprintf
              "thread %d iteration %d slot %d: value %d decodes to no store \
               of [%s]"
              t i s value slot_loc.(t).(s)))
  in
  (* First pass: decode every recorded load, extending write horizons to
     cover stores observed from an iteration the writer has not fully
     retired.  The second pass decodes again rather than keep the
     results. *)
  let horizon = Array.copy retired in
  for t = 0 to nthreads - 1 do
    for i = 0 to retired.(t) - 1 do
      for s = 0 to run.Perpetual.t_reads.(t) - 1 do
        match decode t i s with
        | Convert.Initial -> ()
        | Convert.Member { store; iteration } ->
          let w = store.Convert.thread in
          horizon.(w) <- max horizon.(w) (iteration + 1)
      done
    done
  done;
  (* Global ids, thread-major: [retired] full skeleton iterations, then
     store-only unretired iterations up to the horizon. *)
  let per_iter = Array.map Array.length skel in
  let offsets = Array.make nthreads 0 in
  let total = ref 0 in
  for t = 0 to nthreads - 1 do
    offsets.(t) <- !total;
    total :=
      !total
      + (retired.(t) * per_iter.(t))
      + ((horizon.(t) - retired.(t)) * stores_per_iter.(t))
  done;
  let id_of_store (store : Convert.store) ~iteration =
    let t = store.Convert.thread and instr = store.Convert.instr_index in
    if iteration < retired.(t) then
      offsets.(t) + (iteration * per_iter.(t)) + full_pos.(t).(instr)
    else
      offsets.(t)
      + (retired.(t) * per_iter.(t))
      + ((iteration - retired.(t)) * stores_per_iter.(t))
      + store_pos.(t).(instr)
  in
  Array.init nthreads (fun t ->
      let full = retired.(t) * per_iter.(t) in
      let tail = (horizon.(t) - retired.(t)) * stores_per_iter.(t) in
      (* immutable, so one value per skeleton write serves every
         iteration *)
      let writes =
        Array.map
          (function
            | S_write x -> Solver.T_write x
            | S_fence | S_read _ -> Solver.T_fence)
          skel.(t)
      in
      let tail_stores =
        Array.to_list writes
        |> List.filter (function Solver.T_write _ -> true | _ -> false)
        |> Array.of_list
      in
      let trace = Array.make (full + tail) Solver.T_fence in
      for i = 0 to retired.(t) - 1 do
        Array.iteri
          (fun idx skel_ev ->
            trace.((i * per_iter.(t)) + idx) <-
              (match skel_ev with
              | S_read (x, s) ->
                Solver.T_read
                  ( x,
                    match decode t i s with
                    | Convert.Initial -> None
                    | Convert.Member { store; iteration } ->
                      Some (id_of_store store ~iteration) )
              | S_write _ | S_fence -> writes.(idx)))
          skel.(t)
      done;
      (* an unretired iteration observed through another thread's read:
         only its stores are certain to have executed *)
      for j = 0 to tail - 1 do
        trace.(full + j) <- tail_stores.(j mod stores_per_iter.(t))
      done;
      trace)

let verify ~model conv run =
  match trace_of_run conv run with
  | threads -> Solver.classify_trace model threads
  | exception Undecodable msg ->
    {
      Solver.consistent = false;
      events = 0;
      violation = Some ("undecodable read: " ^ msg);
      decisions = 0;
      backtracks = 0;
    }
