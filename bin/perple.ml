(* perple — command-line front end for the PerpLE reproduction.

   Subcommands mirror the PerpLE workflow (paper, Fig 3): inspect litmus
   tests, convert them to perpetual form, run them on the simulated machine
   with either outcome counter, run the litmus7-style baseline, emit the
   Converter's C/assembly artifacts, and regenerate the paper's tables and
   figures. *)

open Cmdliner
module Ast = Perple_litmus.Ast
module Parser = Perple_litmus.Parser
module Printer = Perple_litmus.Printer
module Outcome = Perple_litmus.Outcome
module Catalog = Perple_litmus.Catalog
module Operational = Perple_memmodel.Operational
module Axiomatic = Perple_memmodel.Axiomatic
module Solver = Perple_memmodel.Solver
module Trace_check = Perple_core.Trace_check
module Config = Perple_sim.Config
module Fault = Perple_sim.Fault
module Sync_mode = Perple_harness.Sync_mode
module Litmus7 = Perple_harness.Litmus7
module Supervisor = Perple_harness.Supervisor
module Convert = Perple_core.Convert
module Outcome_convert = Perple_core.Outcome_convert
module Engine = Perple_core.Engine
module Codegen = Perple_core.Codegen
module Report = Perple_report

let load_test spec =
  if Sys.file_exists spec && not (Sys.is_directory spec) then begin
    match Parser.parse_file spec with
    | Ok test -> Ok test
    | Error e -> Error (Format.asprintf "%s: %a" spec Parser.pp_error e)
  end
  else begin
    match Catalog.find spec with
    | Some entry -> Ok entry.Catalog.test
    | None ->
      Error
        (Printf.sprintf
           "unknown test %S (not a catalog name or a readable file); try \
            'perple list'"
           spec)
  end

(* A usage error: the message every command prints for an [Error], and
   exit 1 (cmdliner's own parse errors exit 124). *)
let usage_error m =
  prerr_endline ("perple: " ^ m);
  Stdlib.exit 1

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

(* --- campaign spec ---------------------------------------------------------

   The arguments below are validated while cmdliner evaluates them, so a
   bad value exits 1 with a [perple: FLAG must be RULE] message before
   any command body runs. *)

let must_be flag rule = usage_error (Printf.sprintf "%s must be %s" flag rule)

let at_least lo flag v =
  if v >= lo then v
  else must_be flag (if lo > 0 then "positive" else "non-negative")

let bounded lo flag arg = Term.(const (at_least lo flag) $ arg)
let bounded_opt lo flag arg = Term.(const (Option.map (at_least lo flag)) $ arg)

(* A flag over a closed set of names, parsed and printed by the name
   table that owns its type. *)
let enum_conv ~expected of_name name =
  Arg.conv
    ( (fun s ->
        Option.to_result ~none:(`Msg ("expected " ^ expected)) (of_name s)),
      fun ppf v -> Format.pp_print_string ppf (name v) )

let load_or_exit spec =
  match load_test spec with Ok test -> test | Error m -> usage_error m

let test_arg =
  let doc =
    "Catalog test name (see $(b,perple list)) or path to a .litmus file."
  in
  Term.(
    const load_or_exit
    $ Arg.(required & pos 0 (some string) None & info [] ~docv:"TEST" ~doc))

let runs_arg ~default doc =
  Arg.(value & opt int default & info [ "runs" ] ~docv:"R" ~doc)

(* -n, --seed and the campaign size, checked together by the engine's
   campaign rule — the rule the daemon applies to submitted specs. *)
let sizes_term runs =
  let name = function
    | Engine.Runs -> "--runs"
    | Engine.Iterations -> "-n"
    | Engine.Seed -> "--seed"
  in
  let check iterations seed runs =
    match Engine.check_campaign ~name ~runs ~iterations ~seed () with
    | Ok () -> (iterations, seed, runs)
    | Error m -> usage_error m
  in
  Term.(
    const check
    $ Arg.(
        value & opt int 10_000
        & info [ "n"; "iterations" ] ~docv:"N"
            ~doc:"Number of test iterations N (positive).")
    $ Arg.(
        value & opt int 42
        & info [ "seed" ] ~docv:"SEED"
            ~doc:
              "PRNG seed (non-negative); equal seeds reproduce runs \
               exactly.")
    $ runs)

let model_arg =
  let doc =
    "Simulated hardware model: $(b,sc), $(b,tso) (default), $(b,pso), \
     $(b,tso+store-reorder-bug) or $(b,tso+fence-ignored-bug)."
  in
  let model_conv =
    enum_conv
      ~expected:
        "sc, tso, pso, tso+store-reorder-bug or tso+fence-ignored-bug"
      Config.model_of_name Config.model_name
  in
  Arg.(value & opt model_conv Config.Tso & info [ "model" ] ~docv:"MODEL" ~doc)

let config_of_model model = Config.with_model model Config.default

let stress_arg =
  bounded 0 "--stress"
    Arg.(
      value & opt int 0
      & info [ "stress" ] ~docv:"K"
          ~doc:
            "Add $(docv) stress threads (non-negative) hammering scratch \
             locations (paper, Sec II-B1).")

let jobs_arg =
  bounded 1 "--jobs"
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Distribute campaign runs over $(docv) domains (positive).  \
             Per-run seeds are pre-split from the campaign seed, so output \
             is bit-identical for every $(docv).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append every completed run to $(docv) as a CRC-checksummed, \
           fsync'd record the moment it retires, so an interrupted campaign \
           can be continued with $(b,--resume).  Refuses to overwrite an \
           existing journal unless resuming.")

type journal = { path : string; resume : bool }

(* Every resumable subcommand (run, supervise, crash-suite) takes its
   journal through this term, so --resume without --journal fails
   immediately with the same actionable message. *)
let journal_term =
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue the campaign recorded in $(b,--journal): journaled \
             runs are replayed from the journal and only the missing ones \
             execute.  Per-run seeds are pre-split from the campaign seed, \
             so the resumed ledger is byte-identical to an uninterrupted \
             one.  The journal must match this command's configuration \
             digest.")
  in
  let pick journal resume =
    match journal with
    | Some path -> Some { path; resume }
    | None when resume ->
      usage_error
        "--resume requires --journal FILE: resume continues the campaign \
         recorded in that journal, so pass the same --journal path the \
         interrupted command used"
    | None -> None
  in
  Term.(const pick $ journal_arg $ resume_arg)

type campaign = {
  test : Ast.t;
  iterations : int;
  seed : int;
  model : Config.model;
  stress : int;
  runs : int;
  jobs : int;
  journal : journal option;
}

(* The spec every campaign command shares; [runs] carries the command's
   own default and doc. *)
let campaign_term runs =
  let make test (iterations, seed, runs) model stress jobs journal =
    { test; iterations; seed; model; stress; runs; jobs; journal }
  in
  Term.(
    const make $ test_arg $ sizes_term runs $ model_arg $ stress_arg
    $ jobs_arg $ journal_term)

(* --- output files --------------------------------------------------------- *)

(* Refuse an output path whose directory is missing, or that names a file
   where a directory is wanted (or the reverse), before any work. *)
let output_path ~dir flag path =
  let refuse why = usage_error (Printf.sprintf "%s %s: %s" flag path why) in
  let parent = Filename.dirname path in
  if Sys.file_exists path then
    if Sys.is_directory path = dir then path
    else refuse (if dir then "not a directory" else "is a directory")
  else if not (Sys.file_exists parent) then
    refuse (Printf.sprintf "directory %s does not exist" parent)
  else if not (Sys.is_directory parent) then
    refuse (Printf.sprintf "%s is not a directory" parent)
  else path

(* Turn an I/O exception from [f] into a classified error. *)
let io_errors what f =
  try f () with
  | Unix.Unix_error (e, op, arg) ->
    fail "%s: %s %s: %s" what op arg (Unix.error_message e)
  | Sys_error m -> fail "%s: %s" what m

(* --- observability -------------------------------------------------------- *)

type observe = { trace : string option; metrics : string option }

let observe_term =
  let file long doc =
    let check = Option.map (output_path ~dir:false ("--" ^ long)) in
    Term.(
      const check
      $ Arg.(value & opt (some string) None & info [ long ] ~docv:"FILE" ~doc))
  in
  Term.(
    const (fun trace metrics -> { trace; metrics })
    $ file "trace"
        "Record spans across the pipeline (engine, machine, counters, \
         supervisor, pool) and write them to $(docv) as Chrome trace-event \
         JSON (loadable in chrome://tracing or Perfetto).  Observation \
         only: the printed ledger is byte-identical with or without \
         tracing."
    $ file "metrics"
        "Write a JSON summary of deterministic pipeline counters (machine \
         rounds, counter evaluations, supervisor retries, ...) to $(docv).  \
         The summary is bit-identical for any $(b,--jobs) value and with or \
         without $(b,--trace).")

(* Install ambient sinks for [f], then write the requested files; a file
   that cannot be written fails the command.  Notes go to stderr so the
   stdout ledger stays byte-identical with and without observability. *)
let with_observability obs f =
  let module Tr = Perple_util.Trace_event in
  let module Mx = Perple_util.Metrics in
  let tsink = Option.map (fun _ -> Tr.create_sink ()) obs.trace in
  let msink = Option.map (fun _ -> Mx.create_sink ()) obs.metrics in
  Option.iter Tr.install tsink;
  Option.iter Mx.install msink;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Tr.uninstall ();
        Mx.uninstall ())
      f
  in
  let written =
    io_errors "--trace/--metrics" @@ fun () ->
    (match (obs.trace, tsink) with
    | Some path, Some sink ->
      Tr.write sink ~path;
      Printf.eprintf "perple: wrote %d trace events to %s\n%!"
        (Tr.length sink) path
    | _ -> ());
    (match (obs.metrics, msink) with
    | Some path, Some sink ->
      Mx.write sink ~path;
      Printf.eprintf "perple: wrote metrics summary to %s\n%!" path
    | _ -> ());
    Ok ()
  in
  match written with Error m when Result.is_ok result -> Error m | _ -> result

let wrap f =
  let report = function Ok () -> () | Error m -> usage_error m in
  Term.(const report $ f)

(* --- durability: campaign journal and resume ------------------------------ *)

module Journal = Perple_util.Journal
module Ledger = Perple_core.Ledger

(* How a journal stores one unit of a campaign: run/supervise journal one
   record of kind "run" per run, crash-suite one of kind "point" per
   crash point. *)
type 'a records = {
  kind : string;
  what : string;  (* the units, plural, for messages *)
  of_record : Perple_util.Json.t -> ('a, string) result;
  to_record : 'a -> Perple_util.Json.t;
  index_of : 'a -> int;
}

(* Validate and ingest a journal being resumed: header digest and unit
   count must match this command, and every record must parse and pass
   the command's own [validate] (run campaigns check the journaled seed
   against the pre-split one; crash suites are deterministic and need no
   extra check).  Damaged trailing bytes were already dropped by
   {!Journal.load}; compaction below rewrites the file without them (and
   without interrupted markers) before reopening for append. *)
let ingest_journal ~path ~command ~digest ~runs ~records ~validate recovery =
  let open Journal in
  if recovery.dropped_bytes > 0 then
    Printf.eprintf
      "perple: journal %s: dropped %d damaged trailing bytes (kept %d \
       intact)\n%!"
      path recovery.dropped_bytes recovery.valid_bytes;
  let cannot_resume r = Result.map_error (( ^ ) "cannot resume: ") r in
  let* header, rest =
    match recovery.records with
    | [] -> fail "cannot resume: journal %s holds no intact records" path
    | header :: rest -> Ok (header, rest)
  in
  let* h = cannot_resume (Ledger.parse_header header) in
  let* () =
    if h.Ledger.h_command <> command then
      fail
        "cannot resume: journal %s was written by 'perple %s', not 'perple \
         %s'"
        path h.Ledger.h_command command
    else if h.Ledger.h_digest <> digest then
      fail
        "cannot resume: journal %s was written under a different \
         configuration; rerun with the original arguments (only --jobs, \
         --trace and --metrics may change)"
        path
    else if h.Ledger.h_runs <> runs then
      fail "cannot resume: journal %s covers %d %s, this command asks for %d"
        path h.Ledger.h_runs records.what runs
    else Ok ()
  in
  let completed = Hashtbl.create 16 in
  let ingest r =
    match Ledger.kind r with
    | Some "interrupted" -> Ok ()
    | Some k when k = records.kind ->
      let* s = cannot_resume (records.of_record r) in
      let i = records.index_of s in
      if i < 0 || i >= runs then
        fail "cannot resume: journal %s has %s index %d out of range" path
          records.kind i
      else
        let* () = validate i s in
        Ok (Hashtbl.replace completed i s)
    | Some k ->
      fail "cannot resume: journal %s has an unexpected %S record" path k
    | None -> fail "cannot resume: journal %s has a record without a kind" path
  in
  let* () =
    List.fold_left (fun acc r -> Result.bind acc (fun () -> ingest r)) (Ok ())
      rest
  in
  let indices =
    List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) completed [])
  in
  Journal.compact ~path
    (header
    :: List.map (fun i -> records.to_record (Hashtbl.find completed i)) indices
    );
  let j = Journal.open_append path in
  Printf.eprintf "perple: resuming: %d of %d %s journaled in %s\n%!"
    (Hashtbl.length completed) runs records.what path;
  Ok (completed, Some j)

let open_journal ~journal ~command ~digest ~runs ~records ~validate =
  match journal with
  | None -> Ok (Hashtbl.create 1, None)
  | Some { path; resume = false } ->
    if Sys.file_exists path then
      fail
        "journal %s already exists; pass --resume to continue it or remove \
         it first"
        path
    else
      io_errors "journal" @@ fun () ->
      let j = Journal.create path in
      Journal.append j
        (Ledger.header_to_json
           { Ledger.h_command = command; h_digest = digest; h_runs = runs });
      Ok (Hashtbl.create 16, Some j)
  | Some { path; resume = true } -> (
    io_errors "journal" @@ fun () ->
    match Journal.load path with
    | Error m -> fail "cannot resume: %s" m
    | Ok recovery ->
      ingest_journal ~path ~command ~digest ~runs ~records ~validate
        recovery)

(* While a journaled campaign runs, SIGINT/SIGTERM flush an interrupted
   marker (via the handler-safe {!Journal.try_append}) and point at
   --resume; completed runs are already on disk, fsync'd. *)
let with_journal_signals ~path j ~runs ~what ~journaled f =
  let handler signum =
    ignore (Journal.try_append j Ledger.interrupted_marker);
    Printf.eprintf
      "\n\
       perple: interrupted: %d of %d %s journaled in %s\n\
       perple: rerun the same command with --resume to finish the \
       campaign\n\
       %!"
      !journaled runs what path;
    Stdlib.exit (if signum = Sys.sigint then 130 else 143)
  in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term;
      Journal.close j)
    f

(* The journaled campaign driver: open or resume the journal, let
   [replay] see the journaled units, [execute ~skip ~on_record] the rest
   while journaling each unit as it retires, and return every unit's
   record in index order, journaled or fresh. *)
let journaled_campaign ~journal ~command ~digest ~runs ~records ~validate
    ?(replay = fun _ -> Ok ()) execute =
  let* completed, j =
    open_journal ~journal ~command ~digest ~runs ~records ~validate
  in
  let* () = replay completed in
  let journaled = ref (Hashtbl.length completed) in
  let on_record =
    Option.map
      (fun j r ->
        Journal.append j (records.to_record r);
        incr journaled)
      j
  in
  let skip i = Hashtbl.mem completed i in
  let run () = execute ~skip ~on_record in
  let* fresh =
    io_errors "journal" (fun () ->
        match (journal, j) with
        | Some { path; _ }, Some j ->
          with_journal_signals ~path j ~runs ~what:records.what ~journaled run
        | _ -> run ())
  in
  Ok
    (Array.init runs (fun i ->
         match fresh.(i) with
         | Some r -> r
         | None -> Hashtbl.find completed i))

let test_digest test = Digest.to_hex (Digest.string (Printer.to_string test))

(* Resume replays the metrics of journaled runs instead of re-executing
   them; additions are commutative, so merging them up front keeps the
   final --metrics dump byte-identical to an uninterrupted campaign. *)
let merge_journaled_metrics completed =
  match Perple_util.Metrics.active () with
  | None -> Ok ()
  | Some sink ->
    Hashtbl.fold
      (fun i (s : Ledger.t) acc ->
        match (acc, s.Ledger.metrics) with
        | Error _, _ | Ok (), None -> acc
        | Ok (), Some m -> (
          match Perple_util.Metrics.merge_json sink m with
          | Ok () -> Ok ()
          | Error e -> fail "journal: run %d: %s" i e))
      completed (Ok ())

(* The campaign body [run] and [supervise] share: execute the runs the
   journal lacks under [config] and [print] one summary per run.
   [params] are the command's own digest entries; framed by the spec's,
   they hash in the order older journals did, so those journals still
   resume. *)
let run_campaign ~command ~params ~config ?policy ?counter ?outcomes
    ?exhaustive_cap ~print c =
  let digest =
    Ledger.digest_of_params
      ([
         ("command", command);
         ("test", test_digest c.test);
         ("iterations", string_of_int c.iterations);
         ("seed", string_of_int c.seed);
       ]
      @ params
      @ [ ("runs", string_of_int c.runs) ])
  in
  let seeds = Engine.campaign_seeds ~runs:c.runs ~seed:c.seed in
  let validate i (s : Ledger.t) =
    if s.Ledger.seed <> seeds.(i) then
      fail
        "cannot resume: journal run %d was seeded with %d, this campaign \
         pre-splits %d"
        i s.Ledger.seed seeds.(i)
    else Ok ()
  in
  let execute ~skip ~on_record =
    let on_entry = Option.map (fun f e -> f (Ledger.of_entry e)) on_record in
    match
      Engine.campaign_entries ~config ?policy ?counter ?outcomes
        ?exhaustive_cap ~stress_threads:c.stress ~jobs:c.jobs ~skip
        ?on_entry ~runs:c.runs ~seed:c.seed ~iterations:c.iterations c.test
    with
    | Error r -> fail "%s" (Format.asprintf "%a" Convert.pp_reason r)
    | Ok entries -> Ok (Array.map (Option.map Ledger.of_entry) entries)
  in
  Result.map print
    (journaled_campaign ~journal:c.journal ~command ~digest ~runs:c.runs
       ~records:
         {
           kind = "run";
           what = "runs";
           of_record = Ledger.of_json;
           to_record = Ledger.to_json;
           index_of = (fun (s : Ledger.t) -> s.Ledger.index);
         }
       ~validate ~replay:merge_journaled_metrics execute)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "Perpetual litmus suite (Table II):";
    List.iter
      (fun (e : Catalog.entry) ->
        Printf.printf "  %-14s %s  %s\n" e.Catalog.test.Ast.name
          (match e.Catalog.classification with
          | Catalog.Allowed -> "allowed  "
          | Catalog.Forbidden -> "forbidden")
          e.Catalog.test.Ast.doc)
      Catalog.suite;
    print_endline "Non-convertible companions (Sec V-C):";
    List.iter
      (fun t -> Printf.printf "  %-14s %s\n" t.Ast.name t.Ast.doc)
      Catalog.non_convertible;
    Ok ()
  in
  Cmd.v (Cmd.info "list" ~doc:"List the tests the catalog knows.")
    (wrap Term.(const run $ const ()))

(* --- show ---------------------------------------------------------------- *)

let show_cmd =
  let run test =
    print_string (Printer.to_string test);
    Printf.printf "\n%s\n" (Printer.summary test);
    (match
       ( test.Ast.condition.Ast.quantifier,
         Operational.condition_verdict Operational.Tso test )
     with
    | Ast.Forall, Ok holds ->
      Printf.printf "forall condition under x86-TSO: %s\n"
        (if holds then "holds in every execution" else "violated")
    | (Ast.Exists | Ast.Not_exists), Ok allowed ->
      Printf.printf "target under x86-TSO: %s\n"
        (if allowed then "allowed" else "forbidden")
    | _, Error m -> Printf.printf "target under x86-TSO: n/a (%s)\n" m);
    (match Convert.convert test with
    | Ok _ -> print_endline "convertible to perpetual form: yes"
    | Error r ->
      Format.printf "convertible to perpetual form: no (%a)@."
        Convert.pp_reason r);
    Ok ()
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a test in litmus7 format with analysis.")
    (wrap Term.(const run $ test_arg))

(* --- check --------------------------------------------------------------- *)

type backend = Operational_b | Axiomatic_b | Solver_b

let backend_name = function
  | Operational_b -> "operational"
  | Axiomatic_b -> "axiomatic"
  | Solver_b -> "solver"

let backend_arg =
  let backend_conv =
    enum_conv ~expected:"operational, axiomatic or solver"
      (fun s ->
        List.find_opt
          (fun b -> backend_name b = s)
          [ Operational_b; Axiomatic_b; Solver_b ])
      backend_name
  in
  Arg.(
    value
    & opt backend_conv Operational_b
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Consistency checker: $(b,operational) (default, state-space \
           enumeration), $(b,axiomatic) (candidate executions against the \
           acyclicity axioms) or $(b,solver) (constraint search over rf \
           choices and write orderings, with a polynomial fast path).")

let crosscheck_arg =
  Arg.(
    value & flag
    & info [ "crosscheck" ]
        ~doc:
          "Run all three backends and fail if any two disagree on the \
           reachable outcomes or the condition verdict.")

let reachable_with backend model test =
  match backend with
  | Operational_b -> Operational.reachable_outcomes model test
  | Axiomatic_b -> Axiomatic.reachable_outcomes model test
  | Solver_b -> Solver.reachable_outcomes model test

let same_outcomes a b =
  let sort = List.sort Outcome.compare in
  let a = sort a and b = sort b in
  List.length a = List.length b && List.for_all2 Outcome.equal a b

let check_cmd =
  let print_verdict test = function
    | Ok v ->
      (match test.Ast.condition.Ast.quantifier with
      | Ast.Forall ->
        Printf.printf "  forall condition: %s\n"
          (if v then "holds in every execution" else "violated")
      | Ast.Exists | Ast.Not_exists ->
        Printf.printf "  target: %s\n" (if v then "allowed" else "forbidden"))
    | Error m -> Printf.printf "  target: n/a (%s)\n" m
  in
  let crosscheck test =
    let failures = ref 0 in
    List.iter
      (fun model ->
        let name = Operational.model_to_string model in
        let op = Operational.reachable_outcomes model test in
        let ax = Axiomatic.reachable_outcomes model test in
        let sv = Solver.reachable_outcomes model test in
        let outcomes_ok = same_outcomes op ax && same_outcomes op sv in
        (* The axiomatic and solver backends both evaluate the final
           condition over full executions, so Loc_eq conditions the
           operational register view cannot express still crosscheck. *)
        let fc_ax = Axiomatic.condition_reachable model test in
        let fc_sv = Solver.final_condition_reachable model test in
        let verdict_ok =
          fc_ax = fc_sv
          &&
          match
            (Operational.target_allowed model test, Solver.target_allowed model test)
          with
          | Ok a, Ok b -> a = b
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false
        in
        if outcomes_ok && verdict_ok then
          Printf.printf "%s: all three backends agree (%d outcomes)\n" name
            (List.length op)
        else begin
          incr failures;
          Printf.printf "%s: BACKEND DISAGREEMENT\n" name;
          List.iter
            (fun (b, outcomes) ->
              Printf.printf "  %-12s %s\n" b
                (String.concat "; " (List.map Outcome.to_string outcomes)))
            [ ("operational", op); ("axiomatic", ax); ("solver", sv) ];
          Printf.printf "  final condition: axiomatic=%b solver=%b\n" fc_ax
            fc_sv
        end)
      [ Operational.Sc; Operational.Tso; Operational.Pso ];
    if !failures = 0 then Ok ()
    else fail "%d model(s) with backend disagreement" !failures
  in
  let check_one backend test =
    List.iter
      (fun model ->
        let outcomes = reachable_with backend model test in
        Printf.printf "%s reachable outcomes (%s):\n"
          (Operational.model_to_string model)
          (backend_name backend);
        List.iter
          (fun o -> Printf.printf "  %s\n" (Outcome.to_string o))
          outcomes;
        (match backend with
        | Operational_b ->
          print_verdict test (Operational.condition_verdict model test)
        | Solver_b -> print_verdict test (Solver.condition_verdict model test)
        | Axiomatic_b ->
          (* Axiomatic reachability is quantifier-blind; a forall verdict
             needs the operational or solver backend. *)
          print_verdict test
            (match test.Ast.condition.Ast.quantifier with
            | Ast.Forall ->
              Error "forall verdicts need --backend operational or solver"
            | Ast.Exists | Ast.Not_exists ->
              Ok (Axiomatic.condition_reachable model test)));
        if backend <> Solver_b then begin
          let ax = Axiomatic.reachable_outcomes model test in
          Printf.printf "  axiomatic checker agrees: %b\n"
            (same_outcomes ax outcomes)
        end)
      [ Operational.Sc; Operational.Tso; Operational.Pso ];
    Ok ()
  in
  let run test backend crosscheck_flag =
    if crosscheck_flag then crosscheck test else check_one backend test
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Enumerate reachable outcomes under SC, x86-TSO and PSO with a \
          chosen backend, or crosscheck all three.")
    (wrap Term.(const run $ test_arg $ backend_arg $ crosscheck_arg))

(* --- convert ------------------------------------------------------------- *)

let convert_cmd =
  let run test =
    match Convert.convert test with
    | Error r -> fail "%s" (Format.asprintf "%a" Convert.pp_reason r)
    | Ok conv ->
      Printf.printf "Perpetual version of %s:\n" test.Ast.name;
      Array.iteri
        (fun t (program : Perple_sim.Program.thread) ->
          Printf.printf "  thread %d (%d loads/iteration):\n" t
            conv.Convert.t_reads.(t);
          Array.iter
            (fun instr ->
              Format.printf "    %a@."
                (Perple_sim.Program.pp_instr
                   ~location_names:
                     conv.Convert.image.Perple_sim.Program.location_names)
                instr)
            program.Perple_sim.Program.body)
        conv.Convert.image.Perple_sim.Program.programs;
      List.iter
        (fun x ->
          Printf.printf "  k_%s = %d\n" x
            (List.length (Ast.store_constants test x)))
        (Ast.locations test);
      print_endline "Perpetual outcomes (step 4 inequalities):";
      List.iter
        (fun o ->
          match Outcome_convert.convert conv o with
          | Ok c ->
            Printf.printf "  %-12s %s\n" (Outcome.short_label o)
              (Outcome_convert.describe conv c);
            let plan = Outcome_convert.heuristic_plan conv c in
            Printf.printf "  %-12s heuristic: %s\n" ""
              (Outcome_convert.describe_heuristic conv c plan)
          | Error m ->
            Printf.printf "  %-12s (not convertible: %s)\n"
              (Outcome.short_label o) m)
        (Outcome.all test);
      Ok ()
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Show the perpetual test and its converted outcomes.")
    (wrap Term.(const run $ test_arg))

(* --- run ----------------------------------------------------------------- *)

let counter_arg =
  Arg.(
    value
    & opt
        (enum_conv ~expected:"heur, exh or exh-ref" Engine.counter_of_name
           Engine.counter_wire_name)
        Engine.Heuristic
    & info [ "counter" ] ~docv:"COUNTER"
        ~doc:
          "Outcome counter: $(b,heur) (linear), $(b,exh) (full N^TL frame \
           space via the factorized kernel) or $(b,exh-ref) (the naive \
           N^TL odometer, for fidelity/correctness baselines).")

let all_outcomes_arg =
  Arg.(
    value & flag
    & info [ "all-outcomes" ]
        ~doc:"Count every possible outcome, not just the target.")

let cap_arg =
  bounded 1 "--cap"
    Arg.(
      value
      & opt int 250_000_000
      & info [ "cap" ] ~docv:"FRAMES"
          ~doc:
            "Frame budget for the exhaustive counter (positive); the run \
             length is capped to stay within it (the cap is reported, not \
             silent).")

let detection_rate targets runtime =
  if runtime = 0 then 0.0
  else float_of_int targets /. float_of_int runtime *. 1_000_000.0

let run_cmd =
  let print_single c counter report =
    Printf.printf "PerpLE run of %s: %d iterations, %s counter, model %s\n"
      report.Engine.conversion.Convert.test.Ast.name
      report.Engine.run.Perple_harness.Perpetual.iterations
      (Engine.counter_name counter) (Config.model_name c.model);
    if
      report.Engine.run.Perple_harness.Perpetual.iterations
      <> report.Engine.requested_iterations
    then
      Printf.printf
        "note: requested %d iterations, ran %d (exhaustive counter \
         cap keeps the frame count within budget)\n"
        report.Engine.requested_iterations
        report.Engine.run.Perple_harness.Perpetual.iterations;
    List.iteri
      (fun i o ->
        Printf.printf "  %-24s %d\n" (Outcome.to_string o)
          report.Engine.counts.(i))
      report.Engine.outcomes;
    Printf.printf
      "frames examined: %d; virtual runtime: %d rounds; target \
       detection rate: %.3f per Mround\n"
      report.Engine.frames_examined report.Engine.virtual_runtime
      (Engine.detection_rate report)
  in
  let print_campaign c counter (summaries : Ledger.t array) =
    Printf.printf
      "PerpLE campaign of %s: %d runs x %d iterations, %s counter, model \
       %s\n"
      c.test.Ast.name c.runs c.iterations (Engine.counter_name counter)
      (Config.model_name c.model);
    let total_targets = ref 0 and total_runtime = ref 0 in
    Array.iteri
      (fun i (s : Ledger.t) ->
        match s.Ledger.crashed with
        | Some crash ->
          Printf.printf "run %3d  crashed: %s\n" (i + 1) crash.Ledger.c_message
        | None ->
          total_targets := !total_targets + Ledger.target_count s;
          total_runtime := !total_runtime + s.Ledger.virtual_runtime;
          Printf.printf
            "run %3d  iterations %d  frames %d  runtime %d  target %d%s\n"
            (i + 1) s.Ledger.iterations s.Ledger.frames_examined
            s.Ledger.virtual_runtime (Ledger.target_count s)
            (if s.Ledger.degraded then "  [degraded]" else ""))
      summaries;
    Printf.printf
      "campaign total: %d target occurrences; %d virtual rounds; detection \
       rate %.3f per Mround\n"
      !total_targets !total_runtime
      (detection_rate !total_targets !total_runtime)
  in
  let verify_trace_arg =
    Arg.(
      value & flag
      & info [ "verify-trace" ]
          ~doc:
            "After the run, decode the whole perpetual trace and verify it \
             against the model's axioms with the solver backend \
             (single-run only).  Buggy machine variants are judged against \
             honest TSO; a violation fails the command.")
  in
  let print_trace_verdict model (report : Engine.report) =
    let spec = Trace_check.spec_model model in
    let v =
      Trace_check.verify ~model:spec report.Engine.conversion
        report.Engine.run
    in
    Printf.printf
      "trace verification against %s: %s (%d events, %d decisions, %d \
       backtracks)\n"
      (Operational.model_to_string spec)
      (if v.Solver.consistent then "consistent" else "VIOLATION")
      v.Solver.events v.Solver.decisions v.Solver.backtracks;
    if v.Solver.consistent then Ok ()
    else
      fail "trace violates %s: %s"
        (Operational.model_to_string spec)
        (Option.value ~default:"?" v.Solver.violation)
  in
  let run c counter all_outcomes cap verify_trace obs =
    if verify_trace && c.runs <> 1 then
      fail "--verify-trace works on a single run (--runs 1)"
    else if c.journal <> None && c.runs < 2 then
      fail "--journal records campaigns; it requires --runs >= 2"
    else
      with_observability obs @@ fun () ->
      let config = config_of_model c.model in
      let outcomes =
        if all_outcomes then Some (Outcome.all c.test) else None
      in
      if c.runs = 1 then
        match
          Engine.run ~config ~counter ?outcomes ~exhaustive_cap:cap
            ~stress_threads:c.stress ~seed:c.seed ~iterations:c.iterations
            c.test
        with
        | Error r -> fail "%s" (Format.asprintf "%a" Convert.pp_reason r)
        | Ok report ->
          print_single c counter report;
          if verify_trace then print_trace_verdict c.model report else Ok ()
      else
        run_campaign ~command:"run"
          ~params:
            [
              ("counter", Engine.counter_name counter);
              ("model", Config.model_name c.model);
              ("all_outcomes", string_of_bool all_outcomes);
              ("stress", string_of_int c.stress);
              ("cap", string_of_int cap);
            ]
          ~config ~counter ?outcomes ~exhaustive_cap:cap
          ~print:(print_campaign c counter) c
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Convert a test and run its perpetual version on the simulator.")
    (wrap
       Term.(
         const run
         $ campaign_term
             (runs_arg ~default:1
                "Run a campaign of $(docv) independent runs (positive; seeds \
                 pre-split from $(b,--seed)) instead of a single run.")
         $ counter_arg $ all_outcomes_arg $ cap_arg $ verify_trace_arg
         $ observe_term))

(* --- litmus7 baseline ---------------------------------------------------- *)

let litmus7_cmd =
  let mode_arg =
    Arg.(
      value
      & opt
          (enum_conv ~expected:"user, userfence, pthread, timebase or none"
             Sync_mode.of_name Sync_mode.name)
          Sync_mode.User
      & info [ "mode" ] ~docv:"MODE" ~doc:"litmus7 synchronisation mode.")
  in
  let run test (iterations, seed, _) mode model stress =
    let rng = Perple_util.Rng.create seed in
    let result =
      Litmus7.run ~config:(config_of_model model) ~stress_threads:stress ~rng
        ~test ~mode ~iterations ()
    in
    Printf.printf "litmus7-style run of %s: %d iterations, %s mode\n"
      test.Ast.name iterations (Sync_mode.name mode);
    List.iter
      (fun (o, n) ->
        if n > 0 then Printf.printf "  %-24s %d\n" (Outcome.to_string o) n)
      result.Litmus7.histogram;
    (match Outcome.of_condition test with
    | Ok target ->
      Printf.printf "target occurrences: %d\n"
        (Litmus7.count result ~partial:target)
    | Error _ -> ());
    Printf.printf "virtual runtime: %d rounds\n" result.Litmus7.virtual_runtime;
    Ok ()
  in
  Cmd.v
    (Cmd.info "litmus7"
       ~doc:"Run the litmus7-style synchronised baseline on the simulator.")
    (wrap
       Term.(
         const run $ test_arg $ sizes_term (const 1) $ mode_arg $ model_arg
         $ stress_arg))

(* --- supervise ------------------------------------------------------------ *)

let supervise_cmd =
  let faults_arg =
    let fault_conv =
      Arg.conv
        ( (fun s -> Result.map_error (fun m -> `Msg m) (Fault.of_string s)),
          Fault.pp )
    in
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ] ~docv:"KIND@PROB"
          ~doc:
            "Inject a fault (repeatable): $(b,hang\\@P), $(b,crash\\@P), \
             $(b,livelock\\@P) trigger per thread per run with probability \
             P; $(b,store-loss\\@P) silently drops each drained store with \
             probability P.")
  in
  let watchdog_arg =
    Term.(
      const (Option.map (at_least 1 "--watchdog-rounds"))
      $ Arg.(
          value & opt (some int) None
          & info [ "watchdog-rounds" ] ~docv:"ROUNDS"
              ~doc:
                "Abort an attempt past this many virtual rounds (positive; \
                 default: 64*N + 10000)."))
  in
  let min_retired_arg =
    Term.(
      const (Option.map (at_least 0 "--min-retired"))
      $ Arg.(
          value & opt (some int) None
          & info [ "min-retired" ] ~docv:"K"
              ~doc:
                "Smallest salvageable prefix (non-negative): an aborted \
                 attempt with at least $(docv) retired iterations is \
                 accepted as truncated (default: N/100)."))
  in
  let retries_arg =
    bounded 0 "--max-retries"
      Arg.(
        value & opt int 3
        & info [ "max-retries" ] ~docv:"R"
            ~doc:"Retries per run after the first attempt (non-negative).")
  in
  let backoff_arg =
    Term.(
      const (fun f -> if f > 0.0 then f else must_be "--backoff" "positive")
      $ Arg.(
          value & opt float 0.5
          & info [ "backoff" ] ~docv:"F"
              ~doc:
                "Iteration-budget multiplier per retry (> 0): < 1 retries \
                 with a shrunken budget, > 1 grows it."))
  in
  (* The ledger is printed sequentially from per-run summaries, in run
     order — the same summaries the journal stores, so a resumed
     campaign's stdout is byte-identical to an uninterrupted one. *)
  let print_ledger ~iterations (summaries : Ledger.t array) =
    let by_class = Hashtbl.create 4 in
    let tally cls =
      Hashtbl.replace by_class cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_class cls))
    in
    let total_retries = ref 0 in
    let total_targets = ref 0 in
    let total_runtime = ref 0 in
    let failed = ref 0 in
    Array.iteri
      (fun idx (s : Ledger.t) ->
        let i = idx + 1 in
        let crashed_line m =
          tally Supervisor.Crashed;
          incr failed;
          Printf.printf "run %3d  crashed: %s\n" i m
        in
        match (s.Ledger.crashed, s.Ledger.supervision) with
        | Some c, _ -> crashed_line c.Ledger.c_message
        | None, None -> crashed_line "journal record lacks supervision data"
        | None, Some sup ->
          let attempts = sup.Ledger.s_attempts in
          tally
            (Option.value ~default:Supervisor.Crashed
               (Supervisor.outcome_of_name sup.Ledger.s_outcome));
          total_retries := !total_retries + List.length attempts - 1;
          total_targets := !total_targets + Ledger.target_count s;
          total_runtime := !total_runtime + s.Ledger.virtual_runtime;
          if sup.Ledger.s_lost then incr failed;
          Printf.printf
            "run %3d  %-9s  attempts %d  retired %d/%d  rounds %d  target \
             %d%s\n"
            i sup.Ledger.s_outcome (List.length attempts)
            s.Ledger.salvaged_iterations iterations sup.Ledger.s_total_rounds
            (Ledger.target_count s)
            (if s.Ledger.degraded then "  [degraded]" else "");
          if List.length attempts > 1 then
            List.iter
              (fun (a : Ledger.attempt) ->
                Printf.printf
                  "         #%d %-9s  retired %d/%d  rounds %d%s%s\n"
                  a.Ledger.a_index a.Ledger.a_outcome a.Ledger.a_retired
                  a.Ledger.a_requested a.Ledger.a_rounds
                  (if a.Ledger.a_lost_stores > 0 then
                     Printf.sprintf "  lost stores %d" a.Ledger.a_lost_stores
                   else "")
                  (match a.Ledger.a_exn with
                  | Some m -> "  exn: " ^ m
                  | None -> ""))
              attempts)
      summaries;
    let count cls =
      Option.value ~default:0 (Hashtbl.find_opt by_class cls)
    in
    Printf.printf
      "campaign summary: %d ok, %d truncated, %d timeout, %d crashed; %d \
       retries; %d runs lost\n"
      (count Supervisor.Ok)
      (count Supervisor.Truncated)
      (count Supervisor.Timeout)
      (count Supervisor.Crashed)
      !total_retries !failed;
    Printf.printf
      "total target occurrences: %d; total virtual runtime: %d rounds; \
       detection rate: %.3f per Mround\n"
      !total_targets !total_runtime
      (detection_rate !total_targets !total_runtime)
  in
  let run c faults watchdog min_retired max_retries backoff obs =
    with_observability obs @@ fun () ->
    let base = Supervisor.default_policy ~iterations:c.iterations in
    let policy =
      {
        Supervisor.watchdog_rounds =
          Option.value watchdog ~default:base.Supervisor.watchdog_rounds;
        min_retired =
          Option.value min_retired ~default:base.Supervisor.min_retired;
        max_retries;
        backoff;
      }
    in
    Printf.printf
      "supervised campaign: %s, %d runs x %d iterations, faults: %s\n"
      c.test.Ast.name c.runs c.iterations
      (Fault.profile_to_string faults);
    Printf.printf
      "policy: watchdog %d rounds, min retired %d, max retries %d, backoff \
       %.2f\n"
      policy.Supervisor.watchdog_rounds policy.Supervisor.min_retired
      policy.Supervisor.max_retries policy.Supervisor.backoff;
    run_campaign ~command:"supervise"
      ~params:
        [
          ("model", Config.model_name c.model);
          ("stress", string_of_int c.stress);
          ("faults", Fault.profile_to_string faults);
          ("watchdog_rounds", string_of_int policy.Supervisor.watchdog_rounds);
          ("min_retired", string_of_int policy.Supervisor.min_retired);
          ("max_retries", string_of_int policy.Supervisor.max_retries);
          ("backoff", Printf.sprintf "%.17g" policy.Supervisor.backoff);
        ]
      ~config:(Config.with_faults faults (config_of_model c.model))
      ~policy
      ~print:(print_ledger ~iterations:c.iterations)
      c
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Run a fault-injected campaign under the supervisor: watchdog, \
          outcome classification, retry with backoff, checkpoint salvage; \
          prints the per-run supervision ledger.")
    (wrap
       Term.(
         const run
         $ campaign_term
             (runs_arg ~default:10
                "Number of supervised runs in the campaign (positive).")
         $ faults_arg $ watchdog_arg $ min_retired_arg $ retries_arg
         $ backoff_arg $ observe_term))

(* --- crash-suite ---------------------------------------------------------- *)

module Crashsim = Perple_sim.Crashsim
module Crash_suite = Perple_core.Crash_suite
module Persistency = Perple_memmodel.Persistency

let persistency_arg =
  Arg.(
    value
    & opt
        (enum_conv ~expected:"epoch or eager-bug" Config.persistency_of_name
           Config.persistency_name)
        Config.Epoch
    & info [ "persistency" ] ~docv:"MODEL"
        ~doc:
          "Persistency controller model: $(b,epoch) (default: a drain \
           commits the thread's pending writebacks in flush order) or \
           $(b,eager-bug) (the planted bug: drain commits nothing, \
           writebacks persist lazily and independently).")

let crash_suite_cmd =
  (* The report is printed in point order from the indexed record array —
     never in completion order — so stdout is bit-identical for every
     --jobs value and for any kill/resume split. *)
  let print_suite ~test ~persistency ~crosscheck
      (records : Crash_suite.record array) =
    Printf.printf "crash suite of %s: %d crash points, persistency %s\n"
      test.Ast.name (Array.length records)
      (Config.persistency_name persistency);
    if test.Ast.post_crash = None then
      Printf.printf
        "note: %s has no post-crash condition; reporting reachable images \
         only\n"
        test.Ast.name;
    let violating = ref 0 and unrecoverable = ref 0 and images = ref 0 in
    Array.iter
      (fun (r : Crash_suite.record) ->
        match r.Crash_suite.outcome with
        | Supervisor.Unrecoverable ->
          incr unrecoverable;
          Printf.printf "point %3d  unrecoverable: %s\n" r.Crash_suite.point
            (Option.value ~default:"recovery failed" r.Crash_suite.error)
        | _ ->
          images := !images + r.Crash_suite.images;
          if r.Crash_suite.violations > 0 then begin
            incr violating;
            Printf.printf "point %3d  images %3d  VIOLATED x%d%s\n"
              r.Crash_suite.point r.Crash_suite.images r.Crash_suite.violations
              (match r.Crash_suite.witness with
              | Some w ->
                "  witness "
                ^ String.concat " "
                    (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) w)
              | None -> "")
          end
          else
            Printf.printf "point %3d  images %3d  ok\n" r.Crash_suite.point
              r.Crash_suite.images)
      records;
    Printf.printf
      "suite verdict: %s (%d of %d points violated, %d unrecoverable, %d \
       images examined)\n"
      (if !violating > 0 then "VIOLATED"
       else if !unrecoverable > 0 then "UNRECOVERABLE"
       else "consistent")
      !violating (Array.length records) !unrecoverable !images;
    if crosscheck then
      Printf.printf "axiomatic cross-check: %s\n"
        (let model =
           match persistency with
           | Config.Epoch -> Persistency.Epoch
           | Config.Eager -> Persistency.Eager
         in
         let operational_holds = !violating = 0 && !unrecoverable = 0 in
         if Persistency.condition_holds model test = operational_holds then
           "agrees"
         else "DISAGREES (checker bug)")
  in
  let crosscheck_arg =
    Arg.(
      value & flag
      & info [ "crosscheck" ]
          ~doc:
            "Also evaluate the post-crash condition with the declarative \
             (axiomatic) persistency checker and report whether the two \
             verdicts agree.")
  in
  let run test persistency jobs journal crosscheck =
    let points = Crashsim.crash_points test in
    let digest =
      Ledger.digest_of_params
        [
          ("command", "crash-suite");
          ("test", test_digest test);
          ("persistency", Config.persistency_name persistency);
          ("points", string_of_int points);
        ]
    in
    Result.map
      (print_suite ~test ~persistency ~crosscheck)
      (journaled_campaign ~journal ~command:"crash-suite" ~digest ~runs:points
         ~records:
           {
             kind = "point";
             what = "crash points";
             of_record = Crash_suite.of_json;
             to_record = Crash_suite.to_json;
             index_of = (fun (r : Crash_suite.record) -> r.Crash_suite.point);
           }
         ~validate:(fun _ _ -> Ok ())
         (fun ~skip ~on_record ->
           Ok (Crash_suite.evaluate ~jobs ~skip ?on_record ~persistency test)))
  in
  Cmd.v
    (Cmd.info "crash-suite"
       ~doc:
         "Exhaustively crash a test at every instruction boundary and \
          evaluate its post-crash condition against every reachable \
          persisted image; a violation means the persistency model lets a \
          crash expose inconsistent durable state.")
    (wrap
       Term.(
         const run $ test_arg $ persistency_arg $ jobs_arg $ journal_term
         $ crosscheck_arg))

(* --- emit ---------------------------------------------------------------- *)

(* An output directory: it must exist, or its parent must. *)
let output_dir_arg default =
  Term.(
    const (output_path ~dir:true "-o")
    $ Arg.(
        value & opt string default
        & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory."))

let emit_cmd =
  let native_arg =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also compile the emitted harness with $(b,cc) and run it on \
             the host (requires a C toolchain; the artifacts target x86-64).")
  in
  let native_iters_arg =
    bounded 1 "--native-iterations"
      Arg.(
        value & opt int 100_000
        & info [ "native-iterations" ] ~docv:"N"
            ~doc:"Iteration count passed to the native harness (positive).")
  in
  (* Compile [sources] into [exe] with cc; its diagnostics become the
     error. *)
  let cc dir ~exe sources =
    let log = Filename.temp_file "perple-cc" ".log" in
    let cmd =
      Printf.sprintf "cc -O2 -pthread -o %s %s 2> %s"
        (Filename.quote (Filename.concat dir exe))
        (String.concat " "
           (List.map (fun f -> Filename.quote (Filename.concat dir f)) sources))
        (Filename.quote log)
    in
    let code = Sys.command cmd in
    let diagnostics =
      In_channel.with_open_bin log In_channel.input_all |> String.trim
    in
    Sys.remove log;
    if code = 0 then Ok ()
    else
      fail "native build of %s failed (cc exited %d)%s" exe code
        (if diagnostics = "" then "" else ":\n" ^ diagnostics)
  in
  let run test dir native native_iters =
    match Convert.convert test with
    | Error r -> fail "%s" (Format.asprintf "%a" Convert.pp_reason r)
    | Ok conv -> (
      match Codegen.all_files conv ~outcomes:(Outcome.all test) with
      | Error m -> fail "outcome conversion failed: %s" m
      | Ok files ->
        let* () =
          io_errors "emit" (fun () ->
              Codegen.write_to_dir ~dir files;
              Ok ())
        in
        List.iter
          (fun (f : Codegen.file) ->
            Printf.printf "wrote %s\n"
              (Filename.concat dir f.Codegen.filename))
          files;
        if not native then Ok ()
        else begin
          let name =
            String.map
              (function
                | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
                | _ -> '_')
              test.Ast.name
          in
          (* The C11 variant is a standalone program with its own main and
             counters, so it builds separately from the harness. *)
          let c11 = name ^ "_c11.c" in
          let harness =
            List.filter_map
              (fun (f : Codegen.file) ->
                let fn = f.Codegen.filename in
                if
                  fn <> c11
                  && (Filename.check_suffix fn ".c"
                     || Filename.check_suffix fn ".s")
                then Some fn
                else None)
              files
          in
          let* () = cc dir ~exe:(name ^ "_native") harness in
          let* () =
            if
              List.exists
                (fun (f : Codegen.file) -> f.Codegen.filename = c11)
                files
            then cc dir ~exe:(name ^ "_c11") [ c11 ]
            else Ok ()
          in
          Printf.printf "running native harness (%d iterations)...\n%!"
            native_iters;
          let run_cmd =
            Printf.sprintf "%s %d"
              (Filename.quote (Filename.concat dir (name ^ "_native")))
              native_iters
          in
          if Sys.command run_cmd <> 0 then fail "native run failed" else Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Emit the Converter's x86 assembly, C counters, parameters and \
          harness files.")
    (wrap
       Term.(
         const run $ test_arg $ output_dir_arg "perple-out" $ native_arg
         $ native_iters_arg))

(* --- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let events_arg =
    bounded 0 "--events"
      Arg.(
        value & opt int 60
        & info [ "events" ] ~docv:"K"
            ~doc:"Number of events to record (non-negative).")
  in
  let run test (iterations, seed, _) model events =
    match Convert.convert test with
    | Error r -> fail "%s" (Format.asprintf "%a" Convert.pp_reason r)
    | Ok conv ->
      let module Trace = Perple_harness.Trace in
      let trace, _run =
        Trace.trace_perpetual ~config:(config_of_model model) ~limit:events
          ~rng:(Perple_util.Rng.create seed)
          ~image:conv.Convert.image ~t_reads:conv.Convert.t_reads
          ~iterations ()
      in
      Printf.printf
        "First %d machine events of the perpetual %s run (model %s):\n"
        (Trace.length trace) test.Ast.name (Config.model_name model);
      print_string
        (Trace.render
           ~location_names:conv.Convert.image.Perple_sim.Program.location_names
           trace);
      Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a perpetual test while recording the machine's event trace \
          (instruction retirements, buffer drains, stalls).")
    (wrap
       Term.(
         const run $ test_arg $ sizes_term (const 1) $ model_arg
         $ events_arg))

(* --- generate ------------------------------------------------------------ *)

let generate_cmd =
  let cycle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CYCLE"
          ~doc:
            "Whitespace-separated relaxation-cycle edges (diy style): \
             $(b,PodWR) $(b,PodWW) $(b,PodRW) $(b,PodRR), fenced variants \
             $(b,MFencedWR) ..., and communication edges $(b,Rfe) $(b,Fre) \
             $(b,Wse); or one of the named cycles from $(b,--list-cycles).")
  in
  let name_arg =
    Arg.(
      value & opt string "generated"
      & info [ "name" ] ~docv:"NAME" ~doc:"Name for the generated test.")
  in
  let run spec name =
    let module Generate = Perple_litmus.Generate in
    let cycle_text =
      match List.assoc_opt spec Generate.named_cycles with
      | Some text -> text
      | None -> spec
    in
    Result.bind
      (Generate.parse_cycle cycle_text)
      (fun cycle ->
        match Generate.of_cycle ~name cycle with
        | Error m -> fail "cannot realise cycle: %s" m
        | Ok test ->
          print_string (Printer.to_string test);
          let p = Generate.predict cycle in
          Printf.printf
            "
predicted target: SC %s, TSO %s, PSO %s (from cycle shape)
"
            (if p.Generate.sc then "allowed" else "forbidden")
            (if p.Generate.tso then "allowed" else "forbidden")
            (if p.Generate.pso then "allowed" else "forbidden");
          (match Outcome.of_condition test with
          | Ok _ ->
            List.iter
              (fun model ->
                Printf.printf "checker verdict under %s: %s
"
                  (Operational.model_to_string model)
                  (if Result.get_ok (Operational.target_allowed model test)
                   then "allowed"
                   else "forbidden"))
              [ Operational.Sc; Operational.Tso; Operational.Pso ]
          | Error _ ->
            print_endline
              "condition inspects final memory (Wse edge): not convertible \
               to perpetual form; checker verdicts via the axiomatic model:";
            List.iter
              (fun model ->
                Printf.printf "checker verdict under %s: %s
"
                  (Operational.model_to_string model)
                  (if Axiomatic.condition_reachable model test then "allowed"
                   else "forbidden"))
              [ Operational.Sc; Operational.Tso; Operational.Pso ]);
          Ok ())
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a litmus test from a diy-style relaxation cycle and \
          classify its target.")
    (wrap Term.(const run $ cycle_arg $ name_arg))

(* --- export -------------------------------------------------------------- *)

let export_cmd =
  let run dir =
    io_errors "export" @@ fun () ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write test =
      let path = Filename.concat dir (test.Ast.name ^ ".litmus") in
      let oc = open_out path in
      output_string oc (Printer.to_string test);
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    List.iter (fun (e : Catalog.entry) -> write e.Catalog.test) Catalog.suite;
    List.iter write Catalog.non_convertible;
    Ok ()
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write every catalog test as a .litmus file (litmus7 format).")
    (wrap Term.(const run $ output_dir_arg "litmus"))

(* --- suite / experiment -------------------------------------------------- *)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use small iteration counts (smoke-test scale).")

let opt_iterations_arg =
  bounded_opt 1 "-n"
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "iterations" ] ~docv:"N"
          ~doc:"Override iteration count (positive).")

let opt_seed_arg =
  bounded_opt 0 "--seed"
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Override the experiment seed (non-negative; default: the \
             paper-run seed).")

let params_of quick iterations seed =
  let base =
    if quick then Report.Common.quick_params else Report.Common.default_params
  in
  let base =
    match iterations with
    | Some n -> { base with Report.Common.iterations = n }
    | None -> base
  in
  match seed with
  | Some seed -> { base with Report.Common.seed }
  | None -> base

let experiment_cmd =
  let id_arg =
    let doc =
      Printf.sprintf "Experiment id: %s, or $(b,all)."
        (String.concat ", " Report.Experiments.ids)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id quick iterations seed =
    let params = params_of quick iterations seed in
    if id = "all" then begin
      List.iter
        (fun (id, text) -> Printf.printf "==== %s ====\n%s\n" id text)
        (Report.Experiments.run_all params);
      Ok ()
    end
    else Result.map print_string (Report.Experiments.run params id)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the paper's tables/figures (or all).")
    (wrap
       Term.(const run $ id_arg $ quick_arg $ opt_iterations_arg $ opt_seed_arg))

let suite_cmd =
  let run quick iterations seed =
    let params = params_of quick iterations seed in
    print_string (Report.Fig9.render params);
    Ok ()
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run the whole perpetual litmus suite (Fig 9 summary).")
    (wrap Term.(const run $ quick_arg $ opt_iterations_arg $ opt_seed_arg))

(* --- serve / submit ------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "perpled.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket the daemon listens on (a stale socket file \
           left by a dead daemon is detected and replaced).")

let serve_cmd =
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Also listen on localhost TCP port $(docv).")
  in
  let coordinator_arg =
    Arg.(
      value & flag
      & info [ "coordinator" ]
          ~doc:
            "Accepted for compatibility; no effect.  Every daemon is a \
             coordinator: it shards campaigns into leased work units, \
             farms them out to any connected $(b,perple worker) processes \
             and runs them on its in-process worker while none is \
             connected.")
  in
  let shard_runs_arg =
    Term.(
      const (Option.map (at_least 1 "--shard-runs"))
      $ Arg.(
          value
          & opt (some int) None
          & info [ "shard-runs" ] ~docv:"N"
              ~doc:
                "Runs per leased shard (positive; default: 4 or \
                 $(b,--jobs), whichever is larger).  The in-process worker \
                 runs one shard per turn, so a $(b,kill -9) loses at most \
                 one shard of work.  Each campaign's partition is \
                 journaled, so a restart with another value keeps it."))
  in
  let lease_ms_arg =
    bounded 1 "--lease-ms"
      Arg.(
        value
        & opt int Perple_service.Coordinator.default_config.lease_ticks
        & info [ "lease-ms" ] ~docv:"MS"
            ~doc:
              "Lease renewal deadline in milliseconds (positive): a worker \
               silent for $(docv) ms loses its shard.")
  in
  let run socket tcp jobs journal _coordinator shard_runs lease_ms obs =
    let shard_runs =
      Option.value shard_runs
        ~default:
          (max Perple_service.Coordinator.default_config.shard_runs jobs)
    in
    Printf.eprintf
      "perpled: listening on %s%s, %d job%s, coordinating %d-run shards \
       under %d ms leases%s\n%!"
      socket
      (match tcp with
      | None -> ""
      | Some p -> Printf.sprintf " and tcp 127.0.0.1:%d" p)
      jobs
      (if jobs = 1 then "" else "s")
      shard_runs lease_ms
      (match journal with
      | None -> " (no journal: campaigns are lost on restart)"
      | Some path ->
        if Sys.file_exists path then
          Printf.sprintf ", resuming journal %s" path
        else Printf.sprintf ", journal %s" path);
    let coordinator =
      {
        Perple_service.Coordinator.default_config with
        shard_runs;
        lease_ticks = lease_ms;
      }
    in
    match
      with_observability obs @@ fun () ->
      Perple_service.Server.serve ~socket ?tcp_port:tcp ~jobs ~coordinator
        ~journal ()
    with
    | Error m -> Error m
    | Ok signum ->
      Printf.eprintf
        "\nperpled: %s: drained, journal flushed\nperpled: resume with: \
         perple serve --socket %s%s%s\n%!"
        (if signum = Sys.sigint then "interrupted" else "terminated")
        socket
        (match journal with
        | None -> ""
        | Some path -> " --journal " ^ Filename.quote path)
        (if jobs = 1 then "" else Printf.sprintf " --jobs %d" jobs);
      (* Exit the standard interrupted codes so scripts and the CI
         smoke job can tell a drain from a crash; observability files
         were already written by [with_observability]. *)
      Stdlib.exit (if signum = Sys.sigint then 130 else 143)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: accept submitted campaigns over a \
          length-prefixed binary protocol, journal every accepted spec and \
          completed run, and stream back records that are byte-identical \
          across crashes, restarts and $(b,--jobs) values.")
    (wrap
       Term.(
         const run $ socket_arg $ tcp_arg $ jobs_arg $ journal_arg
         $ coordinator_arg $ shard_runs_arg $ lease_ms_arg $ observe_term))

let submit_cmd =
  let campaign_arg =
    let doc =
      "Campaign identifier.  Resubmitting the same identifier with the \
       same parameters is idempotent: already-journaled runs are \
       re-streamed byte-for-byte."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CAMPAIGN" ~doc)
  in
  (* Validated locally first for a fast, friendly error. *)
  let submit_test_arg =
    let doc =
      "Catalog test name (see $(b,perple list)) or path to a .litmus file \
       (the file's contents are shipped to the daemon)."
    in
    Term.(
      const (fun spec -> ignore (load_or_exit spec); spec)
      $ Arg.(required & pos 1 (some string) None & info [] ~docv:"TEST" ~doc))
  in
  let retries_arg =
    bounded 1 "--retries"
      Arg.(
        value & opt int 5
        & info [ "retries" ] ~docv:"K"
            ~doc:
              "Reconnection attempts on transport loss (positive; \
               exponentially backed-off sleeps); safe because submits are \
               idempotent.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Print live campaign progress to stderr as the daemon streams \
             it (runs done and shard counts).")
  in
  let run campaign spec socket (iterations, seed, runs) counter model retries
      follow =
    (* Ship file contents so the daemon needs no access to our
       filesystem. *)
    let payload =
      if Sys.file_exists spec && not (Sys.is_directory spec) then
        In_channel.with_open_bin spec In_channel.input_all
      else spec
    in
    let wire_spec =
      {
        Perple_service.Wire.campaign;
        test = payload;
        iterations;
        seed;
        runs;
        counter = Engine.counter_wire_name counter;
        model = Config.model_name model;
      }
    in
    let on_progress =
      if not follow then None
      else
        Some
          (fun p ->
            Printf.eprintf
              "perple: %s: %d/%d runs%s\n%!" campaign
              p.Perple_service.Client.runs_done
              p.Perple_service.Client.runs_total
              (if
                 p.Perple_service.Client.shards_done
                 + p.Perple_service.Client.shards_leased
                 + p.Perple_service.Client.shards_failed
                 > 0
               then
                 Printf.sprintf
                   " (shards: %d done, %d leased, %d abandoned)"
                   p.Perple_service.Client.shards_done
                   p.Perple_service.Client.shards_leased
                   p.Perple_service.Client.shards_failed
               else ""))
    in
    match
      Perple_service.Client.submit_blocking ~socket ~attempts:retries
        ?on_progress ~spec:wire_spec ()
    with
    | Error m -> fail "submit %s: %s" campaign m
    | Ok outcome ->
      Printf.eprintf
        "perple: campaign %s accepted (digest %s, %d of %d runs were \
         already journaled)\n%!"
        campaign outcome.Perple_service.Client.digest
        outcome.Perple_service.Client.completed_at_accept runs;
      List.iter print_endline outcome.Perple_service.Client.records;
      Printf.printf "metrics: %s\n" outcome.Perple_service.Client.metrics;
      Ok ()
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a running $(b,perple serve) daemon and \
          stream its records to stdout (one canonical ledger line per run, \
          index order, then one metrics line).")
    (wrap
       Term.(
         const run $ campaign_arg $ submit_test_arg $ socket_arg
         $ sizes_term
             (runs_arg ~default:2
                "Campaign size: $(docv) runs (positive) with pre-split seeds.")
         $ counter_arg $ model_arg $ retries_arg $ follow_arg))

let worker_cmd =
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Connect to the coordinator on localhost TCP port $(docv) \
             instead of the Unix-domain socket.")
  in
  let name_arg =
    Arg.(
      value
      & opt string (Printf.sprintf "worker-%d" (Unix.getpid ()))
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Worker name reported in the handshake (default: worker-PID).")
  in
  let retries_arg =
    bounded 1 "--retries"
      Arg.(
        value & opt int 10
        & info [ "retries" ] ~docv:"K"
            ~doc:
              "Consecutive fruitless reconnection attempts before giving up \
               (positive; a connection that executed at least one lease \
               refills the budget, so a restarting coordinator is \
               survived).")
  in
  let run socket tcp name retries obs =
    let address =
      match tcp with Some p -> `Tcp p | None -> `Unix_socket socket
    in
    Printf.eprintf "perple worker %s: dialling %s\n%!" name
      (match address with
      | `Tcp p -> Printf.sprintf "tcp 127.0.0.1:%d" p
      | `Unix_socket s -> s);
    match
      with_observability obs @@ fun () ->
      Perple_service.Worker.work_blocking ~address ~name ~attempts:retries
        ~on_note:(fun line ->
          Printf.eprintf "perple worker %s: %s\n%!" name line)
        ()
    with
    | Error m -> fail "worker %s: %s" name m
    | Ok signum ->
      Printf.eprintf "perple worker %s: %s, stopping\n%!" name
        (if signum = Sys.sigint then "interrupted" else "terminated");
      Stdlib.exit (if signum = Sys.sigint then 130 else 143)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Execute leased campaign shards for a $(b,perple serve) daemon.  Runs are computed with the same engine \
          and pre-split seeds as a local campaign, so the coordinator's \
          merged ledger is byte-identical to a single-node run; on \
          disconnect the worker reconnects with backed-off sleeps and any \
          half-finished lease is safely reassigned.")
    (wrap
       Term.(
         const run $ socket_arg $ tcp_arg $ name_arg $ retries_arg
         $ observe_term))

let main_cmd =
  let info =
    Cmd.info "perple" ~version:"1.0.0"
      ~doc:
        "Perpetual litmus tests for memory consistency testing (PerpLE, \
         MICRO 2020 reproduction)."
  in
  Cmd.group info
    [
      list_cmd;
      show_cmd;
      check_cmd;
      convert_cmd;
      run_cmd;
      litmus7_cmd;
      supervise_cmd;
      crash_suite_cmd;
      emit_cmd;
      trace_cmd;
      generate_cmd;
      export_cmd;
      suite_cmd;
      experiment_cmd;
      serve_cmd;
      submit_cmd;
      worker_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
