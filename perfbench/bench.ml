(* The campaign benchmark: frames/s and campaign latency of `sb` campaigns
   on the four paths users take, with every output checked against an
   in-process reference, and a separate traced run folded into per-layer
   self time.  See README.md for the workloads, the metrics and the
   predictions; run.sh builds the repository and calls this program.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--perple PATH] [--out DIR] [--tiny]
     bench.exe compare RESULT.json RESULT.json

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the full result (host
   fingerprint, timing summaries, profile) goes to DIR/results/. *)

module Json = Perple_util.Json
module Journal = Perple_util.Journal
module Framed = Perple_util.Framed
module Trace_event = Perple_util.Trace_event
module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Convert = Perple_core.Convert
module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Pool = Perple_core.Pool
module Trace_check = Perple_core.Trace_check
module Solver = Perple_memmodel.Solver
module Wire = Perple_service.Wire
module Scheduler = Perple_service.Scheduler
module Server = Perple_service.Server
module Client = Perple_service.Client
module Coordinator = Perple_service.Coordinator
module Worker = Perple_service.Worker
open Perfbench

let wrap = Spans.wrap
(* Nanosecond monotonic clock, in seconds. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let jobs = 2
let shard_runs = Coordinator.default_config.shard_runs

(* --- options and shapes ----------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  perple : string;
  out : string;
}

let workloads = [ "campaign-long"; "daemon-short"; "fleet-2w"; "verify-long" ]

type shape = { runs : int; iterations : int }

let shape opts =
  match (opts.workload, opts.tiny) with
  | "campaign-long", false -> { runs = 64; iterations = 20_000 }
  | "campaign-long", true -> { runs = 4; iterations = 500 }
  | "daemon-short", false -> { runs = 256; iterations = 500 }
  | "daemon-short", true -> { runs = 8; iterations = 200 }
  | "fleet-2w", false -> { runs = 128; iterations = 5_000 }
  | "fleet-2w", true -> { runs = 8; iterations = 500 }
  | "verify-long", false -> { runs = 1; iterations = 100_000 }
  | "verify-long", true -> { runs = 1; iterations = 2_000 }
  | w, _ -> invalid_arg ("unknown workload " ^ w)

(* Each run cycles through this many distinct specs, all derived from the
   seed; repetitions of a spec must reproduce its reference exactly. *)
let distinct_specs = 2

let spec opts ~k ~campaign =
  let s = shape opts in
  {
    Wire.campaign;
    test = "sb";
    iterations = s.iterations;
    seed = (opts.seed * 1000) + (k mod distinct_specs);
    runs = s.runs;
    counter = "heur";
    model = "tso";
  }

let resolve spec =
  match Scheduler.resolve_spec spec with
  | Ok r -> r
  | Error m -> failwith ("spec does not resolve: " ^ m)

let config_of (r : Scheduler.resolved) =
  Config.with_model r.Scheduler.r_model Config.default

(* --- output checks and failure accounting ----------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable frames : int;
  mutable hits : int;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; frames = 0; hits = 0; problems = [] }

let problem t fmt =
  Printf.ksprintf
    (fun m ->
      if List.length t.problems < 20 then t.problems <- m :: t.problems)
    fmt

(* Reference record lines of a spec, computed in-process through the
   worker's single-run path, which every execution path must reproduce. *)
type reference = { lines : string array; digest : string }

let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list lines)))

let reference spec =
  let resolved = resolve spec in
  let lines =
    Pool.map ~jobs:(min jobs spec.Wire.runs) spec.Wire.runs (fun index ->
        match Worker.run_index ~resolved ~spec ~index with
        | Ok line -> line
        | Error m -> failwith ("reference run failed: " ^ m))
  in
  { lines; digest = digest_lines lines }

let references opts =
  Array.init distinct_specs (fun k -> reference (spec opts ~k ~campaign:"ref"))

(* Count one campaign's records against the reference, index by index. *)
let check_records t ~(reference : reference) ~campaign lines =
  let runs = Array.length reference.lines in
  t.attempted <- t.attempted + runs;
  match lines with
  | Error reason ->
    t.failed <- t.failed + runs;
    problem t "%s: %s" campaign reason
  | Ok lines ->
    let lines = Array.of_list lines in
    if Array.length lines <> runs then begin
      t.failed <- t.failed + runs;
      problem t "%s: %d records for %d runs" campaign (Array.length lines) runs
    end
    else
      Array.iteri
        (fun i line ->
          let parsed =
            Result.bind (Json.parse line) (fun j -> Ledger.of_json j)
          in
          match parsed with
          | Error m ->
            t.failed <- t.failed + 1;
            problem t "%s run %d: unparsable record: %s" campaign i m
          | Ok s ->
            t.frames <- t.frames + s.Ledger.frames_examined;
            t.hits <- t.hits + Ledger.target_count s;
            if s.Ledger.crashed <> None then begin
              t.failed <- t.failed + 1;
              problem t "%s run %d: crashed or unrecoverable" campaign i
            end
            else if line <> reference.lines.(i) then begin
              t.failed <- t.failed + 1;
              problem t "%s run %d: record differs from the reference" campaign
                i
            end)
        lines

let per s ~by = if by = 0.0 then 0.0 else s /. by

let check_campaign t refs ~k ~campaign lines () =
  check_records t ~reference:refs.(k mod distinct_specs) ~campaign lines

(* Each `perple run` is its own process and starts from an empty heap;
   in-process campaigns start from a collected one, outside the timing. *)
let fresh_heap () = Gc.full_major ()

(* Campaigns after which a service's peak memory is read. *)
let rss_after = 8

(* --- scratch directories ---------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

(* A private directory per repetition for sockets and journals; paths
   stay relative so Unix socket names stay short. *)
let fresh_dir =
  let n = ref 0 in
  fun opts tag ->
    incr n;
    let d =
      Filename.concat opts.out
        (Printf.sprintf "tmp/%s-%d-%d-%s" opts.workload (Unix.getpid ()) !n tag)
    in
    rm_rf d;
    mkdir_p d;
    d

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

(* --- measurements ----------------------------------------------------- *)

type sample = {
  wall : float;  (** Start or submit to the last record. *)
  first : float;  (** Start or submit to the first record; [nan] if none. *)
  frames : int;
  cpu : float;  (** CPU seconds of every working process over [wall]. *)
}

type e2e = { setups : float list; samples : sample list; rss_mb : float }

(* A sample per campaign, its frames read off the tally the campaign's
   check just credited. *)
let sampled (t : tally) samples ~wall ~first ~cpu check =
  let before = t.frames in
  check ();
  samples := { wall; first; cpu; frames = t.frames - before } :: !samples

(* Throughput is taken per block of consecutive campaigns spanning at
   least [block_s] of wall time (a shorter trailing block joins its
   predecessor) and the median over blocks reported, so a burst of noise
   from other tenants of the host moves one block, not the figure. *)
let block_s = 1.0

let blocks samples =
  let add (f, w, c) s = (f + s.frames, w +. s.wall, c +. s.cpu) in
  let closed, open_ =
    List.fold_left
      (fun (closed, cur) s ->
        let (_, w, _) as cur = add cur s in
        if w >= block_s then (cur :: closed, (0, 0.0, 0.0)) else (closed, cur))
      ([], (0, 0.0, 0.0))
      samples
  in
  match (open_, closed) with
  | (0, _, _), _ -> closed
  | cur, [] -> [ cur ]
  | (f, w, c), (f', w', c') :: rest -> (f + f', w +. w', c +. c') :: rest

let rates m =
  let bs = blocks m.samples in
  ( Pct.median (List.map (fun (f, w, _) -> per (float_of_int f) ~by:w) bs),
    Pct.median (List.map (fun (f, _, c) -> per (float_of_int f) ~by:c) bs) )

(* Closed loop, one client: campaign [k] starts only after campaign
   [k-1]'s last record arrived.  Runs until [seconds] have passed, at
   least one campaign. *)
let closed_loop ~seconds f =
  let t0 = clock () in
  let k = ref 0 in
  while !k = 0 || clock () -. t0 < seconds do
    f !k;
    incr k
  done;
  !k

(* --- campaign-long: Engine.campaign_entries + journal, in process ------ *)

let header runs =
  Ledger.header_to_json
    {
      Ledger.h_command = "run";
      h_digest = Ledger.digest_of_params [ ("bench", "campaign-long") ];
      h_runs = runs;
    }

(* One journaled campaign, the way `perple run --journal` drives it. *)
let engine_campaign ~pool ~test ~config ~dir ~spec =
  let runs = spec.Wire.runs in
  let path = Filename.concat dir (spec.Wire.campaign ^ ".journal") in
  let records = Array.make runs None in
  let first = ref nan in
  let t0 = clock () in
  let r =
    wrap ~campaign:spec.Wire.campaign ~layer:"bench" "campaign" @@ fun () ->
    let j = wrap ~layer:"journal" "journal.create" (fun () -> Journal.create path) in
    wrap ~layer:"journal" "journal.append" (fun () ->
        Journal.append j (header runs));
    let on_entry (e : Engine.entry) =
      if Float.is_nan !first then first := clock () -. t0;
      let s = wrap ~layer:"ledger" "ledger.of_entry" (fun () -> Ledger.of_entry e) in
      let json = wrap ~layer:"ledger" "ledger.to_json" (fun () -> Ledger.to_json s) in
      wrap ~layer:"journal" "journal.append" (fun () -> Journal.append j json);
      records.(e.Engine.run_index) <- Some s
    in
    let r =
      wrap ~layer:"engine" "engine.campaign_entries" (fun () ->
          Engine.campaign_entries ~config ~counter:Engine.Heuristic ~pool ~jobs
            ~on_entry ~runs ~seed:spec.Wire.seed
            ~iterations:spec.Wire.iterations test)
    in
    wrap ~layer:"journal" "journal.close" (fun () -> Journal.close j);
    r
  in
  let wall = clock () -. t0 in
  let bytes = file_size path in
  rm_rf path;
  let lines =
    match r with
    | Error reason -> Error (Format.asprintf "%a" Convert.pp_reason reason)
    | Ok _ ->
      Ok
        (Array.to_list
           (Array.map
              (function Some s -> Ledger.record_line s | None -> "")
              records))
  in
  (wall, !first, lines, bytes)

let setup_in_process ~with_pool () =
  let t0 = clock () in
  let test = wrap ~layer:"convert" "catalog.find" (fun () -> Catalog.find_exn "sb") in
  (match wrap ~layer:"convert" "convert.convert" (fun () -> Convert.convert test) with
  | Ok _ -> ()
  | Error _ -> failwith "sb does not convert");
  let pool =
    if with_pool then
      Some (wrap ~layer:"pool" "pool.create" (fun () -> Pool.create ~jobs ()))
    else None
  in
  (clock () -. t0, test, pool)

(* In-process set-up takes microseconds, below the clock's resolution, so
   it is timed in batches of [batch] consecutive set-ups; each batch
   contributes its mean and the median over batches is reported.  Only
   the last pool is kept. *)
let in_process_setups ~with_pool ~batches ~batch =
  let kept = ref None in
  let times =
    List.init batches (fun b ->
        let t0 = clock () in
        for i = 1 to batch do
          let _, test, pool = setup_in_process ~with_pool () in
          if b = batches - 1 && i = batch then kept := Some (test, pool)
          else Option.iter Pool.shutdown pool
        done;
        (clock () -. t0) /. float_of_int batch)
  in
  let test, pool = Option.get !kept in
  (times, test, pool)

(* --- verify-long: one run, then whole-trace verification -------------- *)

let verify_once ~test ~config ~model ~spec =
  let t0 = clock () in
  let seed = (Engine.campaign_seeds ~runs:1 ~seed:spec.Wire.seed).(0) in
  wrap ~campaign:spec.Wire.campaign ~layer:"bench" "campaign" @@ fun () ->
  match
    wrap ~layer:"engine" "engine.run" (fun () ->
        Engine.run ~config ~counter:Engine.Heuristic ~seed
          ~iterations:spec.Wire.iterations test)
  with
  | Error r ->
    (clock () -. t0, nan, Error (Format.asprintf "%a" Convert.pp_reason r), None)
  | Ok report ->
    let first = clock () -. t0 in
    let verdict =
      match
        wrap ~layer:"trace_check" "trace_check.trace_of_run" (fun () ->
            Trace_check.trace_of_run report.Engine.conversion report.Engine.run)
      with
      | exception Trace_check.Undecodable m -> Error m
      | trace ->
        Ok
          (wrap ~layer:"solver" "solver.classify_trace" (fun () ->
               Solver.classify_trace model trace))
    in
    let wall = clock () -. t0 in
    let line =
      Ledger.record_line
        (Ledger.of_entry
           {
             Engine.run_index = 0;
             run_seed = seed;
             outcome = Ok report;
             run_metrics = None;
           })
    in
    (wall, first, Ok [ line ], Some verdict)

(* The reference line without its per-run metrics capture, which a bare
   Engine.run does not make. *)
let without_metrics line =
  match Result.bind (Json.parse line) Ledger.of_json with
  | Ok s -> Ledger.record_line { s with Ledger.metrics = None }
  | Error m -> failwith ("reference record: " ^ m)

type verify_stats = {
  mutable events : int;
  mutable decisions : int;
  mutable backtracks : int;
}

let check_verdict t vs ~campaign = function
  | None -> ()
  | Some (Error m) ->
    t.failed <- t.failed + 1;
    problem t "%s: trace undecodable: %s" campaign m
  | Some (Ok (v : Solver.verdict)) ->
    vs.events <- vs.events + v.Solver.events;
    vs.decisions <- vs.decisions + v.Solver.decisions;
    vs.backtracks <- vs.backtracks + v.Solver.backtracks;
    if not v.Solver.consistent then begin
      t.failed <- t.failed + 1;
      problem t "%s: trace verdict inconsistent" campaign
    end

(* --- spawned daemons --------------------------------------------------- *)

let wait_ready ~socket ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      Unix.close fd;
      true
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if clock () > deadline then false
      else begin
        Unix.sleepf 0.002;
        go ()
      end
  in
  go ()

(* Submit one campaign over the daemon socket as `perple submit` does
   (the client protocol machine over a select loop).  Returns the records
   with the clock readings of the submit (the first write after the
   daemon's hello, which carries the Submit frame) and of the first
   record frame.  No retries: a retried submit counts as failed. *)
let submit_socket ~socket ~spec ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
    (Error ("connect: " ^ Unix.error_message e), nan, nan)
  | () ->
    Unix.set_nonblock fd;
    let epoch = clock () in
    let now () = int_of_float ((clock () -. epoch) *. 1000.) in
    let c = Client.create ~spec ~now:(now ()) () in
    let scan = Framed.create () in
    let replied = ref false and submitted = ref nan and first = ref nan in
    let rec spot () =
      match Wire.next_frame scan with
      | `Frame (Wire.Run_record _) -> first := clock ()
      | `Frame _ -> spot ()
      | `Need_more | `Corrupt _ -> ()
    in
    let rec loop () =
      match Client.status c with
      | Client.Done o -> Ok o.Client.records
      | Client.Failed r -> Error r
      | Client.Pending ->
        if clock () > deadline then Error "deadline passed"
        else begin
          let out = Client.output c in
          let writers = if Framed.is_empty out then [] else [ fd ] in
          (match Unix.select [ fd ] writers [] 0.05 with
          | readable, writable, _ ->
            (if writable <> [] then
               match Framed.write_from fd out with
               | `Wrote _ ->
                 if !replied && Float.is_nan !submitted then submitted := clock ()
               | `Would_block -> ()
               | `Closed | `Error _ -> Client.eof c ~now:(now ()));
            if readable <> [] then begin
              let stage = Framed.create () in
              match Framed.read_into fd stage with
              | `Read _ ->
                replied := true;
                let data = Framed.take_all stage in
                if Float.is_nan !first then begin
                  Framed.add_string scan data;
                  spot ()
                end;
                Client.input c ~now:(now ()) data
              | `Would_block -> ()
              | `Closed | `Error _ -> Client.eof c ~now:(now ())
            end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          Client.tick c ~now:(now ());
          loop ()
        end
    in
    let r = loop () in
    (r, !submitted, !first)

type service = {
  daemon : Proc.child;
  workers : Proc.child list;
  socket : string;
  journal : string;
}

let service_procs s = s.daemon :: s.workers
let stop_service s = List.iter (fun c -> Proc.stop c) (service_procs s)

let spawn_daemon opts ~dir ~coordinator =
  let socket = Filename.concat dir "d.sock" in
  let journal = Filename.concat dir "d.journal" in
  let args =
    [ "serve"; "--socket"; socket; "--journal"; journal ]
    @ if coordinator then [ "--coordinator" ] else [ "--jobs"; string_of_int jobs ]
  in
  let daemon =
    Proc.spawn ~prog:opts.perple ~args ~name:"daemon"
      ~log:(Filename.concat dir "serve.log")
  in
  let s = { daemon; workers = []; socket; journal } in
  if not (wait_ready ~socket ~deadline:(clock () +. 20.0)) then begin
    stop_service s;
    failwith "daemon socket never became ready"
  end;
  s

(* Lease records the coordinator journaled: (campaign, shard, worker). *)
let leases_in journal =
  match Journal.load journal with
  | Error _ -> []
  | Ok r ->
    List.filter_map
      (fun j ->
        match
          ( Ledger.kind j,
            Json.member "campaign" j,
            Json.member "shard" j,
            Json.member "worker" j )
        with
        | Some "lease", Some (Json.String c), Some (Json.Int sh),
          Some (Json.String w) ->
          Some (c, sh, w)
        | _ -> None)
      r.Journal.records

(* Open socket descriptors of a live process. *)
let sockets pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | fds ->
    Array.fold_left
      (fun n fd ->
        match Unix.readlink (Filename.concat dir fd) with
        | link when String.starts_with ~prefix:"socket:" link -> n + 1
        | _ | (exception Unix.Unix_error _) -> n)
      0 fds

(* Coordinator plus two workers, confirmed by a two-shard warm-up
   campaign whose shards were leased to both workers.  The warm-up waits
   until the coordinator holds both worker connections: submitted
   earlier, it would run on the local fallback and have to be repeated. *)
let spawn_fleet opts ~dir =
  let s = spawn_daemon opts ~dir ~coordinator:true in
  let workers =
    List.map
      (fun name ->
        Proc.spawn ~prog:opts.perple
          ~args:[ "worker"; "--socket"; s.socket; "--name"; name; "--retries"; "50" ]
          ~name ~log:(Filename.concat dir (name ^ ".log")))
      [ "w1"; "w2" ]
  in
  let s = { s with workers } in
  let deadline = clock () +. 20.0 in
  (* The listener plus one connection per worker. *)
  while sockets s.daemon.Proc.pid < 3 && clock () < deadline do
    Unix.sleepf 0.001
  done;
  let rec warm attempt =
    if attempt > 20 then begin
      stop_service s;
      failwith "workers never both held leases during warm-up"
    end;
    let campaign = Printf.sprintf "warmup-%d" attempt in
    let spec =
      { (spec opts ~k:0 ~campaign) with Wire.runs = 2 * shard_runs; iterations = 500 }
    in
    let r, _, _ = submit_socket ~socket:s.socket ~spec ~deadline:(clock () +. 30.0) in
    match r with
    | Error m ->
      stop_service s;
      failwith ("warm-up campaign failed: " ^ m)
    | Ok _ ->
      let holders =
        List.sort_uniq compare
          (List.filter_map
             (fun (c, _, w) -> if c = campaign then Some w else None)
             (leases_in s.journal))
      in
      if holders <> [ "w1"; "w2" ] then warm (attempt + 1)
  in
  warm 0;
  s

(* --- service measurements (untraced, over the socket) ----------------- *)

let measure_service opts ~refs ~coordinator ~seconds t =
  let reps = if opts.tiny then 1 else 7 in
  let setups = ref [] in
  let svc = ref None in
  for i = 1 to reps do
    Option.iter stop_service !svc;
    let dir = fresh_dir opts (Printf.sprintf "setup%d" i) in
    let t0 = clock () in
    let s =
      if coordinator then spawn_fleet opts ~dir
      else spawn_daemon opts ~dir ~coordinator:false
    in
    setups := (clock () -. t0) :: !setups;
    svc := Some s
  done;
  let s = Option.get !svc in
  Fun.protect ~finally:(fun () -> stop_service s) @@ fun () ->
  (* A small untimed campaign first, so no timed campaign pays for the
     daemon's first batch (pool wake-up, journal growth). *)
  if not coordinator then
    ignore
      (submit_socket ~socket:s.socket
         ~spec:{ (spec opts ~k:0 ~campaign:"warmup") with Wire.runs = 2 * jobs }
         ~deadline:(clock () +. 30.0));
  let cpu_now () =
    Proc.self_cpu_s ()
    +. List.fold_left (fun a c -> a +. Proc.cpu_s c.Proc.pid) 0.0 (service_procs s)
  in
  let samples = ref [] and campaigns = ref [] in
  (* The daemon keeps every campaign's records, so its memory grows with
     the number of campaigns a run completes; peak memory is read after a
     fixed number of them, to keep it independent of throughput. *)
  let service_rss () =
    List.fold_left (fun a c -> a +. Proc.peak_rss_mb c.Proc.pid) 0.0 (service_procs s)
  in
  let rss = ref nan in
  let count =
    closed_loop ~seconds (fun k ->
        let campaign = Printf.sprintf "c%d" k in
        let spec = spec opts ~k ~campaign in
        let c0 = cpu_now () in
        let t0 = clock () in
        let r, submitted, first =
          submit_socket ~socket:s.socket ~spec ~deadline:(clock () +. 150.0)
        in
        let submitted = if Float.is_nan submitted then t0 else submitted in
        let wall = clock () -. submitted and first = first -. submitted in
        let cpu = cpu_now () -. c0 in
        if k + 1 = rss_after then rss := service_rss ();
        campaigns := campaign :: !campaigns;
        sampled t samples ~wall ~first ~cpu
          (check_campaign t refs ~k ~campaign r))
  in
  if coordinator then begin
    let leases = leases_in s.journal in
    let expected = count * (((shape opts).runs + shard_runs - 1) / shard_runs) in
    let leased =
      List.length
        (List.sort_uniq compare
           (List.filter_map
              (fun (c, sh, _) -> if List.mem c !campaigns then Some (c, sh) else None)
              leases))
    in
    if leased <> expected then begin
      t.failed <- t.failed + ((expected - leased) * shard_runs);
      problem t "%d of %d shards were never leased to a worker" (expected - leased)
        expected
    end;
    List.iter
      (fun w ->
        if not (Proc.alive w) then begin
          t.failed <- t.failed + 1;
          problem t "worker %s exited during the run" w.Proc.name
        end)
      s.workers
  end;
  if Float.is_nan !rss then rss := service_rss ();
  { setups = !setups; samples = List.rev !samples; rss_mb = !rss }

(* --- in-process measurements (untraced) ------------------------------- *)

let verify_refs refs =
  Array.map
    (fun r ->
      let lines = Array.map without_metrics r.lines in
      { lines; digest = digest_lines lines })
    refs

(* State of an in-process runner: the set-up's test and pool, and the
   counters its campaigns add to. *)
type in_process = {
  test : Perple_litmus.Ast.t;
  pool : Pool.t option;
  config : Config.t;
  model : Perple_memmodel.Operational.model;
  dir : string;
  vs : verify_stats;
  mutable journal_bytes : int;
  mutable ledger_bytes : int;
}

let in_process opts ~test ~pool =
  let resolved = resolve (spec opts ~k:0 ~campaign:"x") in
  {
    test;
    pool;
    config = config_of resolved;
    model = Trace_check.spec_model resolved.Scheduler.r_model;
    dir = fresh_dir opts "run";
    vs = { events = 0; decisions = 0; backtracks = 0 };
    journal_bytes = 0;
    ledger_bytes = 0;
  }

(* One in-process campaign of each workload: its wall, first-record
   offset and output check. *)
let campaign_long_once opts t refs env ~k ~campaign =
  let spec = spec opts ~k ~campaign in
  let wall, first, lines, bytes =
    engine_campaign ~pool:(Option.get env.pool) ~test:env.test ~config:env.config
      ~dir:env.dir ~spec
  in
  env.journal_bytes <- env.journal_bytes + bytes;
  (match lines with
  | Ok lines ->
    List.iter (fun l -> env.ledger_bytes <- env.ledger_bytes + String.length l) lines
  | Error _ -> ());
  (wall, first, check_campaign t refs ~k ~campaign lines)

(* Frames on this workload are the iterations verified. *)
let verify_long_once opts t refs env ~k ~campaign =
  let spec = spec opts ~k ~campaign in
  let wall, first, lines, verdict =
    verify_once ~test:env.test ~config:env.config ~model:env.model ~spec
  in
  ( wall,
    first,
    fun () ->
      check_campaign t refs ~k ~campaign lines ();
      check_verdict t env.vs ~campaign verdict )

let measure_in_process opts ~seconds t once =
  let with_pool = opts.workload = "campaign-long" in
  let setups, test, pool =
    if opts.tiny then in_process_setups ~with_pool ~batches:1 ~batch:1
    else in_process_setups ~with_pool ~batches:15 ~batch:(if with_pool then 20 else 2000)
  in
  let env = in_process opts ~test ~pool in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  let samples = ref [] in
  ignore
    (closed_loop ~seconds (fun k ->
         fresh_heap ();
         let c0 = Proc.self_cpu_s () in
         let wall, first, check = once env ~k ~campaign:(Printf.sprintf "c%d" k) in
         let cpu = Proc.self_cpu_s () -. c0 in
         sampled t samples ~wall ~first ~cpu check));
  if opts.workload = "verify-long" && env.vs.events = 0 && t.failed = 0 then
    problem t "no trace verdict was produced";
  { setups; samples = List.rev !samples; rss_mb = Proc.self_peak_rss_mb () }

(* --- in-process service cores, for the traced run ---------------------- *)

(* Bytes that crossed an in-process transport, by campaign, replayed
   through the wire codec after the traced window. *)
type capture = { mutable chunks : (string * string) list }

let captured cap ~campaign bytes =
  if bytes <> "" && Trace_event.enabled () then
    cap.chunks <- (campaign, bytes) :: cap.chunks

(* Server.create/input/tick/flush against a Client machine, on the same
   specs the socket run submitted. *)
type daemon_core = {
  server : Server.t;
  sched : Scheduler.t;
  dir : string;
  cap : capture;
  mutable ticks : int;
}

let daemon_core opts =
  let dir = fresh_dir opts "core" in
  let sched =
    wrap ~layer:"scheduler" "scheduler.create" (fun () ->
        match Scheduler.create ~jobs ~journal:(Some (Filename.concat dir "d.journal")) () with
        | Ok s -> s
        | Error m -> failwith m)
  in
  let server = wrap ~layer:"server" "server.create" (fun () -> Server.create ~scheduler:sched ()) in
  { server; sched; dir; cap = { chunks = [] }; ticks = 0 }

let core_campaign core ~spec ~deadline =
  let cap = core.cap in
  let campaign = spec.Wire.campaign in
  let epoch = clock () in
  let now () = int_of_float ((clock () -. epoch) *. 1000.) in
  wrap ~campaign ~layer:"bench" "campaign" @@ fun () ->
  let conn = wrap ~layer:"server" "server.connect" (fun () -> Server.connect core.server ~now:(now ())) in
  let c = Client.create ~spec ~now:(now ()) () in
  let rec loop () =
    let out = Framed.take_all (Client.output c) in
    if out <> "" then begin
      captured cap ~campaign out;
      wrap ~layer:"server" "server.input" (fun () ->
          Server.input core.server ~conn ~now:(now ()) out)
    end;
    wrap ~layer:"server" "server.tick" (fun () -> Server.tick core.server ~now:(now ()));
    core.ticks <- core.ticks + 1;
    let back = wrap ~layer:"server" "server.flush" (fun () -> Server.flush core.server ~conn) in
    if back <> "" then begin
      captured cap ~campaign back;
      Client.input c ~now:(now ()) back
    end;
    Client.tick c ~now:(now ());
    match Client.status c with
    | Client.Done o ->
      wrap ~layer:"server" "server.eof" (fun () -> Server.eof core.server ~conn ~now:(now ()));
      Ok o.Client.records
    | Client.Failed r -> Error r
    | Client.Pending -> if clock () > deadline then Error "deadline passed" else loop ()
  in
  loop ()

(* Coordinator against two Worker machines, each on its own domain and
   executing its leases through Worker.run_index. *)
type fleet_core = {
  f_sched : Scheduler.t;
  coord : Coordinator.t;
  f_dir : string;
  m : Mutex.t;
  cv : Condition.t;
  inbox : Buffer.t array;  (** coordinator -> worker *)
  outbox : Buffer.t array;  (** worker -> coordinator *)
  decoders : Framed.buf array;
  mutable stop : bool;
  mutable dead : string option;
  idle_s : float array;
  epoch : float;
  grants : (string * int * int, float) Hashtbl.t;
  mutable lease_ms : float list;
  mutable leases : int;
  mutable revokes : int;
  f_cap : capture;
  mutable domains : unit Domain.t list;
}

let fleet_now f = int_of_float ((clock () -. f.epoch) *. 1000.)

let fleet_send f ~campaign i frame =
  let bytes = Wire.encode frame in
  captured f.f_cap ~campaign bytes;
  Mutex.lock f.m;
  Buffer.add_string f.inbox.(i) bytes;
  Condition.broadcast f.cv;
  Mutex.unlock f.m

let deliver f ~campaign cmds =
  List.iter
    (fun { Coordinator.target; frame } ->
      (match frame with
      | Wire.Lease { campaign; shard; epoch; _ } ->
        f.leases <- f.leases + 1;
        Hashtbl.replace f.grants (campaign, shard, epoch) (clock ())
      | Wire.Revoke _ -> f.revokes <- f.revokes + 1
      | _ -> ());
      fleet_send f ~campaign target frame)
    cmds

let worker_domain f i =
  let name = Printf.sprintf "w%d" (i + 1) in
  let w = Worker.create ~name ~now:(fleet_now f) () in
  let resolved = Hashtbl.create 4 in
  let execute (task : Worker.task) =
    let spec = task.Worker.spec in
    wrap ~campaign:spec.Wire.campaign ~layer:"worker" "worker.run_index" @@ fun () ->
    let r =
      match Hashtbl.find_opt resolved spec.Wire.campaign with
      | Some r -> r
      | None ->
        let r = resolve spec in
        Hashtbl.replace resolved spec.Wire.campaign r;
        r
    in
    if r.Scheduler.r_digest <> task.Worker.digest then
      Worker.task_failed w ~reason:"digest mismatch"
    else
      match Worker.run_index ~resolved:r ~spec ~index:task.Worker.index with
      | Ok record -> Worker.task_done w ~now:(fleet_now f) ~record
      | Error reason -> Worker.task_failed w ~reason
  in
  let rec loop () =
    let out = Framed.take_all (Worker.output w) in
    Mutex.lock f.m;
    if out <> "" then begin
      Buffer.add_string f.outbox.(i) out;
      Condition.broadcast f.cv
    end;
    let t0 = clock () in
    let waited = ref false in
    while Buffer.length f.inbox.(i) = 0 && (not f.stop) && Worker.task w = None do
      waited := true;
      Condition.wait f.cv f.m
    done;
    if !waited then f.idle_s.(i) <- f.idle_s.(i) +. (clock () -. t0);
    let data = Buffer.contents f.inbox.(i) in
    Buffer.clear f.inbox.(i);
    let stop = f.stop in
    Mutex.unlock f.m;
    if not stop then begin
      if data <> "" then Worker.input w ~now:(fleet_now f) data;
      Worker.tick w ~now:(fleet_now f);
      Option.iter execute (Worker.task w);
      match Worker.status w with
      | Worker.Running -> loop ()
      | Worker.Stopped reason ->
        Mutex.lock f.m;
        f.dead <- Some (name ^ ": " ^ reason);
        Condition.broadcast f.cv;
        Mutex.unlock f.m
    end
  in
  loop ()

let fleet_handle f ~campaign i = function
  | Wire.Worker_hello { worker; _ } ->
    wrap ~layer:"coordinator" "coordinator.add_worker" (fun () ->
        Coordinator.add_worker f.coord ~id:i ~name:worker);
    fleet_send f ~campaign i
      (Wire.Hello { version = Wire.protocol_version; peer = "perfbench" })
  | Wire.Lease_renew { campaign = c; shard; epoch; _ } ->
    deliver f ~campaign
      (wrap ~layer:"coordinator" "coordinator.renew" (fun () ->
           Coordinator.renew f.coord ~worker:i ~campaign:c ~shard ~epoch
             ~now:(fleet_now f)))
  | Wire.Shard_result { campaign = c; shard; epoch; records } ->
    (match Hashtbl.find_opt f.grants (c, shard, epoch) with
    | Some t -> f.lease_ms <- ((clock () -. t) *. 1000.0) :: f.lease_ms
    | None -> ());
    deliver f ~campaign
      (wrap ~layer:"coordinator" "coordinator.shard_result" (fun () ->
           Coordinator.shard_result f.coord ~worker:i ~campaign:c ~shard ~epoch
             ~records ~now:(fleet_now f)))
  | Wire.Shard_failed { campaign = c; shard; epoch; reason } ->
    deliver f ~campaign
      (wrap ~layer:"coordinator" "coordinator.shard_failed" (fun () ->
           Coordinator.shard_failed f.coord ~worker:i ~campaign:c ~shard ~epoch
             ~reason ~now:(fleet_now f)))
  | _ -> ()

(* Wait for worker bytes, then dispatch every complete frame. *)
let fleet_pump f ~campaign =
  Mutex.lock f.m;
  wrap ~layer:"wait" "coordinator.wait" (fun () ->
      while
        Array.for_all (fun b -> Buffer.length b = 0) f.outbox && f.dead = None
      do
        Condition.wait f.cv f.m
      done);
  let data =
    Array.map
      (fun b ->
        let s = Buffer.contents b in
        Buffer.clear b;
        s)
      f.outbox
  in
  let dead = f.dead in
  Mutex.unlock f.m;
  (match dead with Some m -> failwith ("in-process worker stopped: " ^ m) | None -> ());
  Array.iteri
    (fun i bytes ->
      if bytes <> "" then begin
        captured f.f_cap ~campaign bytes;
        Framed.add_string f.decoders.(i) bytes;
        let rec next () =
          match Wire.next_frame f.decoders.(i) with
          | `Frame fr ->
            fleet_handle f ~campaign i fr;
            next ()
          | `Need_more -> ()
          | `Corrupt m -> failwith ("corrupt worker stream: " ^ m)
        in
        next ()
      end)
    data

let fleet_core opts =
  let dir = fresh_dir opts "core" in
  let sched =
    wrap ~layer:"scheduler" "scheduler.create" (fun () ->
        match Scheduler.create ~jobs:1 ~journal:(Some (Filename.concat dir "d.journal")) () with
        | Ok s -> s
        | Error m -> failwith m)
  in
  let coord =
    wrap ~layer:"coordinator" "coordinator.create" (fun () ->
        match Coordinator.create ~scheduler:sched () with
        | Ok c -> c
        | Error m -> failwith m)
  in
  let f =
    {
      f_sched = sched;
      coord;
      f_dir = dir;
      m = Mutex.create ();
      cv = Condition.create ();
      inbox = Array.init 2 (fun _ -> Buffer.create 4096);
      outbox = Array.init 2 (fun _ -> Buffer.create 4096);
      decoders = Array.init 2 (fun _ -> Framed.create ());
      stop = false;
      dead = None;
      idle_s = Array.make 2 0.0;
      epoch = clock ();
      grants = Hashtbl.create 64;
      lease_ms = [];
      leases = 0;
      revokes = 0;
      f_cap = { chunks = [] };
      domains = [];
    }
  in
  f.domains <- List.init 2 (fun i -> Domain.spawn (fun () -> worker_domain f i));
  while Coordinator.worker_count coord < 2 do
    fleet_pump f ~campaign:""
  done;
  f

let fleet_close f =
  Mutex.lock f.m;
  f.stop <- true;
  Condition.broadcast f.cv;
  Mutex.unlock f.m;
  List.iter Domain.join f.domains;
  Scheduler.close f.f_sched

let fleet_campaign f ~spec =
  let campaign = spec.Wire.campaign in
  wrap ~campaign ~layer:"bench" "campaign" @@ fun () ->
  match
    wrap ~layer:"scheduler" "scheduler.submit" (fun () -> Scheduler.submit f.f_sched spec)
  with
  | Error m -> Error ("rejected: " ^ m)
  | Ok _ ->
    let rec loop () =
      deliver f ~campaign
        (wrap ~layer:"coordinator" "coordinator.tick" (fun () ->
             Coordinator.tick f.coord ~now:(fleet_now f)));
      if not (Scheduler.is_complete f.f_sched ~campaign) then begin
        fleet_pump f ~campaign;
        loop ()
      end
    in
    loop ();
    Ok
      (List.init spec.Wire.runs (fun index ->
           Option.value ~default:""
             (Scheduler.record f.f_sched ~campaign ~index)))

(* --- replay of layers the service cores call internally --------------- *)

type replay = {
  mutable wire_frames : int;
  mutable wire_bytes : int;
  mutable ledger_bytes : int;
  mutable journal_bytes : int;
}

(* The journal appends, record (de)serialization and frame coding that
   happen inside the scheduler, server and worker machines cannot be
   wrapped from outside the library; the traced run measures them by
   passing the very records and bytes of the traced window through the
   same public functions once more, attributed to their campaign. *)
let replay_layers ~dir ~journal cap =
  let r = { wire_frames = 0; wire_bytes = 0; ledger_bytes = 0; journal_bytes = 0 } in
  List.iter
    (fun (campaign, bytes) ->
      r.wire_bytes <- r.wire_bytes + String.length bytes;
      let rec go pos =
        if pos < String.length bytes then
          match
            wrap ~campaign ~layer:"wire" "wire.decode" (fun () -> Wire.decode ~pos bytes)
          with
          | Wire.Frame (fr, used) ->
            r.wire_frames <- r.wire_frames + 1;
            ignore (wrap ~campaign ~layer:"wire" "wire.encode" (fun () -> Wire.encode fr));
            go (pos + used)
          | Wire.Need_more | Wire.Corrupt _ -> ()
      in
      go 0)
    (List.rev cap.chunks);
  (match Journal.load journal with
  | Error _ -> ()
  | Ok recovery ->
    let path = Filename.concat dir "replay.journal" in
    let j = Journal.create path in
    List.iter
      (fun record ->
        let campaign =
          match Json.member "campaign" record with
          | Some (Json.String c) -> c
          | _ -> ""
        in
        (match Json.member "run" record with
        | Some run -> (
          match
            wrap ~campaign ~layer:"ledger" "ledger.of_json" (fun () -> Ledger.of_json run)
          with
          | Ok s ->
            let line =
              wrap ~campaign ~layer:"ledger" "ledger.record_line" (fun () ->
                  Ledger.record_line s)
            in
            r.ledger_bytes <- r.ledger_bytes + String.length line
          | Error _ -> ())
        | None -> ());
        wrap ~campaign ~layer:"journal" "journal.append" (fun () -> Journal.append j record))
      recovery.Journal.records;
    Journal.close j;
    r.journal_bytes <- file_size path);
  r

(* --- the traced run ---------------------------------------------------- *)

type traced = {
  untraced_wall : float;  (** Same runner, same specs, tracing off. *)
  traced_wall : float;
  window : Spans.span list;  (** Recorded during the traced campaigns. *)
  replayed : Spans.span list;  (** From {!replay_layers}, after them. *)
  extras : (string * float) list;
      (** Layer counters the spans alone cannot give. *)
}

(* Campaigns per pass of the traced run.  The count follows from the run
   length and a fixed nominal campaign time, never from the throughput
   measured, so per-layer totals of two commits cover the same work. *)
let traced_campaigns opts =
  let nominal_s =
    match opts.workload with
    | "campaign-long" -> 0.3
    | "verify-long" -> 1.1
    | "daemon-short" -> 6.5
    | _ -> 0.2
  in
  if opts.tiny then 1 else max 1 (Float.to_int (Float.round (opts.seconds /. 2.0 /. nominal_s)))

(* One warm-up campaign (so heap growth is not billed to either pass),
   then [count] campaigns untraced, then the same campaigns again in a
   fresh runner with the ambient library sink installed.  [drive env ~k ~campaign] runs one campaign and returns its
   output check, which runs after the pass so that checking is neither
   timed nor traced. *)
let two_passes ~count ~make ~drive ~close =
  let pass ~traced ~warm =
    let sink = Trace_event.create_sink () in
    if traced then begin
      Spans.reset ();
      Trace_event.install sink
    end;
    let env = make () in
    let checks = ref [] in
    if warm then checks := [ drive env ~k:0 ~campaign:"warmup" ];
    let t0 = clock () in
    for k = 0 to count - 1 do
      checks := drive env ~k ~campaign:(Printf.sprintf "c%d" k) :: !checks
    done;
    let wall = clock () -. t0 in
    Trace_event.uninstall ();
    if traced then Spans.import_trace sink;
    List.iter (fun check -> check ()) (List.rev !checks);
    (env, wall)
  in
  let env_u, untraced_wall = pass ~traced:false ~warm:true in
  close env_u;
  let env, traced_wall = pass ~traced:true ~warm:false in
  (env, untraced_wall, traced_wall, Spans.collect ())

let replaying f =
  Spans.reset ();
  Trace_event.install (Trace_event.create_sink ());
  let r = Fun.protect ~finally:Trace_event.uninstall f in
  (r, Spans.collect ())

let in_process_traced opts ~with_pool () =
  let _, test, pool = setup_in_process ~with_pool () in
  in_process opts ~test ~pool

let trace_campaign_long opts ~refs t =
  let drive env ~k ~campaign =
    let _, _, check = campaign_long_once opts t refs env ~k ~campaign in
    check
  in
  let close env = Option.iter Pool.shutdown env.pool in
  let env, untraced_wall, traced_wall, window =
    two_passes ~count:(traced_campaigns opts)
      ~make:(in_process_traced opts ~with_pool:true) ~drive ~close
  in
  close env;
  {
    untraced_wall;
    traced_wall;
    window;
    replayed = [];
    extras =
      [
        ("journal.bytes", float_of_int env.journal_bytes);
        ("ledger.bytes", float_of_int env.ledger_bytes);
      ];
  }

let trace_verify_long opts ~refs t =
  let refs = verify_refs refs in
  let drive env ~k ~campaign =
    let _, _, check = verify_long_once opts t refs env ~k ~campaign in
    check
  in
  let env, untraced_wall, traced_wall, window =
    two_passes ~count:(traced_campaigns opts)
      ~make:(in_process_traced opts ~with_pool:false) ~drive ~close:ignore
  in
  {
    untraced_wall;
    traced_wall;
    window;
    replayed = [];
    extras =
      [
        ("trace_check.events", float_of_int env.vs.events);
        ("solver.decisions", float_of_int env.vs.decisions);
        ("solver.backtracks", float_of_int env.vs.backtracks);
      ];
  }

let replay_extras (r : replay) =
  [
    ("wire.frames", float_of_int r.wire_frames);
    ("wire.bytes", float_of_int r.wire_bytes);
    ("ledger.bytes", float_of_int r.ledger_bytes);
    ("journal.bytes", float_of_int r.journal_bytes);
  ]

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

let trace_daemon_short opts ~refs t =
  (* Untraced socket walls of the same specs, for server.wait_s. *)
  let socket_walls = ref [] in
  let s = spawn_daemon opts ~dir:(fresh_dir opts "socket") ~coordinator:false in
  let count = traced_campaigns opts in
  Fun.protect ~finally:(fun () -> stop_service s) (fun () ->
      for k = 0 to count - 1 do
        let campaign = Printf.sprintf "c%d" k in
        let spec = spec opts ~k ~campaign in
        let t0 = clock () in
        let r, submitted, _ =
          submit_socket ~socket:s.socket ~spec ~deadline:(clock () +. 150.0)
        in
        let submitted = if Float.is_nan submitted then t0 else submitted in
        socket_walls := (clock () -. submitted) :: !socket_walls;
        check_campaign t refs ~k ~campaign r ()
      done);
  let drive core ~k ~campaign =
    let spec = spec opts ~k ~campaign in
    check_campaign t refs ~k ~campaign
      (core_campaign core ~spec ~deadline:(clock () +. 150.0))
  in
  let core, untraced_wall, traced_wall, window =
    two_passes ~count ~make:(fun () -> daemon_core opts) ~drive
      ~close:(fun core -> Scheduler.close core.sched)
  in
  Scheduler.close core.sched;
  let r, replayed =
    replaying (fun () ->
        replay_layers ~dir:core.dir ~journal:(Filename.concat core.dir "d.journal")
          core.cap)
  in
  (* Busy time of a campaign: self time of every span the traced window
     attributed to it; whatever the socket run took beyond that, its
     runs spent waiting on the daemon's loop. *)
  let by = Spans.self_by_campaign window in
  let busy =
    List.init count (fun k ->
        Option.value ~default:0.0 (Hashtbl.find_opt by (Printf.sprintf "c%d" k)) /. 1e6)
  in
  {
    untraced_wall;
    traced_wall;
    window;
    replayed;
    extras =
      replay_extras r
      @ [
          ("server.ticks", float_of_int core.ticks);
          ("server.wait_s", mean !socket_walls -. mean busy);
        ];
  }

let trace_fleet_2w opts ~refs t =
  let drive f ~k ~campaign =
    check_campaign t refs ~k ~campaign (fleet_campaign f ~spec:(spec opts ~k ~campaign))
  in
  let count = traced_campaigns opts in
  let f, untraced_wall, traced_wall, window =
    two_passes ~count ~make:(fun () -> fleet_core opts) ~drive
      ~close:fleet_close
  in
  fleet_close f;
  let r, replayed =
    replaying (fun () ->
        replay_layers ~dir:f.f_dir ~journal:(Filename.concat f.f_dir "d.journal") f.f_cap)
  in
  let completed =
    List.fold_left
      (fun a k ->
        let c, _, _ = Coordinator.shard_counts f.coord ~campaign:(Printf.sprintf "c%d" k) in
        a + c)
      0 (List.init count Fun.id)
  in
  {
    untraced_wall;
    traced_wall;
    window;
    replayed;
    extras =
      replay_extras r
      @ [
          ("coordinator.leases", float_of_int f.leases);
          ("coordinator.revokes", float_of_int f.revokes);
          ("coordinator.accept_ratio", per (float_of_int completed) ~by:(float_of_int f.leases));
          ("coordinator.lease_p50_ms", if f.lease_ms = [] then 0.0 else Pct.median f.lease_ms);
          ("worker.idle_s", Array.fold_left ( +. ) 0.0 f.idle_s);
        ];
  }

(* --- metrics ----------------------------------------------------------- *)

(* The gated end-to-end metrics.  The first-record latency is reported
   with the timings only: daemon-short completes four campaigns in a
   20-second run, and the median of four first-record samples spreads
   from run to run by more than any bound a regression gate can use. *)
let e2e_metrics =
  [
    ("frames_per_s", "1/s");
    ("frames_per_cpu_s", "1/s");
    ("campaign_p50_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let layer_metrics =
  [
    ("machine.calls", "count"); ("machine.busy_s", "s"); ("machine.rounds", "count");
    ("machine.instructions", "count"); ("machine.ns_per_round", "ns");
    ("count.calls", "count"); ("count.busy_s", "s"); ("count.evaluations", "count");
    ("count.ns_per_eval", "ns"); ("count.hit_ratio", "ratio");
    ("convert.calls", "count"); ("convert.busy_s", "s");
    ("engine.busy_s", "s"); ("engine.self_s", "s");
    ("pool.tasks", "count"); ("pool.busy_s", "s"); ("pool.utilisation", "ratio");
    ("ledger.calls", "count"); ("ledger.busy_s", "s"); ("ledger.bytes", "bytes");
    ("journal.appends", "count"); ("journal.busy_s", "s");
    ("journal.append_p50_us", "us"); ("journal.bytes", "bytes");
    ("wire.frames", "count"); ("wire.bytes", "bytes"); ("wire.encode_s", "s");
    ("wire.decode_s", "s");
    ("scheduler.steps", "count"); ("scheduler.busy_s", "s");
    ("scheduler.runs_per_step", "count");
    ("server.ticks", "count"); ("server.busy_s", "s"); ("server.wait_s", "s");
    ("coordinator.leases", "count"); ("coordinator.revokes", "count");
    ("coordinator.busy_s", "s"); ("coordinator.accept_ratio", "ratio");
    ("coordinator.lease_p50_ms", "ms");
    ("worker.runs", "count"); ("worker.busy_s", "s"); ("worker.idle_s", "s");
    ("trace_check.events", "count"); ("trace_check.busy_s", "s");
    ("solver.busy_s", "s"); ("solver.decisions", "count");
    ("solver.backtracks", "count"); ("solver.ns_per_event", "ns");
    ("trace.overhead_ratio", "ratio");
  ]

let walls m = List.map (fun s -> s.wall) m.samples
let firsts m = List.filter_map (fun s -> if Float.is_nan s.first then None else Some s.first) m.samples

let e2e_values (m : e2e) =
  let frames_per_s, frames_per_cpu_s = rates m in
  [
    ("frames_per_s", frames_per_s);
    ("frames_per_cpu_s", frames_per_cpu_s);
    ("campaign_p50_s", Pct.median (walls m));
    ("setup_s", Pct.median m.setups);
    ("peak_rss_mb", m.rss_mb);
  ]

let layer_values ~width (tr : traced) (t : tally) =
  (* A layer's row comes from the traced window when the benchmark called
     into it there, else from the replay (layers internal to the service
     cores). *)
  let window = Spans.fold tr.window and replayed = Spans.fold tr.replayed in
  let row layer =
    let find rows = List.find_opt (fun r -> r.Spans.layer = layer) rows in
    match find window with Some r -> Some r | None -> find replayed
  in
  let calls l = match row l with Some r -> float_of_int r.Spans.calls | None -> 0.0 in
  let busy l = match row l with Some r -> r.Spans.busy_us /. 1e6 | None -> 0.0 in
  let self l = match row l with Some r -> r.Spans.self_us /. 1e6 | None -> 0.0 in
  let spans = tr.window @ tr.replayed in
  let named n = List.filter (fun (s : Spans.span) -> s.Spans.name = n) spans in
  let sum_dur n = List.fold_left (fun a s -> a +. Spans.dur s) 0.0 (named n) /. 1e6 in
  let sum_arg layer key =
    List.fold_left
      (fun a (s : Spans.span) ->
        if s.Spans.layer = layer then
          a +. Option.value ~default:0.0 (List.assoc_opt key s.Spans.args)
        else a)
      0.0 spans
  in
  let extra k = Option.value ~default:0.0 (List.assoc_opt k tr.extras) in
  let rounds = sum_arg "sim" "rounds" in
  let evals = sum_arg "count" "evaluations" in
  let steps = float_of_int (List.length (named "service.scheduler.step")) in
  let events = extra "trace_check.events" in
  let appends = named "journal.append" in
  [
    ("machine.calls", calls "sim");
    ("machine.busy_s", busy "sim");
    ("machine.rounds", rounds);
    ("machine.instructions", sum_arg "sim" "instructions");
    ("machine.ns_per_round", per (busy "sim" *. 1e9) ~by:rounds);
    ("count.calls", calls "count");
    ("count.busy_s", busy "count");
    ("count.evaluations", evals);
    ("count.ns_per_eval", per (busy "count" *. 1e9) ~by:evals);
    ("count.hit_ratio", per (float_of_int t.hits) ~by:(float_of_int t.frames));
    ("convert.calls", calls "convert");
    ("convert.busy_s", busy "convert");
    ("engine.busy_s", busy "engine");
    ("engine.self_s", self "engine");
    ("pool.tasks", calls "pool");
    ("pool.busy_s", busy "pool");
    ("pool.utilisation", per (busy "pool") ~by:(tr.traced_wall *. float_of_int width));
    ("ledger.calls", calls "ledger");
    ("ledger.busy_s", busy "ledger");
    ("ledger.bytes", extra "ledger.bytes");
    ("journal.appends", float_of_int (List.length appends));
    ( "journal.append_p50_us",
      if appends = [] then 0.0 else Pct.median (List.map Spans.dur appends) );
    ("journal.busy_s", busy "journal");
    ("journal.bytes", extra "journal.bytes");
    ("wire.frames", extra "wire.frames");
    ("wire.bytes", extra "wire.bytes");
    ("wire.encode_s", sum_dur "wire.encode");
    ("wire.decode_s", sum_dur "wire.decode");
    ("scheduler.steps", steps);
    ("scheduler.busy_s", busy "scheduler");
    ("scheduler.runs_per_step", per (sum_arg "scheduler" "batch") ~by:steps);
    ("server.ticks", extra "server.ticks");
    ("server.busy_s", busy "server");
    ("server.wait_s", extra "server.wait_s");
    ("coordinator.leases", extra "coordinator.leases");
    ("coordinator.revokes", extra "coordinator.revokes");
    ("coordinator.busy_s", busy "coordinator");
    ("coordinator.accept_ratio", extra "coordinator.accept_ratio");
    ("coordinator.lease_p50_ms", extra "coordinator.lease_p50_ms");
    ("worker.runs", float_of_int (List.length (named "worker.run_index")));
    ("worker.busy_s", busy "worker");
    ("worker.idle_s", extra "worker.idle_s");
    ("trace_check.events", events);
    ("trace_check.busy_s", busy "trace_check");
    ("solver.busy_s", busy "solver");
    ("solver.decisions", extra "solver.decisions");
    ("solver.backtracks", extra "solver.backtracks");
    ("solver.ns_per_event", per (busy "solver" *. 1e9) ~by:events);
    ("trace.overhead_ratio", per tr.traced_wall ~by:tr.untraced_wall);
  ]

(* --- reporting --------------------------------------------------------- *)

let metrics_json units values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:nan (List.assoc_opt name values) in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       units)

let summary_json xs =
  let s = Pct.summarize xs in
  Json.Obj
    ([ ("count", Json.Int s.Pct.count); ("p50", Json.Float s.Pct.p50) ]
    @ (match s.Pct.tail with
      | Some (p, v) -> [ ("tail_percentile", Json.Float p); ("tail", Json.Float v) ]
      | None -> [])
    @ [ ("iqr_share", Json.Float s.Pct.iqr_share) ])

let print_summary name xs =
  let s = Pct.summarize xs in
  Printf.printf "  %-22s p50 %.6f s%s  n=%d\n" name s.Pct.p50
    (match s.Pct.tail with
    | Some (p, v) -> Printf.sprintf ", p%g %.6f s" p v
    | None -> "")
    s.Pct.count

let rows_json rows =
  let total = List.fold_left (fun a r -> a +. r.Spans.self_us) 0.0 rows in
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("layer", Json.String r.Spans.layer);
             ("calls", Json.Int r.Spans.calls);
             ("busy_s", Json.Float (r.Spans.busy_us /. 1e6));
             ("self_s", Json.Float (r.Spans.self_us /. 1e6));
             ("self_share", Json.Float (per r.Spans.self_us ~by:total));
           ])
       rows)

let profile_json window ~replayed ~overhead ~chrome =
  Json.Obj
    [
      ("trace.overhead_ratio", Json.Float overhead);
      ("chrome_trace", Json.String chrome);
      ("layers", rows_json window);
      ("replayed_layers", rows_json replayed);
    ]

let print_rows rows =
  let total = List.fold_left (fun a r -> a +. r.Spans.self_us) 0.0 rows in
  Printf.printf "  %-12s %9s %12s %12s %7s\n" "layer" "calls" "busy_s" "self_s" "self%";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %9d %12.6f %12.6f %6.1f%%\n" r.Spans.layer r.Spans.calls
        (r.Spans.busy_us /. 1e6) (r.Spans.self_us /. 1e6)
        (100.0 *. per r.Spans.self_us ~by:total))
    rows

let print_profile window ~replayed ~overhead =
  print_rows window;
  if replayed <> [] then begin
    print_endline "  re-measured after the window (inside the cores above):";
    print_rows replayed
  end;
  Printf.printf "  trace.overhead_ratio %.4f\n" overhead

(* --- main -------------------------------------------------------------- *)

let run opts =
  let t = tally () in
  let refs = references opts in
  let seconds = opts.seconds in
  let results_dir = Filename.concat opts.out "results" in
  mkdir_p results_dir;
  let stem =
    Filename.concat results_dir
      (Printf.sprintf "%s-seed%d-trace%d" opts.workload opts.seed
         (if opts.trace then 1 else 0))
  in
  let host = Host.current () in
  Printf.printf "perfbench %s seed %d (%d runs x %d iterations of sb, %s)\n"
    opts.workload opts.seed (shape opts).runs (shape opts).iterations
    (if opts.trace then "traced" else "untraced");
  let units, values, detail =
    if not opts.trace then begin
      let m =
        match opts.workload with
        | "campaign-long" ->
          measure_in_process opts ~seconds t (campaign_long_once opts t refs)
        | "daemon-short" -> measure_service opts ~refs ~coordinator:false ~seconds t
        | "fleet-2w" -> measure_service opts ~refs ~coordinator:true ~seconds t
        | _ ->
          measure_in_process opts ~seconds t
            (verify_long_once opts t (verify_refs refs))
      in
      print_summary "campaign_s" (walls m);
      print_summary "first_record_s" (firsts m);
      print_summary "setup_s" m.setups;
      ( e2e_metrics,
        e2e_values m,
        [
          ( "timings",
            Json.Obj
              [
                ("campaign_s", summary_json (walls m));
                ("first_record_s", summary_json (firsts m));
                ("setup_s", summary_json m.setups);
              ] );
          ( "samples",
            Json.List
              (List.map
                 (fun s ->
                   Json.Obj
                     [
                       ("wall_s", Json.Float s.wall);
                       ("first_record_s", Json.Float s.first);
                       ("frames", Json.Int s.frames);
                       ("cpu_s", Json.Float s.cpu);
                     ])
                 m.samples) );
        ] )
    end
    else begin
      let tr =
        match opts.workload with
        | "campaign-long" -> trace_campaign_long opts ~refs t
        | "daemon-short" -> trace_daemon_short opts ~refs t
        | "fleet-2w" -> trace_fleet_2w opts ~refs t
        | _ -> trace_verify_long opts ~refs t
      in
      let width = if opts.workload = "verify-long" then 1 else jobs in
      let overhead = per tr.traced_wall ~by:tr.untraced_wall in
      let chrome = stem ^ ".trace.json" in
      Emit.write_file ~path:chrome (Spans.chrome_json (tr.window @ tr.replayed));
      let window = Spans.fold tr.window and replayed = Spans.fold tr.replayed in
      print_profile window ~replayed ~overhead;
      ( layer_metrics,
        layer_values ~width tr t,
        [ ("profile", profile_json window ~replayed ~overhead ~chrome) ] )
    end
  in
  if t.attempted = 0 then problem t "no run was attempted";
  let correct = t.problems = [] && t.failed = 0 in
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) (List.rev t.problems);
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-26s %16.6f %s\n" name
        (Option.value ~default:nan (List.assoc_opt name values))
        unit)
    units;
  let failed_ratio = per (float_of_int t.failed) ~by:(float_of_int t.attempted) in
  Printf.printf "  %-26s %16.6f ratio (%d of %d runs)\n" "failed_ratio" failed_ratio
    t.failed t.attempted;
  let metrics = metrics_json units values in
  Emit.write_file ~path:(stem ^ ".json")
    (Json.Obj
       ([
          ("workload", Json.String opts.workload);
          ("seed", Json.Int opts.seed);
          ("seconds", Json.Float opts.seconds);
          ("trace", Json.Bool opts.trace);
          ("host", Host.to_json host);
          ("runs", Json.Int (shape opts).runs);
          ("iterations", Json.Int (shape opts).iterations);
          ( "reference_digests",
            Json.List (Array.to_list (Array.map (fun r -> Json.String r.digest) refs)) );
          ("correct", Json.Bool correct);
          ("attempted", Json.Int t.attempted);
          ("failed", Json.Int t.failed);
          ("failed_ratio", Json.Float failed_ratio);
          ("problems", Json.List (List.rev_map (fun p -> Json.String p) t.problems));
          ("metrics", metrics);
        ]
       @ detail));
  print_endline
    (Emit.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 t.attempted));
            ("failed", Json.Int t.failed);
            ("metrics", metrics);
          ]));
  rm_rf (Filename.concat opts.out "tmp");
  if correct then 0 else 1

(* Compare two result files of the same workload; refuses results from
   different hosts. *)
let compare_results a b =
  let load p =
    match Json.parse_file p with
    | Error m -> failwith (p ^ ": " ^ m)
    | Ok j -> (
      match Json.member "host" j with
      | Some h -> (j, Result.get_ok (Result.map_error failwith (Host.of_json h)))
      | None -> failwith (p ^ ": no host fingerprint"))
  in
  let ja, ha = load a and jb, hb = load b in
  match Host.comparable ha hb with
  | Error m ->
    Printf.eprintf "perfbench compare: refused: %s\n" m;
    2
  | Ok () ->
    if Json.member "workload" ja <> Json.member "workload" jb then begin
      prerr_endline "perfbench compare: refused: different workloads";
      2
    end
    else begin
      let metrics j =
        match Json.member "metrics" j with Some (Json.Obj kvs) -> kvs | _ -> []
      in
      let value = function
        | Json.Obj _ as m -> (
          match Json.member "value" m with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> nan)
        | _ -> nan
      in
      Printf.printf "%-26s %16s %16s %8s   (%s -> %s)\n" "metric" "a" "b" "b/a" ha.Host.commit
        hb.Host.commit;
      List.iter
        (fun (name, ma) ->
          match List.assoc_opt name (metrics jb) with
          | Some mb ->
            let va = value ma and vb = value mb in
            Printf.printf "%-26s %16.6f %16.6f %8.4f\n" name va vb (per vb ~by:va)
          | None -> ())
        (metrics ja);
      0
    end

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 [--perple \
     PATH] [--out DIR] [--tiny]\n\
    \       bench.exe compare A.json B.json";
  exit 2

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: v :: rest -> go { o with trace = v = "1" } rest
    | "--perple" :: p :: rest -> go { o with perple = p } rest
    | "--out" :: d :: rest -> go { o with out = d } rest
    | "--tiny" :: rest -> go { o with tiny = true } rest
    | _ -> usage ()
  in
  let o =
    try
      go
        {
          workload = "";
          seed = 1;
          seconds = 10.0;
          trace = false;
          tiny = false;
          perple = "_build/default/bin/perple.exe";
          out = "perfbench/out";
        }
        argv
    with Failure _ -> usage ()
  in
  if not (List.mem o.workload workloads) then usage ();
  if o.seed < 0 || o.seconds < 0.0 then usage ();
  o

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (compare_results a b)
  | args ->
    let opts = parse args in
    if not (Sys.file_exists opts.perple) then begin
      Printf.eprintf "perfbench: %s not found; build the repository first\n" opts.perple;
      exit 2
    end;
    Proc.install_cleanup ();
    let code =
      try run opts
      with e ->
        Proc.stop_all ();
        Printf.eprintf "perfbench: %s failed: %s\n" opts.workload (Printexc.to_string e);
        1
    in
    Proc.stop_all ();
    exit code
