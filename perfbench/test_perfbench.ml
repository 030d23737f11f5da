(* The benchmark's own tests: the percentile rule and the self-time fold
   on hand-built spans, and a tiny-size smoke run of every workload.

   Run by dune with the paths of bench.exe and perple.exe. *)

open Perfbench
module Json = Perple_util.Json

let bench = ref "./bench.exe"
let perple = ref "../bin/perple.exe"
let approx = Alcotest.float 1e-9

(* --- percentile rule --------------------------------------------------- *)

let test_tail_rule () =
  let check n expected =
    Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected (Pct.tail_tenths n)
  in
  check 5 None;
  check 19 None;
  check 20 (Some 500);
  check 39 (Some 500);
  check 40 (Some 750);
  check 100 (Some 900);
  check 199 (Some 900);
  check 200 (Some 950);
  check 1000 (Some 990);
  check 10_000 (Some 999)

let test_summary () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Pct.summarize xs in
  Alcotest.(check int) "count" 100 s.Pct.count;
  Alcotest.check approx "median" 50.5 s.Pct.p50;
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "p90 keeps ten samples beyond it" (Some (90.0, 90.0)) s.Pct.tail;
  (* statistics.quantiles(range(1, 101), n=4) = [25.25, 50.5, 75.75] *)
  Alcotest.check approx "iqr share" ((75.75 -. 25.25) /. 50.5) s.Pct.iqr_share;
  let small = Pct.summarize [ 3.0; 1.0; 2.0 ] in
  Alcotest.check approx "odd median" 2.0 small.Pct.p50;
  Alcotest.(check bool) "no tail below 40 samples" true (small.Pct.tail = None)

(* --- self-time fold ---------------------------------------------------- *)

let span ?campaign ~id ~name ~layer ~tid a b =
  Spans.make ?campaign ~id ~name ~layer ~tid ~start_us:a ~stop_us:b ()

let row rows layer =
  match List.find_opt (fun r -> r.Spans.layer = layer) rows with
  | Some r -> r
  | None -> Alcotest.failf "no %s row" layer

let test_fold () =
  (* bench [0,100] > engine [10,90] > sim [20,50] and count [50,70];
     a nested engine span [60,65] inside count; a pool task on another
     domain [30,80] with no ancestor. *)
  let spans =
    [
      span ~campaign:"c1" ~id:0 ~name:"campaign" ~layer:"bench" ~tid:0 0. 100.;
      span ~id:1 ~name:"engine.campaign" ~layer:"engine" ~tid:0 10. 90.;
      span ~id:2 ~name:"machine.run" ~layer:"sim" ~tid:0 20. 50.;
      span ~id:3 ~name:"count.heuristic" ~layer:"count" ~tid:0 50. 70.;
      span ~id:4 ~name:"engine.run" ~layer:"engine" ~tid:0 60. 65.;
      span ~id:5 ~name:"pool.task" ~layer:"pool" ~tid:1 30. 80.;
    ]
  in
  let rows = Spans.fold spans in
  let r = row rows "bench" in
  Alcotest.check approx "bench self" 20. r.Spans.self_us;
  let r = row rows "engine" in
  Alcotest.(check int) "engine calls" 2 r.Spans.calls;
  (* 80 - (30 + 20) for the outer, 5 for the inner. *)
  Alcotest.check approx "engine self" 35. r.Spans.self_us;
  Alcotest.check approx "engine busy counts the outer span only" 80. r.Spans.busy_us;
  let r = row rows "count" in
  Alcotest.check approx "count self" 15. r.Spans.self_us;
  Alcotest.check approx "count busy" 20. r.Spans.busy_us;
  Alcotest.check approx "sim self" 30. (row rows "sim").Spans.self_us;
  Alcotest.check approx "pool self" 50. (row rows "pool").Spans.self_us;
  let total = List.fold_left (fun a r -> a +. r.Spans.self_us) 0. rows in
  Alcotest.check approx "self times partition each domain's span time" 150. total;
  Alcotest.(check int) "parent by containment" 1 (List.nth spans 3).Spans.parent;
  Alcotest.(check int) "nested same-layer parent" 3 (List.nth spans 4).Spans.parent;
  Alcotest.(check string) "campaign inherited" "c1" (List.nth spans 4).Spans.campaign;
  Alcotest.(check string) "campaign from a covering root on another domain" "c1"
    (List.nth spans 5).Spans.campaign;
  let by = Spans.self_by_campaign spans in
  Alcotest.check approx "per-campaign self time" 150. (Hashtbl.find by "c1")

(* --- smoke runs -------------------------------------------------------- *)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let run_bench args =
  let out = Filename.temp_file "perfbench" ".out" in
  let cmd =
    Filename.quote_command !bench ~stdout:out
      (args @ [ "--perple"; !perple; "--out"; "smoke-out"; "--tiny"; "--seconds"; "0" ])
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let expected_units trace =
  if trace then
    [ ("machine.busy_s", "s"); ("count.hit_ratio", "ratio"); ("journal.appends", "count");
      ("server.wait_s", "s"); ("coordinator.lease_p50_ms", "ms");
      ("solver.ns_per_event", "ns"); ("trace.overhead_ratio", "ratio") ]
  else
    [ ("frames_per_s", "1/s"); ("frames_per_cpu_s", "1/s"); ("campaign_p50_s", "s");
      ("setup_s", "s"); ("peak_rss_mb", "MiB") ]

let smoke workload trace () =
  let code, text =
    run_bench
      [ "--workload"; workload; "--seed"; "7"; "--trace"; (if trace then "1" else "0") ]
  in
  if code <> 0 then Alcotest.failf "exit %d:\n%s" code text;
  match Json.parse (last_line text) with
  | Error m -> Alcotest.failf "last line is not JSON (%s):\n%s" m text
  | Ok j ->
    Alcotest.(check (option bool)) "correct" (Some true)
      (match Json.member "correct" j with Some (Json.Bool b) -> Some b | _ -> None);
    Alcotest.(check (option int)) "failed" (Some 0)
      (match Json.member "failed" j with Some (Json.Int n) -> Some n | _ -> None);
    let metrics = Option.value ~default:Json.Null (Json.member "metrics" j) in
    List.iter
      (fun (name, unit) ->
        match Json.member name metrics with
        | None -> Alcotest.failf "%s missing" name
        | Some m ->
          Alcotest.(check (option string)) (name ^ " unit") (Some unit)
            (match Json.member "unit" m with Some (Json.String u) -> Some u | _ -> None);
          (match Json.member "value" m with
          | Some (Json.Float v) when Float.is_finite v -> ()
          | Some (Json.Int _) -> ()
          | _ -> Alcotest.failf "%s has no finite value" name))
      (expected_units trace);
    if not trace then
      List.iter
        (fun name ->
          match Json.member name metrics with
          | Some m -> (
            (* Integral values are printed, and parse back, as ints. *)
            match Json.member "value" m with
            | Some (Json.Float v) when v > 0.0 -> ()
            | Some (Json.Int v) when v > 0 -> ()
            | v ->
              Alcotest.failf "%s is not positive: %s" name
                (Option.fold ~none:"missing" ~some:Json.to_string v))
          | None -> ())
        [ "frames_per_s"; "campaign_p50_s"; "setup_s"; "peak_rss_mb" ]

let test_refuses_other_hosts () =
  let write path nproc =
    let host =
      { (Host.current ()) with Host.nproc }
    in
    Json.write_file ~path
      (Json.Obj [ ("workload", Json.String "w"); ("host", Host.to_json host);
                  ("metrics", Json.Obj []) ])
  in
  write "host-a.json" 2;
  write "host-b.json" 64;
  let code = Sys.command (Filename.quote_command !bench [ "compare"; "host-a.json"; "host-b.json" ]) in
  Alcotest.(check int) "different hosts are refused" 2 code;
  let code = Sys.command (Filename.quote_command !bench [ "compare"; "host-a.json"; "host-a.json" ]) in
  Alcotest.(check int) "same host compares" 0 code

let () =
  (match Array.to_list Sys.argv with
  | _ :: b :: p :: _ ->
    bench := b;
    perple := p
  | _ -> ());
  let smoke_cases =
    List.concat_map
      (fun w ->
        [
          Alcotest.test_case (w ^ " untraced") `Quick (smoke w false);
          Alcotest.test_case (w ^ " traced") `Quick (smoke w true);
        ])
      [ "campaign-long"; "daemon-short"; "fleet-2w"; "verify-long" ]
  in
  Alcotest.run ~argv:[| "perfbench" |] "perfbench"
    [
      ( "pct",
        [ Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "summary" `Quick test_summary ] );
      ("spans", [ Alcotest.test_case "self-time fold" `Quick test_fold ]);
      ("host", [ Alcotest.test_case "compare refuses other hosts" `Quick test_refuses_other_hosts ]);
      ("smoke", smoke_cases);
    ]
