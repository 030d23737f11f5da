(* Unit and property tests for Perple_util: Rng, Stats, Table, Chart,
   Atomic_file. *)

module Rng = Perple_util.Rng
module Stats = Perple_util.Stats
module Table = Perple_util.Table
module Chart = Perple_util.Chart

let check = Alcotest.check

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  let b = Rng.copy a in
  let x = Rng.bits64 b in
  check Alcotest.int64 "copy continues the stream" x (Rng.bits64 a)

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Rng.bits64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_coverage () =
  let rng = Rng.create 3 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Rng.int rng 4) <- true
  done;
  check Alcotest.bool "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_chance_extremes () =
  let rng = Rng.create 13 in
  check Alcotest.bool "p=0 never" false (Rng.chance rng 0.0);
  check Alcotest.bool "p=1 always" true (Rng.chance rng 1.0)

let test_rng_chance_rate () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.chance rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_geometric_mean () =
  let rng = Rng.create 19 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng 0.1
  done;
  (* Mean of geometric(p) failures-before-success is (1-p)/p = 9. *)
  let mean = float_of_int !total /. float_of_int n in
  check Alcotest.bool "geometric mean near 9" true (mean > 8.0 && mean < 10.0)

let test_rng_geometric_p1 () =
  let rng = Rng.create 19 in
  check Alcotest.int "p=1 -> 0" 0 (Rng.geometric rng 1.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let rng = Rng.create 29 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    if not (Array.mem v a) then Alcotest.fail "pick outside array"
  done;
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* --- Stats --------------------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_mean () =
  check feq "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check feq "empty mean" 0.0 (Stats.mean [||])

let test_geomean () =
  check feq "geomean" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  check feq "empty geomean" 1.0 (Stats.geomean [||]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive entry") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stddev () =
  check (Alcotest.float 1e-6) "stddev" 2.0
    (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]);
  check feq "singleton" 0.0 (Stats.stddev [| 5.0 |])

let test_median_percentile () =
  check feq "median odd" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |]);
  check feq "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check feq "p0" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 0.0);
  check feq "p100" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 100.0);
  check feq "p50 interp" 2.0 (Stats.percentile [| 1.0; 2.0; 3.0 |] 50.0)

let test_min_max () =
  check feq "min" 1.0 (Stats.minimum [| 3.0; 1.0; 2.0 |]);
  check feq "max" 3.0 (Stats.maximum [| 3.0; 1.0; 2.0 |])

let test_min_max_degenerate () =
  (* Regression: the empty fold seeds leaked out as infinities, which the
     bench emitter then serialized as invalid JSON.  Empty input now takes
     the same total-function convention as mean/median... *)
  check feq "empty min is finite" 0.0 (Stats.minimum [||]);
  check feq "empty max is finite" 0.0 (Stats.maximum [||]);
  check (Alcotest.option feq) "empty min_opt" None (Stats.minimum_opt [||]);
  check (Alcotest.option feq) "empty max_opt" None (Stats.maximum_opt [||]);
  (* ...singletons are their own extrema... *)
  check feq "singleton min" 7.5 (Stats.minimum [| 7.5 |]);
  check feq "singleton max" 7.5 (Stats.maximum [| 7.5 |]);
  (* ...and NaN entries are ignored rather than poisoning the result. *)
  check (Alcotest.option feq) "nan skipped (min)" (Some 2.0)
    (Stats.minimum_opt [| Float.nan; 2.0; 3.0 |]);
  check (Alcotest.option feq) "nan skipped (max)" (Some 3.0)
    (Stats.maximum_opt [| 2.0; Float.nan; 3.0 |]);
  check (Alcotest.option feq) "all-nan is None" None
    (Stats.minimum_opt [| Float.nan; Float.nan |]);
  check feq "all-nan default" 0.0 (Stats.maximum [| Float.nan |])

let test_percentile_total_order () =
  (* percentile sorts with Float.compare: NaN entries sink to the bottom
     deterministically instead of leaving the sort order unspecified. *)
  let a = [| Float.nan; 3.0; 1.0 |] in
  check feq "p100 ignores nan's position" 3.0 (Stats.percentile a 100.0);
  check Alcotest.bool "p0 is the sunk nan" true
    (Float.is_nan (Stats.percentile a 0.0));
  check feq "median of singleton" 5.0 (Stats.median [| 5.0 |])

let test_histogram_basic () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 3;
  Stats.Histogram.add h (-2);
  Stats.Histogram.add_many h 3 2;
  check Alcotest.int "count 3" 3 (Stats.Histogram.count h 3);
  check Alcotest.int "count -2" 1 (Stats.Histogram.count h (-2));
  check Alcotest.int "count missing" 0 (Stats.Histogram.count h 0);
  check Alcotest.int "total" 4 (Stats.Histogram.total h);
  check
    Alcotest.(list (pair int int))
    "bindings sorted" [ (-2, 1); (3, 3) ]
    (Stats.Histogram.bindings h);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)) "range"
    (Some (-2, 3))
    (Stats.Histogram.range h)

let test_histogram_pdf () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add_many h 1 3;
  Stats.Histogram.add_many h 2 1;
  let pdf = Stats.Histogram.pdf h in
  check
    Alcotest.(list (pair int (float 1e-9)))
    "pdf" [ (1, 0.75); (2, 0.25) ] pdf;
  check feq "mean" 1.25 (Stats.Histogram.mean h)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  check Alcotest.int "total" 0 (Stats.Histogram.total h);
  check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 0.0))) "pdf" []
    (Stats.Histogram.pdf h);
  check feq "mean" 0.0 (Stats.Histogram.mean h);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "range" None
    (Stats.Histogram.range h)

let test_histogram_negative_count () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.add_many: negative count") (fun () ->
      Stats.Histogram.add_many h 0 (-1))

(* --- Json ---------------------------------------------------------------- *)

module Json = Perple_util.Json

let test_json_escape () =
  check Alcotest.string "plain passes through" "abc" (Json.escape "abc");
  check Alcotest.string "quote" "say \\\"hi\\\"" (Json.escape "say \"hi\"");
  check Alcotest.string "backslash" "a\\\\b" (Json.escape "a\\b");
  check Alcotest.string "newline+tab" "a\\nb\\tc" (Json.escape "a\nb\tc");
  check Alcotest.string "other control" "\\u0001" (Json.escape "\x01")

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("name", Json.String "sb \"quoted\" \\ \n\x02");
        ("n", Json.Int (-42));
        ("rate", Json.Float 1.5);
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse failed: %s" e
      | Ok parsed ->
        check Alcotest.string "serialize/parse/serialize is stable"
          (Json.to_string doc) (Json.to_string parsed))
    [ Json.to_string doc; Json.to_string ~indent:true doc ]

let test_json_nonfinite_floats () =
  (* Non-finite floats must never reach the file as bare [nan]/[inf]
     tokens — that is exactly the bug the Stats sweep closes upstream. *)
  check Alcotest.string "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf -> null" "null"
    (Json.to_string (Json.Float Float.infinity));
  check Alcotest.bool "integral floats stay integral" true
    (Json.to_string (Json.Float 3.0) = "3")

let test_json_parse_escapes () =
  match Json.parse {|{"s": "aA\n\\", "xs": [1, -2.5, true, null]}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
    (match Json.member "s" doc with
    | Some (Json.String s) -> check Alcotest.string "unescaped" "aA\n\\" s
    | _ -> Alcotest.fail "s missing");
    (match Json.member "xs" doc with
    | Some (Json.List [ Json.Int 1; Json.Float f; Json.Bool true; Json.Null ])
      ->
      check (Alcotest.float 1e-9) "float element" (-2.5) f
    | _ -> Alcotest.fail "xs shape")

let test_json_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* --- Table --------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "n" ] in
  Table.set_align t 1 Table.Right;
  Table.add_row t [ "sb"; "10" ];
  Table.add_row t [ "podwr001"; "7" ];
  let s = Table.to_string t in
  check Alcotest.string "render"
    "name     |  n\n---------+---\nsb       | 10\npodwr001 |  7\n" s

let test_table_separator () =
  let t = Table.create ~headers:[ "a" ] in
  Table.add_row t [ "x" ];
  Table.add_separator t;
  Table.add_row t [ "y" ];
  let lines = String.split_on_char '\n' (Table.to_string t) in
  check Alcotest.int "line count" 6 (List.length lines)

let test_table_errors () =
  Alcotest.check_raises "no headers"
    (Invalid_argument "Table.create: no headers") (fun () ->
      ignore (Table.create ~headers:[]));
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ]);
  Alcotest.check_raises "bad column"
    (Invalid_argument "Table.set_align: bad column") (fun () ->
      Table.set_align t 5 Table.Left)

let test_ratio_cell () =
  check Alcotest.string "integral" "9x" (Table.ratio_cell 9.0);
  check Alcotest.string "small" "2.52x" (Table.ratio_cell 2.52);
  check Alcotest.string "tens" "17.6x" (Table.ratio_cell 17.56);
  check Alcotest.string "large" "3.1e+04x" (Table.ratio_cell 31000.0);
  check Alcotest.string "nan" "n/a" (Table.ratio_cell Float.nan)

(* --- Chart --------------------------------------------------------------- *)

let test_hbar () =
  let s = Chart.hbar ~width:10 [ ("a", 10.0); ("b", 5.0); ("c", 0.0) ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "three bars" 4 (List.length lines);
  check Alcotest.bool "a longest" true
    (String.length (List.nth lines 0) > String.length (List.nth lines 1))

let test_hbar_log () =
  let s = Chart.hbar ~width:20 ~log_scale:true [ ("a", 1000.0); ("b", 10.0) ] in
  check Alcotest.bool "log bars non-empty" true (String.length s > 0)

let test_hbar_negative () =
  Alcotest.check_raises "negative value"
    (Invalid_argument "Chart: negative value") (fun () ->
      ignore (Chart.hbar [ ("a", -1.0) ]))

let test_grouped_hbar () =
  let s =
    Chart.grouped_hbar ~group_labels:[ "g1"; "g2" ]
      ~series:[ ("s1", [| 1.0; 2.0 |]); ("s2", [| 3.0; 4.0 |]) ]
      ()
  in
  check Alcotest.bool "contains groups" true
    (String.length s > 0
    && String.sub s 0 2 = "g1");
  Alcotest.check_raises "arity"
    (Invalid_argument "Chart.grouped_hbar: series \"s1\" has 1 values for 2 groups")
    (fun () ->
      ignore
        (Chart.grouped_hbar ~group_labels:[ "g1"; "g2" ]
           ~series:[ ("s1", [| 1.0 |]) ]
           ()))

let test_density () =
  let s = Chart.density ~width:20 ~height:4 [ (0, 0.5); (10, 0.3); (-10, 0.2) ] in
  let lines = String.split_on_char '\n' s in
  (* height rows + axis + labels + trailing newline *)
  check Alcotest.int "rows" 7 (List.length lines);
  check Alcotest.string "empty" "(empty distribution)\n" (Chart.density [])

(* --- Atomic_file ------------------------------------------------------------ *)

(* A rename that fails (here: the destination is a directory) must not
   leave the PATH.tmp.PID file behind in the destination's directory. *)
let test_atomic_rename_failure_cleans_up () =
  let dir = Filename.temp_dir "perple-atomic" "" in
  let target = Filename.concat dir "target" in
  Sys.mkdir target 0o755;
  (match Perple_util.Atomic_file.write ~path:target "data" with
  | () -> Alcotest.fail "write over a directory succeeded"
  | exception (Unix.Unix_error _ | Sys_error _) -> ());
  let left = Array.to_list (Sys.readdir dir) in
  Sys.rmdir target;
  List.iter
    (fun f -> if f <> "target" then Sys.remove (Filename.concat dir f))
    left;
  Sys.rmdir dir;
  check Alcotest.(list string) "only the directory remains" [ "target" ] left

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_rng_copy_independent;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_rng_chance_rate;
        Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_p1;
        Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "pick" `Quick test_rng_pick;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "median/percentile" `Quick test_median_percentile;
        Alcotest.test_case "min/max" `Quick test_min_max;
        Alcotest.test_case "min/max degenerate" `Quick test_min_max_degenerate;
        Alcotest.test_case "percentile total order" `Quick
          test_percentile_total_order;
        Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
        Alcotest.test_case "histogram pdf" `Quick test_histogram_pdf;
        Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
        Alcotest.test_case "histogram negative" `Quick
          test_histogram_negative_count;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "escape" `Quick test_json_escape;
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite floats" `Quick
          test_json_nonfinite_floats;
        Alcotest.test_case "parse escapes" `Quick test_json_parse_escapes;
        Alcotest.test_case "parse rejects garbage" `Quick
          test_json_parse_rejects_garbage;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "separator" `Quick test_table_separator;
        Alcotest.test_case "errors" `Quick test_table_errors;
        Alcotest.test_case "ratio cells" `Quick test_ratio_cell;
      ] );
    ( "util.chart",
      [
        Alcotest.test_case "hbar" `Quick test_hbar;
        Alcotest.test_case "hbar log" `Quick test_hbar_log;
        Alcotest.test_case "hbar negative" `Quick test_hbar_negative;
        Alcotest.test_case "grouped hbar" `Quick test_grouped_hbar;
        Alcotest.test_case "density" `Quick test_density;
      ] );
    ( "util.atomic_file",
      [
        Alcotest.test_case "rename failure leaves no temp" `Quick
          test_atomic_rename_failure_cleans_up;
      ] );
  ]
