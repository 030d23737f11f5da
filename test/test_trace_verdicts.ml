(* Verdict pins and a brute-force differential check for whole-trace
   verification.

   - Golden verdicts: every catalog test under every clean configuration,
     plus both planted simulator bugs, run at N=150 with fixed seeds; each
     row pins the full {!Trace_check.verify} verdict, search counters
     included, so a change inside the solver that alters any field
     shows here.
   - Differential property: {!Solver.classify_trace} against a reference
     written here from the axioms alone — every total coherence order per
     location, then acyclicity of uniproc and of the model relation by
     naive transitive closure. *)

module Ast = Perple_litmus.Ast
module Catalog = Perple_litmus.Catalog
module Config = Perple_sim.Config
module Operational = Perple_memmodel.Operational
module Solver = Perple_memmodel.Solver
module Convert = Perple_core.Convert
module Trace_check = Perple_core.Trace_check
module Perpetual = Perple_harness.Perpetual
module Rng = Perple_util.Rng

(* --- Golden verdicts ----------------------------------------------------- *)

(* (test, simulator model, seed, consistent, events, decisions, backtracks,
   violation) *)
let golden =
  [
    ("amd3", "sc", 41, true, 900, 0, 0, None);
    ("amd3", "tso", 41, true, 900, 0, 0, None);
    ("amd3", "pso", 41, true, 900, 0, 0, None);
    ("iwp23b", "sc", 41, true, 900, 0, 0, None);
    ("iwp23b", "tso", 41, true, 900, 0, 0, None);
    ("iwp23b", "pso", 41, true, 900, 0, 0, None);
    ("iwp24", "sc", 41, true, 900, 0, 0, None);
    ("iwp24", "tso", 41, true, 900, 0, 0, None);
    ("iwp24", "pso", 41, true, 900, 0, 0, None);
    ("n1", "sc", 41, true, 900, 0, 0, None);
    ("n1", "tso", 41, true, 900, 0, 0, None);
    ("n1", "pso", 41, true, 900, 0, 0, None);
    ("podwr000", "sc", 41, true, 600, 0, 0, None);
    ("podwr000", "tso", 41, true, 600, 0, 0, None);
    ("podwr000", "pso", 41, true, 600, 0, 0, None);
    ("podwr001", "sc", 41, true, 900, 0, 0, None);
    ("podwr001", "tso", 41, true, 900, 0, 0, None);
    ("podwr001", "pso", 41, true, 900, 0, 0, None);
    ("rfi009", "sc", 41, true, 750, 0, 0, None);
    ("rfi009", "tso", 41, true, 750, 0, 0, None);
    ("rfi009", "pso", 41, true, 750, 0, 0, None);
    ("rfi013", "sc", 41, true, 750, 42, 0, None);
    ("rfi013", "tso", 41, true, 750, 148, 0, None);
    ("rfi013", "pso", 41, true, 750, 147, 0, None);
    ("rfi015", "sc", 41, true, 1200, 0, 0, None);
    ("rfi015", "tso", 41, true, 1200, 0, 0, None);
    ("rfi015", "pso", 41, true, 1200, 0, 0, None);
    ("rfi017", "sc", 41, true, 900, 0, 0, None);
    ("rfi017", "tso", 41, true, 900, 0, 0, None);
    ("rfi017", "pso", 41, true, 900, 0, 0, None);
    ("rwc-unfenced", "sc", 41, true, 750, 0, 0, None);
    ("rwc-unfenced", "tso", 41, true, 750, 0, 0, None);
    ("rwc-unfenced", "pso", 41, true, 750, 0, 0, None);
    ("sb", "sc", 41, true, 600, 0, 0, None);
    ("sb", "tso", 41, true, 600, 0, 0, None);
    ("sb", "pso", 41, true, 600, 0, 0, None);
    ("amd10", "sc", 41, true, 1050, 0, 0, None);
    ("amd10", "tso", 41, true, 1050, 0, 0, None);
    ("amd10", "pso", 41, true, 1050, 0, 0, None);
    ("amd5", "sc", 41, true, 900, 0, 0, None);
    ("amd5", "tso", 41, true, 900, 0, 0, None);
    ("amd5", "pso", 41, true, 900, 0, 0, None);
    ("amd5+staleld", "sc", 41, true, 1050, 0, 0, None);
    ("amd5+staleld", "tso", 41, true, 1050, 0, 0, None);
    ("amd5+staleld", "pso", 41, true, 1050, 0, 0, None);
    ("co-iriw", "sc", 41, true, 900, 136, 0, None);
    ("co-iriw", "tso", 41, true, 900, 112, 0, None);
    ("co-iriw", "pso", 41, true, 900, 112, 0, None);
    ("iriw", "sc", 41, true, 900, 0, 0, None);
    ("iriw", "tso", 41, true, 900, 0, 0, None);
    ("iriw", "pso", 41, true, 900, 0, 0, None);
    ("lb", "sc", 41, true, 600, 0, 0, None);
    ("lb", "tso", 41, true, 600, 0, 0, None);
    ("lb", "pso", 41, true, 600, 0, 0, None);
    ("mp", "sc", 41, true, 600, 0, 0, None);
    ("mp", "tso", 41, true, 600, 0, 0, None);
    ("mp", "pso", 41, true, 600, 0, 0, None);
    ("mp+staleld", "sc", 41, true, 600, 0, 0, None);
    ("mp+staleld", "tso", 41, true, 600, 0, 0, None);
    ("mp+staleld", "pso", 41, true, 600, 0, 0, None);
    ("mp+fences", "sc", 41, true, 900, 0, 0, None);
    ("mp+fences", "tso", 41, true, 900, 0, 0, None);
    ("mp+fences", "pso", 41, true, 900, 0, 0, None);
    ("n4", "sc", 41, true, 600, 77, 0, None);
    ("n4", "tso", 41, true, 600, 148, 0, None);
    ("n4", "pso", 41, true, 600, 148, 0, None);
    ("n5", "sc", 41, true, 600, 77, 0, None);
    ("n5", "tso", 41, true, 600, 132, 0, None);
    ("n5", "pso", 41, true, 600, 132, 0, None);
    ("rwc-fenced", "sc", 41, true, 900, 0, 0, None);
    ("rwc-fenced", "tso", 41, true, 900, 0, 0, None);
    ("rwc-fenced", "pso", 41, true, 900, 0, 0, None);
    ("safe006", "sc", 41, true, 750, 0, 0, None);
    ("safe006", "tso", 41, true, 750, 0, 0, None);
    ("safe006", "pso", 41, true, 750, 0, 0, None);
    ("safe007", "sc", 41, true, 900, 0, 0, None);
    ("safe007", "tso", 41, true, 900, 0, 0, None);
    ("safe007", "pso", 41, true, 900, 0, 0, None);
    ("safe012", "sc", 41, true, 1050, 0, 0, None);
    ("safe012", "tso", 41, true, 1050, 0, 0, None);
    ("safe012", "pso", 41, true, 1050, 0, 0, None);
    ("safe018", "sc", 41, true, 900, 0, 0, None);
    ("safe018", "tso", 41, true, 900, 0, 0, None);
    ("safe018", "pso", 41, true, 900, 0, 0, None);
    ("safe022", "sc", 41, true, 750, 0, 0, None);
    ("safe022", "tso", 41, true, 750, 0, 0, None);
    ("safe022", "pso", 41, true, 750, 0, 0, None);
    ("safe024", "sc", 41, true, 1200, 0, 0, None);
    ("safe024", "tso", 41, true, 1200, 0, 0, None);
    ("safe024", "pso", 41, true, 1200, 0, 0, None);
    ("safe027", "sc", 41, true, 1200, 0, 0, None);
    ("safe027", "tso", 41, true, 1200, 0, 0, None);
    ("safe027", "pso", 41, true, 1200, 0, 0, None);
    ("safe028", "sc", 41, true, 1050, 0, 0, None);
    ("safe028", "tso", 41, true, 1050, 0, 0, None);
    ("safe028", "pso", 41, true, 1050, 0, 0, None);
    ("safe036", "sc", 41, true, 900, 0, 0, None);
    ("safe036", "tso", 41, true, 900, 0, 0, None);
    ("safe036", "pso", 41, true, 900, 0, 0, None);
    ("wrc", "sc", 41, true, 750, 0, 0, None);
    ("wrc", "tso", 41, true, 750, 0, 0, None);
    ("wrc", "pso", 41, true, 750, 0, 0, None);
    ("mp", "tso+store-reorder-bug", 1, false, 600, 0, 0,
      Some "cycle in uniproc graph");
    ("amd5", "tso+fence-ignored-bug", 1, false, 900, 0, 0,
      Some "cycle in TSO graph");
    ("mp", "tso+store-reorder-bug", 2, false, 600, 0, 0,
      Some "cycle in uniproc graph");
    ("amd5", "tso+fence-ignored-bug", 2, false, 900, 0, 0,
      Some "cycle in TSO graph");
    ("mp", "tso+store-reorder-bug", 3, false, 600, 0, 0,
      Some "cycle in uniproc graph");
    ("amd5", "tso+fence-ignored-bug", 3, false, 900, 0, 0,
      Some "cycle in TSO graph");
    ("mp", "tso+store-reorder-bug", 4, false, 600, 0, 0,
      Some "cycle in uniproc graph");
    ("amd5", "tso+fence-ignored-bug", 4, true, 900, 0, 0, None);
    ("mp", "tso+store-reorder-bug", 5, false, 600, 0, 0,
      Some "cycle in uniproc graph");
    ("amd5", "tso+fence-ignored-bug", 5, false, 900, 0, 0,
      Some "cycle in TSO graph");
    ("mp", "tso+store-reorder-bug", 6, false, 600, 0, 0,
      Some "cycle in uniproc graph");
    ("amd5", "tso+fence-ignored-bug", 6, false, 900, 0, 0,
      Some "cycle in TSO graph");
  ]

let verdict_row name sim seed =
  let test = Catalog.find_exn name in
  let conv = Result.get_ok (Convert.convert test) in
  let sim = Option.get (Config.model_of_name sim) in
  let run =
    Perpetual.run
      ~config:(Config.with_model sim Config.default)
      ~rng:(Rng.create seed) ~image:conv.Convert.image
      ~t_reads:conv.Convert.t_reads ~iterations:150 ()
  in
  let v = Trace_check.verify ~model:(Trace_check.spec_model sim) conv run in
  ( v.Solver.consistent,
    v.Solver.events,
    v.Solver.decisions,
    v.Solver.backtracks,
    v.Solver.violation )

let test_golden_verdicts () =
  let covered =
    List.sort_uniq compare
      (List.map (fun (name, _, _, _, _, _, _, _) -> name) golden)
  in
  List.iter
    (fun (e : Catalog.entry) ->
      if not (List.mem e.Catalog.test.Ast.name covered) then
        Alcotest.failf "catalog test %s has no golden verdict"
          e.Catalog.test.Ast.name)
    Catalog.suite;
  List.iter
    (fun (name, sim, seed, consistent, events, decisions, backtracks, viol) ->
      Alcotest.check
        Alcotest.(
          pair bool (pair int (pair int (pair int (option string)))))
        (Printf.sprintf "%s under %s, seed %d" name sim seed)
        (consistent, (events, (decisions, (backtracks, viol))))
        (let c, e, d, b, v = verdict_row name sim seed in
         (c, (e, (d, (b, v))))))
    golden

(* --- Brute-force reference ------------------------------------------------ *)

type rev = {
  th : int;
  wr : string option;  (* location written *)
  rd : (string * int) option;  (* location read, source id or -1 *)
}

let flatten threads =
  Array.to_list threads
  |> List.mapi (fun t evs ->
         Array.to_list evs
         |> List.map (function
              | Solver.T_write x -> { th = t; wr = Some x; rd = None }
              | Solver.T_read (x, src) ->
                let src = Option.value ~default:(-1) src in
                { th = t; wr = None; rd = Some (x, src) }
              | Solver.T_fence -> { th = t; wr = None; rd = None }))
  |> List.concat |> Array.of_list

let loc_of e =
  match (e.wr, e.rd) with
  | Some x, _ | None, Some (x, _) -> Some x
  | None, None -> None

let is_fence e = loc_of e = None

(* Naive transitive closure (Warshall), then irreflexivity. *)
let acyclic n rel =
  let m = Array.init n (fun a -> Array.init n (fun b -> rel a b)) in
  for k = 0 to n - 1 do
    for a = 0 to n - 1 do
      if m.(a).(k) then
        for b = 0 to n - 1 do
          if m.(k).(b) then m.(a).(b) <- true
        done
    done
  done;
  let ok = ref true in
  for a = 0 to n - 1 do
    if m.(a).(a) then ok := false
  done;
  !ok

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

let reference_consistent model threads =
  let ev = flatten threads in
  let n = Array.length ev in
  let po a b = ev.(a).th = ev.(b).th && a < b in
  let locs =
    List.sort_uniq compare (List.filter_map loc_of (Array.to_list ev))
  in
  let writes x =
    List.filter (fun i -> ev.(i).wr = Some x) (List.init n Fun.id)
  in
  let src r = match ev.(r).rd with Some (_, w) -> w | None -> -2 in
  let fenced a b =
    po a b
    && List.exists
         (fun f -> is_fence ev.(f) && po a f && po f b)
         (List.init n Fun.id)
  in
  let ppo a b =
    let mem i = not (is_fence ev.(i)) in
    po a b && mem a && mem b
    &&
    match model with
    | Operational.Sc -> true
    | Operational.Tso -> not (ev.(a).wr <> None && ev.(b).rd <> None)
    | Operational.Pso ->
      not
        (ev.(a).wr <> None
        && (ev.(b).rd <> None || ev.(b).wr <> ev.(a).wr))
  in
  (* [rank.(w)]: position of write [w] in its location's coherence order *)
  let check rank =
    let co a b =
      ev.(a).wr <> None && ev.(a).wr = ev.(b).wr && rank.(a) < rank.(b)
    in
    let rf a b = src b = a && a >= 0 in
    let fr a b =
      ev.(a).rd <> None && ev.(b).wr <> None
      && loc_of ev.(a) = loc_of ev.(b)
      && (src a = -1 || (src a >= 0 && rank.(src a) < rank.(b)))
    in
    let com a b = co a b || fr a b in
    let po_loc a b =
      po a b && loc_of ev.(a) <> None && loc_of ev.(a) = loc_of ev.(b)
    in
    acyclic n (fun a b -> po_loc a b || rf a b || com a b)
    && acyclic n (fun a b ->
           com a b
           || (rf a b
              && (model = Operational.Sc || ev.(a).th <> ev.(b).th))
           || (match model with
              | Operational.Sc -> po a b
              | Operational.Tso | Operational.Pso -> ppo a b || fenced a b))
  in
  let rank = Array.make n 0 in
  let rec orders = function
    | [] -> check rank
    | x :: rest ->
      List.exists
        (fun order ->
          List.iteri (fun i w -> rank.(w) <- i) order;
          orders rest)
        (permutations (writes x))
  in
  orders locs

(* Random traces: up to 10 events over 2-3 threads and 1-2 locations,
   with fences; at most 6 writes keep the coherence product small.  Every
   read sources a random write of its location (own-thread ones
   included) or the initial value. *)
let gen_trace =
  QCheck.Gen.(
    let* nthreads = int_range 2 3 in
    let* nlocs = int_range 1 2 in
    let* n = int_range 1 10 in
    let* picks =
      list_repeat n
        (quad (int_bound (nthreads - 1)) (int_bound 9) (int_bound (nlocs - 1))
           (int_bound 100))
    in
    let loc l = String.make 1 "xy".[l] in
    let nwrites = ref 0 in
    let shapes =
      List.map
        (fun (t, k, l, choice) ->
          let k =
            if k < 4 && !nwrites < 6 then begin
              incr nwrites;
              `W
            end
            else if k < 5 then `F
            else `R
          in
          (t, k, loc l, choice))
        picks
    in
    let per_thread t = List.filter (fun (t', _, _, _) -> t' = t) shapes in
    let layout = List.concat_map per_thread (List.init nthreads Fun.id) in
    let write_ids x =
      List.concat
        (List.mapi
           (fun id (_, k, y, _) -> if k = `W && y = x then [ id ] else [])
           layout)
    in
    return
      (Array.init nthreads (fun t ->
           per_thread t
           |> List.map (fun (_, k, x, choice) ->
                  match k with
                  | `W -> Solver.T_write x
                  | `F -> Solver.T_fence
                  | `R ->
                    let cands = write_ids x in
                    let c = choice mod (List.length cands + 1) in
                    Solver.T_read
                      ( x,
                        if c = 0 then None else Some (List.nth cands (c - 1)) ))
           |> Array.of_list)))

let print_trace threads =
  Array.to_list threads
  |> List.mapi (fun t evs ->
         Printf.sprintf "T%d: %s" t
           (String.concat "; "
              (Array.to_list evs
              |> List.map (function
                   | Solver.T_write x -> "W " ^ x
                   | Solver.T_read (x, None) -> "R " ^ x ^ "<-init"
                   | Solver.T_read (x, Some w) -> Printf.sprintf "R %s<-%d" x w
                   | Solver.T_fence -> "F"))))
  |> String.concat " | "

let differential_property =
  QCheck.Test.make ~name:"classify_trace = brute-force axioms (random traces)"
    ~count:600
    (QCheck.make ~print:print_trace gen_trace)
    (fun threads ->
      List.for_all
        (fun model ->
          (Solver.classify_trace model threads).Solver.consistent
          = reference_consistent model threads)
        [ Operational.Sc; Operational.Tso; Operational.Pso ])

(* Random traces this small rarely force the search to backtrack, so
   these two do it for certain: each exhausts its interleavings after
   undoing every branch it tried, so the search counters are pinned
   too. *)
let test_search_traces () =
  let w = Solver.T_write "x" and r src = Solver.T_read ("x", Some src) in
  List.iter
    (fun (threads, decisions, backtracks) ->
      List.iter
        (fun model ->
          let v = Solver.classify_trace model threads in
          let name =
            Operational.model_to_string model ^ " " ^ print_trace threads
          in
          Alcotest.(check bool)
            (name ^ ": reference")
            (reference_consistent model threads)
            v.Solver.consistent;
          Alcotest.(check (pair int int))
            (name ^ ": search") (decisions, backtracks)
            (v.Solver.decisions, v.Solver.backtracks))
        [ Operational.Sc; Operational.Tso; Operational.Pso ])
    [
      ([| [| w; w |]; [| w; r 1; w; r 1 |] |], 1, 2);
      ( [| [| w; r 9; w |]; [| w; Solver.T_fence; r 2; r 9 |]; [| w; w; w |] |],
        11,
        20 );
    ]

let suite =
  [
    ( "trace.verdicts",
      [
        Alcotest.test_case "golden verdicts (suite x models, planted bugs)"
          `Quick test_golden_verdicts;
        Alcotest.test_case "backtracking traces match the reference" `Quick
          test_search_traces;
        QCheck_alcotest.to_alcotest differential_property;
      ] );
  ]
