module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module E = Event_graph

(* A constraint formulation of the axiomatic model (see docs/internals.md,
   "Solver backend").  Executions are not enumerated: the reads-from choice
   for each load is a variable, the coherence order of each location is a
   variable, and validity is acyclicity of two graphs — uniproc
   [po-loc ∪ rf ∪ ws ∪ fr] and the per-model graph — maintained
   incrementally while propagation orients coherence pairs forced by
   reachability (the Chakraborty-style polynomial fast path) and search
   branches only on genuinely free choices. *)

(* ---------- flat problem events ---------- *)

(* The solver core works on flat arrays so litmus tests and whole
   perpetual-run traces share one engine.  Program order is the index
   order of same-thread events; locations are interned to dense ints in
   first-appearance order, once per problem. *)
type kind = Write | Read | Fence | Flush

type events = {
  n : int;
  thread : int array;
  kind : kind array;
  loc : int array;  (* interned location, -1 for fences *)
  loc_names : string array;
}

(* Problems touch a handful of locations, so interning is a linear scan;
   [String.equal] short-circuits on the physically shared names a trace
   repeats. *)
type interner = { mutable names : string array }

let intern it x =
  let rec find i =
    if i = Array.length it.names then begin
      it.names <- Array.append it.names [| x |];
      i
    end
    else if String.equal it.names.(i) x then i
    else find (i + 1)
  in
  find 0

let bad_source () =
  invalid_arg "Solver: rf source is not a same-location write"

type verdict = {
  consistent : bool;
  events : int;
  violation : string option;  (* which acyclicity axiom broke *)
  decisions : int;            (* free coherence choices explored *)
  backtracks : int;           (* abandoned branches *)
}

(* ---------- graphs on flat arrays ---------- *)

(* CSR construction in two passes over one generator: the first counts
   the entries of each key, the second fills them in.  The values of key
   [u] end up at [out.(off.(u)) .. out.(off.(u + 1) - 1)]. *)
let csr n gen =
  let off = Array.make (n + 1) 0 in
  gen (fun k _ -> off.(k + 1) <- off.(k + 1) + 1);
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let out = Array.make off.(n) 0 and cursor = Array.sub off 0 n in
  gen (fun k v ->
      out.(cursor.(k)) <- v;
      cursor.(k) <- cursor.(k) + 1);
  (off, out)

(* A graph's static edges (program-order chains, rf, fr) in CSR form.
   Once a coherence choice is open, a vector clock per node holds, for
   each live merge chain (see [merge]), the highest position on that
   chain that reaches the node — the only reachability [find_step]
   asks about. *)
type graph = {
  gname : string;
  off : int array;
  tgt : int array;
  mutable vc : int array;
      (* [v * ncols + col]: highest position of merge chain [col]
         reaching [v] (reflexively); allocated by the first clocked
         sweep *)
}

(* ---------- solver state ---------- *)

(* Coherence for one multi-writer location: per-writer-thread chains of
   write ids (po-forced by uniproc) merged into one total order.  Chain
   [ci] is vector-clock column [col0 + ci]. *)
type merge = {
  mloc : string;
  chains : int array array;
  col0 : int;
  idx : int array;        (* next unmerged position per chain *)
  mutable last : int;     (* most recently merged write, -1 at start *)
  mutable remaining : int;
}

(* Growable int stack. *)
type stack = { mutable a : int array; mutable len : int }

let spush s x =
  if s.len = Array.length s.a then begin
    let a = Array.make (max 16 (2 * s.len)) 0 in
    Array.blit s.a 0 a 0 s.len;
    s.a <- a
  end;
  s.a.(s.len) <- x;
  s.len <- s.len + 1

type state = {
  n : int;
  uni : graph;
  mg : graph;
  merges : merge array;
  ncols : int;
  roff : int array;  (* readers, CSR: write id -> reads sourced from it *)
  rds : int array;
  (* Coherence edges added by [append], shared by both graphs: a stack of
     (src, dst) threaded into per-source lists through [dnext]/[dhead],
     so undo truncates it. *)
  dsrc : stack;
  ddst : stack;
  dnext : stack;
  dhead : int array;
  indeg : int array;  (* scratch for the topological sweep *)
  queue : int array;
  mutable trail : (unit -> unit) list;  (* merge-cursor restores *)
  mutable decisions : int;
  mutable backtracks : int;
}

let push st f = st.trail <- f :: st.trail

let add_edge2 st u v =
  spush st.dsrc u;
  spush st.ddst v;
  spush st.dnext st.dhead.(u);
  st.dhead.(u) <- st.dsrc.len - 1

let undo_to st (edges, trail) =
  while st.dsrc.len > edges do
    let e = st.dsrc.len - 1 in
    st.dhead.(st.dsrc.a.(e)) <- st.dnext.a.(e);
    st.dsrc.len <- e;
    st.ddst.len <- e;
    st.dnext.len <- e
  done;
  let rec go l =
    if l != trail then
      match l with
      | f :: rest ->
        f ();
        go rest
      | [] -> assert false
  in
  go st.trail;
  st.trail <- trail

(* Kahn's topological sweep over static and coherence edges; false on a
   cycle.  With [clocks] the same sweep fills [g.vc]: every merge-chain
   write starts from its own position, and every node, once dequeued
   (all predecessors done), pushes its clock to its successors. *)
let sweep st g ~clocks =
  let n = st.n and nc = st.ncols and indeg = st.indeg and queue = st.queue in
  Array.fill indeg 0 n 0;
  Array.iter (fun v -> indeg.(v) <- indeg.(v) + 1) g.tgt;
  for e = 0 to st.ddst.len - 1 do
    let v = st.ddst.a.(e) in
    indeg.(v) <- indeg.(v) + 1
  done;
  if clocks then begin
    if Array.length g.vc = 0 then g.vc <- Array.make (n * nc) (-1)
    else Array.fill g.vc 0 (n * nc) (-1);
    Array.iter
      (fun m ->
        Array.iteri
          (fun ci chain ->
            Array.iteri (fun p w -> g.vc.((w * nc) + m.col0 + ci) <- p) chain)
          m.chains)
      st.merges
  end;
  let count = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      queue.(!count) <- u;
      incr count
    end
  done;
  let visit u v =
    if clocks then begin
      let vc = g.vc and bu = u * nc and bv = v * nc in
      for c = 0 to nc - 1 do
        if vc.(bu + c) > vc.(bv + c) then vc.(bv + c) <- vc.(bu + c)
      done
    end;
    let d = indeg.(v) - 1 in
    indeg.(v) <- d;
    if d = 0 then begin
      queue.(!count) <- v;
      incr count
    end
  in
  let head = ref 0 in
  while !head < !count do
    let u = queue.(!head) in
    incr head;
    for j = g.off.(u) to g.off.(u + 1) - 1 do
      visit u g.tgt.(j)
    done;
    let e = ref st.dhead.(u) in
    while !e >= 0 do
      visit u st.ddst.a.(!e);
      e := st.dnext.a.(!e)
    done
  done;
  !count = n

let acyclic st ~clocks =
  let cycle g = Error (Printf.sprintf "cycle in %s graph" g.gname) in
  if not (sweep st st.uni ~clocks) then cycle st.uni
  else if not (sweep st st.mg ~clocks) then cycle st.mg
  else Ok ()

(* Does the head of merge chain [col] (at position [pos]) reach node [b],
   [b] being another node?  Valid only between a clocked sweep and the
   next edge addition. *)
let reaches st g ~col ~pos b = g.vc.((b * st.ncols) + col) >= pos

(* Append the head of chain [ci] as the next write in [m]'s coherence
   order.  Materializes exactly the forced consequences: ws from the
   previous merged write, fr from its readers, and ws to the heads of the
   other chains (everything still unmerged follows [h]). *)
let append st m ci =
  let h = m.chains.(ci).(m.idx.(ci)) in
  let prev = m.last in
  let old_idx = m.idx.(ci) in
  m.idx.(ci) <- old_idx + 1;
  m.remaining <- m.remaining - 1;
  m.last <- h;
  push st (fun () ->
      m.idx.(ci) <- old_idx;
      m.remaining <- m.remaining + 1;
      m.last <- prev);
  if prev >= 0 then begin
    add_edge2 st prev h;
    for j = st.roff.(prev) to st.roff.(prev + 1) - 1 do
      add_edge2 st st.rds.(j) h
    done
  end;
  Array.iteri
    (fun cj chain ->
      if cj <> ci && m.idx.(cj) < Array.length chain then
        add_edge2 st h chain.(m.idx.(cj)))
    m.chains

let nonempty_chains m =
  let acc = ref [] in
  Array.iteri
    (fun ci chain -> if m.idx.(ci) < Array.length chain then acc := ci :: !acc)
    m.chains;
  List.rev !acc

(* A merge down to one live chain is pure materialization: the rest of the
   order is po-forced, so no reachability data is needed. *)
let drain_single_chains st =
  Array.iter
    (fun m ->
      if m.remaining > 0 then
        match nonempty_chains m with
        | [ ci ] ->
          while m.remaining > 0 do
            append st m ci
          done
        | _ -> ())
    st.merges

type step =
  | Forced of merge * int
  | Choice of merge * int list
  | Done

exception Conflict_at of string

(* Find the next coherence step.  A head [h] cannot be the next write if
   another head reaches it (that head would then be coherence-after its
   own successor), or if another head reaches one of [h]'s readers (the
   reader's fr edge back to that head would close a cycle).  A single
   admissible head is a unit propagation; several are a decision point. *)
let find_step st =
  let forced = ref None in
  let choice = ref None in
  Array.iter
    (fun m ->
      if m.remaining > 0 then begin
        let heads = nonempty_chains m in
        let blocked ci =
          let h = m.chains.(ci).(m.idx.(ci)) in
          List.exists
            (fun cj ->
              let col = m.col0 + cj and pos = m.idx.(cj) in
              let reached v =
                reaches st st.uni ~col ~pos v || reaches st st.mg ~col ~pos v
              in
              let rec any_reader j =
                j < st.roff.(h + 1)
                && (reached st.rds.(j) || any_reader (j + 1))
              in
              cj <> ci && (reached h || any_reader st.roff.(h)))
            heads
        in
        match List.filter (fun ci -> not (blocked ci)) heads with
        | [] -> raise (Conflict_at m.mloc)
        | [ ci ] -> if Option.is_none !forced then forced := Some (m, ci)
        | cis -> if Option.is_none !choice then choice := Some (m, cis)
      end)
    st.merges;
  match (!forced, !choice) with
  | Some (m, ci), _ -> Forced (m, ci)
  | None, Some (m, cis) -> Choice (m, cis)
  | None, None -> Done

(* DPLL over the coherence orders: propagate (drain + forced appends,
   re-checking acyclicity after each) and branch only on free
   interleaving points, undoing via the edge stack and the trail.  With
   no merge left open, the check is two plain topological sweeps. *)
let rec solve st =
  drain_single_chains st;
  (* after draining, every unfinished merge has two or more live chains *)
  let open_choice = Array.exists (fun m -> m.remaining > 0) st.merges in
  match acyclic st ~clocks:open_choice with
  | Error reason -> Error reason
  | Ok () when not open_choice -> Ok ()
  | Ok () -> (
    match find_step st with
    | Done -> Ok ()
    | Forced (m, ci) ->
      append st m ci;
      solve st
    | Choice (m, cis) ->
      st.decisions <- st.decisions + List.length cis - 1;
      let rec try_heads = function
        | [] ->
          Error
            (Printf.sprintf "exhausted coherence interleavings for [%s]"
               m.mloc)
        | ci :: rest -> (
          let saved = (st.dsrc.len, st.trail) in
          append st m ci;
          match solve st with
          | Ok () -> Ok ()
          | Error _ ->
            st.backtracks <- st.backtracks + 1;
            undo_to st saved;
            try_heads rest)
      in
      try_heads cis
    | exception Conflict_at loc ->
      Error
        (Printf.sprintf "no admissible coherence successor for [%s]" loc))

(* ---------- static construction ---------- *)

(* [rf.(r)] is read [r]'s source write, or -1 for the initial value. *)
let build ~(model : Operational.model) (ev : events) ~(rf : int array)
    ~(extra : (int * int) list) =
  let n = ev.n and thread = ev.thread and kind = ev.kind and loc = ev.loc in
  let nt = Array.fold_left (fun m t -> max m (t + 1)) 0 thread in
  let nl = Array.length ev.loc_names in
  let tl id = (thread.(id) * nl) + loc.(id) in
  for r = 0 to n - 1 do
    if kind.(r) = Read then begin
      let w = rf.(r) in
      if w >= 0 && (w >= n || kind.(w) <> Write || loc.(w) <> loc.(r)) then
        bad_source ()
    end
  done;
  (* Per-(thread, location) write chains, linked through [next_write]:
     the po-forced spine of every coherence order. *)
  let first_write = Array.make (nt * nl) (-1) in
  let next_write = Array.make n (-1) in
  let last = Array.make (nt * nl) (-1) in
  for id = 0 to n - 1 do
    if kind.(id) = Write then begin
      let k = tl id in
      if last.(k) < 0 then first_write.(k) <- id
      else next_write.(last.(k)) <- id;
      last.(k) <- id
    end
  done;
  (* A fresh set of [slots] program-order chains: [link k id] makes [id]
     the next element of chain [k]. *)
  let chains slots edge =
    let tail = Array.make slots (-1) in
    fun k id ->
      if tail.(k) >= 0 then edge tail.(k) id;
      tail.(k) <- id
  in
  (* rf, initial-read fr, and po-forced fr edges; [rf_edge] filters the
     rf edges the graph keeps. *)
  let data_edges edge ~rf_edge =
    for r = 0 to n - 1 do
      if kind.(r) = Read then begin
        let w = rf.(r) in
        if w >= 0 then begin
          if rf_edge w r then edge w r;
          (* fr to the source's po-successor write: coherence-after the
             source in every completion *)
          if next_write.(w) >= 0 then edge r next_write.(w)
        end
        else
          (* reading the initial value: fr to the first write of every
             thread's chain (the chains carry it to the rest) *)
          for t = 0 to nt - 1 do
            let w0 = first_write.((t * nl) + loc.(r)) in
            if w0 >= 0 then edge r w0
          done
      end
    done;
    List.iter (fun (u, v) -> edge u v) extra
  in
  (* uniproc: po-loc as per-(thread, location) chains over every located
     event (writes, reads, flushes). *)
  let uni_edges edge =
    let link = chains (nt * nl) edge in
    for id = 0 to n - 1 do
      if kind.(id) <> Fence then link (tl id) id
    done;
    data_edges edge ~rf_edge:(fun _ _ -> true)
  in
  (* Model graph: reduced per-thread chains whose closure over memory
     events equals ppo ∪ fenced (flushes are not memory events under
     TSO/PSO and are excluded there). *)
  let mg_edges edge =
    match model with
    | Operational.Sc ->
      let link = chains nt edge in
      for id = 0 to n - 1 do
        link thread.(id) id
      done;
      data_edges edge ~rf_edge:(fun _ _ -> true)
    | Operational.Tso | Operational.Pso ->
      (* Per thread: a chain of reads and fences, and write chains that
         carry the fences too — one under TSO (all stores drain in
         order), one per written location under PSO (FIFO per location
         only).  Write chain [k] of thread [t] is slot [t * nk + k]. *)
      let nk = if model = Operational.Tso then 1 else nl in
      let key id = if model = Operational.Tso then 0 else loc.(id) in
      let keeps t k =
        model = Operational.Tso || first_write.((t * nl) + k) >= 0
      in
      let link_r = chains nt edge and link_w = chains (nt * nk) edge in
      for id = 0 to n - 1 do
        let t = thread.(id) in
        match kind.(id) with
        | Read -> link_r t id
        | Write -> link_w ((t * nk) + key id) id
        | Fence ->
          link_r t id;
          for k = 0 to nk - 1 do
            if keeps t k then link_w ((t * nk) + k) id
          done
        | Flush -> ()
      done;
      (* Reads stay ordered before later writes (only W->R and, under
         PSO, W->W to a different location are relaxed): an edge from
         each read to every write chain's next element. *)
      let next = Array.make (nt * nk) (-1) in
      for id = n - 1 downto 0 do
        let t = thread.(id) in
        match kind.(id) with
        | Read ->
          for k = 0 to nk - 1 do
            if next.((t * nk) + k) >= 0 then edge id next.((t * nk) + k)
          done
        | Write -> next.((t * nk) + key id) <- id
        | Fence ->
          for k = 0 to nk - 1 do
            if keeps t k then next.((t * nk) + k) <- id
          done
        | Flush -> ()
      done;
      data_edges edge ~rf_edge:(fun w r -> thread.(w) <> thread.(r))
  in
  let graph gname gen =
    let off, tgt = csr n gen in
    { gname; off; tgt; vc = [||] }
  in
  let roff, rds =
    csr n (fun emit ->
        for r = 0 to n - 1 do
          if kind.(r) = Read && rf.(r) >= 0 then emit rf.(r) r
        done)
  in
  (* Coherence merges for locations written by more than one thread, in
     first-appearance order, with chains in thread order. *)
  let write_chain k =
    let rec collect w acc =
      if w < 0 then Array.of_list (List.rev acc)
      else collect next_write.(w) (w :: acc)
    in
    collect first_write.(k) []
  in
  let ncols = ref 0 in
  let merges =
    List.init nl (fun x ->
        match
          List.filter
            (fun k -> first_write.(k) >= 0)
            (List.init nt (fun t -> (t * nl) + x))
        with
        | [] | [ _ ] -> None
        | ks ->
          let chains = Array.of_list (List.map write_chain ks) in
          let col0 = !ncols in
          ncols := col0 + Array.length chains;
          Some
            {
              mloc = ev.loc_names.(x);
              chains;
              col0;
              idx = Array.make (Array.length chains) 0;
              last = -1;
              remaining =
                Array.fold_left (fun a c -> a + Array.length c) 0 chains;
            })
    |> List.filter_map Fun.id |> Array.of_list
  in
  {
    n;
    uni = graph "uniproc" uni_edges;
    mg = graph (Operational.model_to_string model) mg_edges;
    merges;
    ncols = !ncols;
    roff;
    rds;
    dsrc = { a = [||]; len = 0 };
    ddst = { a = [||]; len = 0 };
    dnext = { a = [||]; len = 0 };
    dhead = Array.make n (-1);
    indeg = Array.make n 0;
    queue = Array.make n 0;
    trail = [];
    decisions = 0;
    backtracks = 0;
  }

let solve_exec ~model ev ~rf ~extra =
  let st = build ~model ev ~rf ~extra in
  let result = solve st in
  {
    consistent = Result.is_ok result;
    events = st.n;
    violation = (match result with Ok () -> None | Error reason -> Some reason);
    decisions = st.decisions;
    backtracks = st.backtracks;
  }

(* ---------- whole-trace verification ---------- *)

type trace_event =
  | T_write of string
  | T_read of string * int option
  | T_fence

let classify_trace model threads =
  let n = Array.fold_left (fun a t -> a + Array.length t) 0 threads in
  let thread = Array.make n 0 and kind = Array.make n Fence in
  let loc = Array.make n (-1) and rf = Array.make n (-1) in
  let it = { names = [||] } in
  let id = ref 0 in
  Array.iteri
    (fun t evs ->
      Array.iter
        (fun ev ->
          let i = !id in
          thread.(i) <- t;
          (match ev with
          | T_write x ->
            kind.(i) <- Write;
            loc.(i) <- intern it x
          | T_read (x, src) ->
            kind.(i) <- Read;
            loc.(i) <- intern it x;
            rf.(i) <-
              (match src with
              | None -> -1
              | Some w -> if w < 0 then bad_source () else w)
          | T_fence -> ());
          incr id)
        evs)
    threads;
  solve_exec ~model { n; thread; kind; loc; loc_names = it.names } ~rf
    ~extra:[]

(* ---------- litmus-test interface ---------- *)

(* rf variables: for every read, the candidate sources (writes to its
   location, or the initial value).  Enumerated depth-first with the
   cheap po-local coherence prunes; each full assignment is decided by
   the coherence solver above. *)

type problem = {
  test : Ast.t;
  pevents : events;
  evs : E.event list;  (* Event_graph view, same ids *)
  preads : E.event list;
  wvalue : int array;  (* write id -> stored value *)
}

let problem_of_test test =
  let evs = E.events_of_test test in
  let n = List.length evs in
  let thread = Array.make n 0 and kind = Array.make n Fence in
  let names = Array.make n None in
  let wvalue = Array.make n 0 in
  List.iter
    (fun (e : E.event) ->
      thread.(e.id) <- e.thread;
      names.(e.id) <- E.location e.kind;
      kind.(e.id) <-
        (match e.kind with
        | E.Write (_, a) ->
          wvalue.(e.id) <- a;
          Write
        | E.Read _ -> Read
        | E.Fence -> Fence
        | E.Flush _ -> Flush))
    evs;
  let it = { names = [||] } in
  let loc = Array.make n (-1) in
  Array.iteri
    (fun id x -> Option.iter (fun x -> loc.(id) <- intern it x) x)
    names;
  let pevents = { n; thread; kind; loc; loc_names = it.names } in
  { test; pevents; evs; preads = E.reads evs; wvalue }

(* Sound po-local prunes (each rejected choice is a uniproc cycle): a
   read cannot source a po-later own write, cannot skip over an own
   intervening write, and cannot read the initial value past an own
   write. *)
let locally_coherent p (r : E.event) src =
  let x = Option.get (E.location r.kind) in
  let own_writes =
    List.filter
      (fun (w : E.event) ->
        w.thread = r.thread && w.po < r.po && E.is_write w
        && E.location w.kind = Some x)
      p.evs
  in
  match src with
  | None ->
    (* reading the initial value past an own write is a uniproc cycle *)
    own_writes = []
  | Some (w : E.event) ->
    if w.thread <> r.thread then
      (* cross-thread sources are only constrained through ws *)
      true
    else
      (* own sources must be the po-latest own write (store forwarding) *)
      w.po < r.po
      && not (List.exists (fun (w' : E.event) -> w'.po > w.po) own_writes)

let domain p (r : E.event) =
  let x = Option.get (E.location r.kind) in
  let writes = E.writes_to p.evs x in
  List.filter
    (fun src -> locally_coherent p r src)
    (List.map (fun w -> Some w) writes @ [ None ])

(* Enumerate rf assignments; call [yield] on every solver-consistent one
   with the outcome it denotes. *)
let enumerate ?(domains = []) ~model p ~extra yield =
  let reads = p.preads in
  let rf = Array.make p.pevents.n None in
  let dom (r : E.event) =
    match List.assq_opt r domains with Some d -> d | None -> domain p r
  in
  let rec go = function
    | [] ->
      let v =
        solve_exec ~model p.pevents
          ~rf:
            (Array.map
               (function Some (w : E.event) -> w.id | None -> -1)
               rf)
          ~extra
      in
      if v.consistent then begin
        let bindings =
          List.map
            (fun (r : E.event) ->
              let reg =
                match r.kind with E.Read (reg, _) -> reg | _ -> assert false
              in
              let value =
                match rf.(r.id) with
                | Some (w : E.event) -> p.wvalue.(w.id)
                | None ->
                  Ast.initial_value p.test (Option.get (E.location r.kind))
              in
              { Outcome.thread = r.thread; reg; value })
            reads
        in
        yield
          (List.sort
             (fun (a : Outcome.binding) (b : Outcome.binding) ->
               compare (a.thread, a.reg) (b.thread, b.reg))
             bindings)
          rf
      end
    | r :: rest ->
      List.iter
        (fun src ->
          rf.(r.E.id) <- src;
          go rest;
          rf.(r.E.id) <- None)
        (dom r)
  in
  go reads

let reachable_outcomes model test =
  let p = problem_of_test test in
  let acc = ref [] in
  enumerate ~model p ~extra:[] (fun outcome _ -> acc := outcome :: !acc);
  List.sort_uniq Outcome.compare !acc

exception Sat

let restrict_domains p partial =
  List.filter_map
    (fun (r : E.event) ->
      match r.kind with
      | E.Read (reg, x) -> (
        match
          List.find_opt
            (fun (b : Outcome.binding) ->
              b.thread = r.thread && b.reg = reg)
            partial
        with
        | None -> None
        | Some b ->
          let keep src =
            (match src with
            | Some (w : E.event) -> p.wvalue.(w.id) = b.value
            | None -> Ast.initial_value p.test x = b.value)
            && locally_coherent p r src
          in
          let writes = E.writes_to p.evs x in
          Some
            (r, List.filter keep (List.map (fun w -> Some w) writes @ [ None ])))
      | _ -> None)
    p.preads

let condition_reachable model test ~partial =
  let p = problem_of_test test in
  let domains = restrict_domains p partial in
  try
    enumerate ~domains ~model p ~extra:[] (fun _ _ -> raise Sat);
    false
  with Sat -> true

let condition_always model test ~partial =
  List.for_all
    (fun o -> Outcome.matches ~partial o)
    (reachable_outcomes model test)

(* The test's own condition including final-memory atoms: a [Loc_eq]
   pins the coherence-maximal write of the location, expressed as extra
   ws edges from every other write to the chosen target. *)
let final_condition_reachable model test =
  let p = problem_of_test test in
  let atoms = test.Ast.condition.Ast.atoms in
  let partial =
    List.filter_map
      (function
        | Ast.Reg_eq (thread, reg, value) ->
          Some { Outcome.thread; reg; value }
        | Ast.Loc_eq _ -> None)
      atoms
  in
  let domains = restrict_domains p partial in
  let loc_targets =
    List.filter_map
      (function
        | Ast.Reg_eq _ -> None
        | Ast.Loc_eq (x, v) -> (
          match E.writes_to p.evs x with
          | [] -> Some (if Ast.initial_value test x = v then [ [] ] else [])
          | writes ->
            let targets =
              List.filter (fun (w : E.event) -> p.wvalue.(w.id) = v) writes
            in
            Some
              (List.map
                 (fun (w : E.event) ->
                   List.filter_map
                     (fun (w' : E.event) ->
                       if w'.id = w.id then None else Some (w'.id, w.id))
                     writes)
                 targets)))
      atoms
  in
  let rec combos = function
    | [] -> [ [] ]
    | options :: rest ->
      List.concat_map
        (fun extra -> List.map (fun tail -> extra @ tail) (combos rest))
        options
  in
  List.exists
    (fun extra ->
      try
        enumerate ~domains ~model p ~extra (fun _ _ -> raise Sat);
        false
      with Sat -> true)
    (combos loc_targets)

let condition_verdict model test =
  match test.Ast.condition.Ast.quantifier with
  | Ast.Exists | Ast.Not_exists -> Ok (final_condition_reachable model test)
  | Ast.Forall -> (
    match Outcome.of_condition { test with Ast.condition = { test.Ast.condition with Ast.quantifier = Ast.Exists } } with
    | Error _ as e -> e
    | Ok partial -> Ok (condition_always model test ~partial))

let target_allowed model test =
  match Outcome.of_condition test with
  | Error _ as e -> e
  | Ok partial -> Ok (condition_reachable model test ~partial)

let classify model test outcome =
  condition_reachable model test ~partial:outcome
