module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Program = Perple_sim.Program

type file = { filename : string; content : string }

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | '+' | '-' | '.' | ' ' -> '_'
      | _ -> '_')
    name

(* --- Per-thread assembly ------------------------------------------------ *)

(* Scratch registers for loaded values, then written to buf at iteration
   end; %rcx holds the iteration index, %rax is the sequence scratch. *)
let scratch_regs = [| "%r8"; "%r9"; "%r10"; "%r11"; "%r12"; "%r13" |]

let thread_asm (conv : Convert.t) ~thread =
  let test = conv.Convert.test in
  let name = sanitize test.Ast.name in
  let program = conv.Convert.image.Program.programs.(thread) in
  let reads = conv.Convert.t_reads.(thread) in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# PerpLE perpetual test %s, thread %d" test.Ast.name thread;
  line "# N-iteration loop; no per-iteration synchronisation.";
  line "# ABI: %%rdi = buf (or unused), %%rsi = iteration count N.";
  Array.iter
    (fun loc -> line ".comm %s,8,8" loc)
    conv.Convert.image.Program.location_names;
  line ".text";
  line ".globl perple_%s_thread_%d" name thread;
  line "perple_%s_thread_%d:" name thread;
  line "    xorq %%rcx, %%rcx              # n = 0";
  line ".Lt%d_loop:" thread;
  Array.iter
    (fun instr ->
      match instr with
      | Program.Store { loc; value; addr = _ } ->
        let loc_name = conv.Convert.image.Program.location_names.(loc) in
        (match value with
        | Program.Seq { k; a } ->
          if k = 1 then
            line "    leaq %d(%%rcx), %%rax          # %d*n + %d" a k a
          else begin
            line "    imulq $%d, %%rcx, %%rax        # %d*n" k k;
            line "    addq $%d, %%rax                # + %d" a a
          end
        | Program.Const a -> line "    movq $%d, %%rax" a);
        line "    movq %%rax, %s(%%rip)          # [%s] <- seq" loc_name
          loc_name
      | Program.Load { loc; reg; addr = _ } ->
        let loc_name = conv.Convert.image.Program.location_names.(loc) in
        line "    movq %s(%%rip), %s         # r%d <- [%s]" loc_name
          scratch_regs.(reg) reg loc_name
      | Program.Fence -> line "    mfence"
      | Program.Flush { loc; addr = _ } ->
        let loc_name = conv.Convert.image.Program.location_names.(loc) in
        line "    clflush %s(%%rip)" loc_name
      | Program.Drain -> line "    sfence")
    program.Program.body;
  if reads > 0 then begin
    line "    # buf[%d*n + i] <- r_i" reads;
    if reads = 1 then
      line "    movq %s, (%%rdi,%%rcx,8)" scratch_regs.(0)
    else begin
      line "    imulq $%d, %%rcx, %%rax" reads;
      for i = 0 to reads - 1 do
        line "    movq %s, %d(%%rdi,%%rax,8)" scratch_regs.(i) (8 * i)
      done
    end
  end;
  line "    incq %%rcx";
  line "    cmpq %%rsi, %%rcx";
  line "    jb .Lt%d_loop" thread;
  line "    ret";
  (* no executable stack: without the note, ld assumes one is needed *)
  line ".section .note.GNU-stack,\"\",@progbits";
  {
    filename = Printf.sprintf "%s_thread_%d.s" name thread;
    content = Buffer.contents buf;
  }

(* --- C counters --------------------------------------------------------- *)

let buf_args (conv : Convert.t) =
  String.concat ", "
    (List.filter_map
       (fun t ->
         if conv.Convert.t_reads.(t) > 0 then
           Some (Printf.sprintf "const long *buf%d" t)
         else None)
       (List.init (Array.length conv.Convert.t_reads) Fun.id))

(* Frame-variable names follow the paper's figures: n, m, p, q. *)
let frame_var = function
  | 0 -> "n"
  | 1 -> "m"
  | 2 -> "p"
  | 3 -> "q"
  | i -> Printf.sprintf "n%d" i

(* C text of the buf access for a load in a frame context. *)
let c_buf (load : Outcome_convert.load_ref) var =
  if load.Outcome_convert.reads = 1 then
    Printf.sprintf "buf%d[%s]" load.Outcome_convert.thread var
  else
    Printf.sprintf "buf%d[%d*%s + %d]" load.Outcome_convert.thread
      load.Outcome_convert.reads var load.Outcome_convert.slot

let c_seq (s : Convert.store) bound =
  if s.Convert.k = 1 then Printf.sprintf "%s + %d" bound s.Convert.canonical
  else Printf.sprintf "%d*%s + %d" s.Convert.k bound s.Convert.canonical

(* Emit the body of p_out_o as C statements; returns unit, appends to buf.
   The frame variables are in scope under their usual names. *)
let emit_p_out_body ?(declare_v = true) buffer (conv : Convert.t)
    (o : Outcome_convert.t) =
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt
  in
  let nthreads = Array.length conv.Convert.t_reads in
  if o.Outcome_convert.unsatisfiable then
    line "  return 0; /* unsatisfiable: reads older than own store */"
  else begin
  for t = 0 to nthreads - 1 do
    if conv.Convert.frame_index.(t) < 0 then line "  long pin%d = -1;" t
  done;
  if declare_v then line "  long v;";
  Array.iter
    (fun (c : Outcome_convert.rf_cond) ->
      let load = c.Outcome_convert.rf_load in
      let s = c.Outcome_convert.rf_store in
      line "  v = %s;" (c_buf load (frame_var load.Outcome_convert.frame));
      line "  if (v <= 0 || (v - 1) %% %d + 1 != %d) return 0;" s.Convert.k
        s.Convert.canonical;
      if c.Outcome_convert.store_frame >= 0 then
        (if c.Outcome_convert.exact then
           line "  if ((v - %d) / %d != %s) return 0;" s.Convert.canonical
             s.Convert.k
             (frame_var c.Outcome_convert.store_frame)
         else
           line "  if ((v - %d) / %d < %s) return 0;" s.Convert.canonical
             s.Convert.k
             (frame_var c.Outcome_convert.store_frame))
      else begin
        let t = s.Convert.thread in
        line "  if (pin%d < 0) pin%d = (v - %d) / %d;" t t s.Convert.canonical
          s.Convert.k;
        line "  else if (pin%d != (v - %d) / %d) return 0;" t
          s.Convert.canonical s.Convert.k
      end)
    o.Outcome_convert.rf;
  Array.iter
    (fun (c : Outcome_convert.fr_cond) ->
      let load = c.Outcome_convert.fr_load in
      line "  v = %s;" (c_buf load (frame_var load.Outcome_convert.frame));
      List.iter
        (fun (b : Outcome_convert.fr_bound) ->
          let s = b.Outcome_convert.fb_store in
          if b.Outcome_convert.fb_frame >= 0 then
            line "  if (!(v < %s)) return 0;"
              (c_seq s (frame_var b.Outcome_convert.fb_frame))
          else begin
            let t = s.Convert.thread in
            line "  if (pin%d < 0) { if (v != 0) return 0; }" t;
            line "  else if (!(v < %s)) return 0;" (c_seq s (Printf.sprintf "pin%d" t))
          end)
        c.Outcome_convert.bounds)
    o.Outcome_convert.fr;
  line "  return 1;"
  end

let convert_all conv outcomes =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | o :: rest -> (
      match Outcome_convert.convert conv o with
      | Ok c -> go (c :: acc) rest
      | Error e -> Error e)
  in
  go [] outcomes

let counter_header (conv : Convert.t) =
  let test = conv.Convert.test in
  Printf.sprintf
    "/* Generated by the PerpLE Converter for test %s.\n\
    \ * Outcome counters over per-thread buf arrays; see PerpLE (MICRO\n\
    \ * 2020), Sec IV.  Values are arithmetic-sequence members: a store of\n\
    \ * constant a to a location with k distinct stored constants writes\n\
    \ * k*n + a at iteration n. */\n\n"
    test.Ast.name

let frame_vars_of (conv : Convert.t) =
  List.init (Array.length conv.Convert.load_threads) frame_var

let exhaustive_counter_c (conv : Convert.t) ~outcomes =
  match convert_all conv outcomes with
  | Error e -> Error e
  | Ok converted ->
    let name = sanitize conv.Convert.test.Ast.name in
    let buf = Buffer.create 2048 in
    let line fmt =
      Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
    in
    Buffer.add_string buf (counter_header conv);
    let vars = frame_vars_of conv in
    let var_params = String.concat ", " (List.map (fun v -> "long " ^ v) vars) in
    List.iteri
      (fun i o ->
        line "static inline int p_out_%d(%s, %s) {" i var_params
          (buf_args conv);
        emit_p_out_body buf conv o;
        line "}";
        line "")
      converted;
    line "void count_%s(long N, %s, long *counts) {" name (buf_args conv);
    List.iter (fun v -> line "  for (long %s = 0; %s < N; %s++)" v v v) vars;
    line "  {";
    List.iteri
      (fun i _ ->
        let call =
          Printf.sprintf "p_out_%d(%s, %s)" i (String.concat ", " vars)
            (String.concat ", "
               (List.filter_map
                  (fun t ->
                    if conv.Convert.t_reads.(t) > 0 then
                      Some (Printf.sprintf "buf%d" t)
                    else None)
                  (List.init (Array.length conv.Convert.t_reads) Fun.id)))
        in
        if i = 0 then line "    if (%s) counts[%d]++;" call i
        else line "    else if (%s) counts[%d]++;" call i)
      converted;
    line "  }";
    line "}";
    Ok { filename = name ^ "_count.c"; content = Buffer.contents buf }

let heuristic_counter_c (conv : Convert.t) ~outcomes =
  match convert_all conv outcomes with
  | Error e -> Error e
  | Ok converted ->
    let name = sanitize conv.Convert.test.Ast.name in
    let buf = Buffer.create 2048 in
    let line fmt =
      Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
    in
    Buffer.add_string buf (counter_header conv);
    let bufs =
      String.concat ", "
        (List.filter_map
           (fun t ->
             if conv.Convert.t_reads.(t) > 0 then
               Some (Printf.sprintf "buf%d" t)
             else None)
           (List.init (Array.length conv.Convert.t_reads) Fun.id))
    in
    List.iteri
      (fun i o ->
        let plan = Outcome_convert.heuristic_plan conv o in
        line "static inline int p_out_h%d(long N, long idx, %s) {"
          i (buf_args conv);
        line "  long v;";
        (* Derive every frame variable, in plan order. *)
        List.iter
          (fun (target, d) ->
            let var = frame_var target in
            match (d : Outcome_convert.derivation) with
            | Outcome_convert.Base -> line "  long %s = idx;" var
            | Outcome_convert.Diagonal -> line "  long %s = idx; /* diagonal */" var
            | Outcome_convert.From_rf j ->
              let c = o.Outcome_convert.rf.(j) in
              let s = c.Outcome_convert.rf_store in
              line "  v = %s;"
                (c_buf c.Outcome_convert.rf_load
                   (frame_var c.Outcome_convert.rf_load.Outcome_convert.frame));
              line "  if (v <= 0 || (v - 1) %% %d + 1 != %d) return 0;"
                s.Convert.k s.Convert.canonical;
              line "  long %s = (v - %d) / %d;" var s.Convert.canonical
                s.Convert.k;
              line "  if (%s >= N) return 0;" var
            | Outcome_convert.From_fr j ->
              let c = o.Outcome_convert.fr.(j) in
              (match c.Outcome_convert.bounds with
              | [ b ] ->
                let s = b.Outcome_convert.fb_store in
                line "  v = %s;"
                  (c_buf c.Outcome_convert.fr_load
                     (frame_var
                        c.Outcome_convert.fr_load.Outcome_convert.frame));
                line "  long %s;" var;
                line "  if (v == 0) %s = 0;" var;
                line "  else if (v > 0 && (v - 1) %% %d + 1 == %d) %s = (v - %d) / %d + 1;"
                  s.Convert.k s.Convert.canonical var s.Convert.canonical
                  s.Convert.k;
                line "  else return 0;";
                line "  if (%s < 0 || %s >= N) return 0;" var var
              | [] | _ :: _ :: _ -> line "  return 0; /* underdetermined */"))
          plan.Outcome_convert.order;
        emit_p_out_body ~declare_v:false buf conv o;
        line "}";
        line "")
      converted;
    line "void counth_%s(long N, %s, long *counts) {" name (buf_args conv);
    line "  for (long n = 0; n < N; n++) {";
    List.iteri
      (fun i _ ->
        let call = Printf.sprintf "p_out_h%d(N, n, %s)" i bufs in
        if i = 0 then line "    if (%s) counts[%d]++;" call i
        else line "    else if (%s) counts[%d]++;" call i)
      converted;
    line "  }";
    line "}";
    Ok { filename = name ^ "_counth.c"; content = Buffer.contents buf }

let params_header (conv : Convert.t) =
  let name = sanitize conv.Convert.test.Ast.name in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "/* PerpLE Converter parameters for %s. */\n"
       conv.Convert.test.Ast.name);
  Array.iteri
    (fun t r ->
      Buffer.add_string buf (Printf.sprintf "#define t_%d_reads %d\n" t r))
    conv.Convert.t_reads;
  Buffer.add_string buf
    (Printf.sprintf "#define n_threads %d\n"
       (Array.length conv.Convert.t_reads));
  { filename = name ^ "_params.h"; content = Buffer.contents buf }

let harness_c (conv : Convert.t) =
  let test = conv.Convert.test in
  let name = sanitize test.Ast.name in
  let nthreads = Array.length conv.Convert.t_reads in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "/* PerpLE Harness for %s: launch threads once, run N iterations" test.Ast.name;
  line " * synchronisation-free, then count perpetual outcomes. */";
  line "#include <pthread.h>";
  line "#include <stdio.h>";
  line "#include <stdlib.h>";
  line "#include \"%s_params.h\"" name;
  line "";
  Array.iter
    (fun loc -> line "long %s = 0;" loc)
    conv.Convert.image.Program.location_names;
  line "";
  for t = 0 to nthreads - 1 do
    line "extern void perple_%s_thread_%d(long *buf, long N);" name t
  done;
  line "extern void count_%s(long N, %s, long *counts);" name (buf_args conv);
  line "extern void counth_%s(long N, %s, long *counts);" name (buf_args conv);
  line "";
  line "static pthread_barrier_t launch_barrier;";
  line "struct targ { long *buf; long n; int thread; };";
  line "";
  line "static void *thread_main(void *p) {";
  line "  struct targ *a = p;";
  line "  pthread_barrier_wait(&launch_barrier); /* the only barrier */";
  line "  switch (a->thread) {";
  for t = 0 to nthreads - 1 do
    line "  case %d: perple_%s_thread_%d(a->buf, a->n); break;" t name t
  done;
  line "  }";
  line "  return NULL;";
  line "}";
  line "";
  line "int main(int argc, char **argv) {";
  line "  long n = argc > 1 ? atol(argv[1]) : 100000;";
  line "  pthread_barrier_init(&launch_barrier, NULL, n_threads);";
  for t = 0 to nthreads - 1 do
    if conv.Convert.t_reads.(t) > 0 then
      line "  long *buf%d = calloc((size_t)n * t_%d_reads, sizeof(long));" t t
  done;
  line "  pthread_t tid[n_threads];";
  line "  struct targ args[n_threads];";
  for t = 0 to nthreads - 1 do
    let bufarg = if conv.Convert.t_reads.(t) > 0 then Printf.sprintf "buf%d" t else "NULL" in
    line "  args[%d] = (struct targ){ %s, n, %d };" t bufarg t
  done;
  line "  for (int t = 0; t < n_threads; t++)";
  line "    pthread_create(&tid[t], NULL, thread_main, &args[t]);";
  line "  for (int t = 0; t < n_threads; t++)";
  line "    pthread_join(tid[t], NULL);";
  let bufs =
    String.concat ", "
      (List.filter_map
         (fun t ->
           if conv.Convert.t_reads.(t) > 0 then
             Some (Printf.sprintf "buf%d" t)
           else None)
         (List.init nthreads Fun.id))
  in
  line "  long counts[64] = {0};";
  line "  counth_%s(n, %s, counts);" name bufs;
  line "  printf(\"heuristic counts: \");";
  line "  for (int i = 0; i < 8; i++) printf(\"%%ld \", counts[i]);";
  line "  printf(\"\\n\");";
  line "  return 0;";
  line "}";
  { filename = name ^ "_harness.c"; content = Buffer.contents buf }

let c11_file (conv : Convert.t) ~outcomes =
  match exhaustive_counter_c conv ~outcomes with
  | Error e -> Error e
  | Ok count_file -> (
    match heuristic_counter_c conv ~outcomes with
    | Error e -> Error e
    | Ok counth_file ->
      let test = conv.Convert.test in
      let name = sanitize test.Ast.name in
      let nthreads = Array.length conv.Convert.t_reads in
      let buf = Buffer.create 4096 in
      let line fmt =
        Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
      in
      line "/* PerpLE perpetual test %s — portable C11 backend." test.Ast.name;
      line " * Relaxed atomics stand in for the plain x86 accesses;";
      line " * MFENCE becomes atomic_thread_fence(memory_order_seq_cst).";
      line " * Build: cc -O2 -pthread -o %s_c11 %s_c11.c */" name name;
      line "#include <pthread.h>";
      line "#include <stdatomic.h>";
      line "#include <stdio.h>";
      line "#include <stdlib.h>";
      line "";
      Array.iter
        (fun loc -> line "static _Atomic long %s = 0;" loc)
        conv.Convert.image.Program.location_names;
      line "";
      (* Per-thread functions. *)
      for t = 0 to nthreads - 1 do
        let program = conv.Convert.image.Program.programs.(t) in
        let reads = conv.Convert.t_reads.(t) in
        line "static void thread_%d(long *buf, long N) {" t;
        line "  for (long n = 0; n < N; n++) {";
        let slot = ref 0 in
        Array.iter
          (fun instr ->
            match instr with
            | Program.Store { loc; value; addr = _ } ->
              let expr =
                match value with
                | Program.Seq { k; a } ->
                  if k = 1 then Printf.sprintf "n + %d" a
                  else Printf.sprintf "%d*n + %d" k a
                | Program.Const a -> string_of_int a
              in
              line
                "    atomic_store_explicit(&%s, %s, memory_order_relaxed);"
                conv.Convert.image.Program.location_names.(loc)
                expr
            | Program.Load { loc; reg; addr = _ } ->
              ignore reg;
              line
                "    long r%d = atomic_load_explicit(&%s, \
                 memory_order_relaxed);"
                !slot
                conv.Convert.image.Program.location_names.(loc);
              incr slot
            | Program.Fence ->
              line "    atomic_thread_fence(memory_order_seq_cst);"
            | Program.Flush { loc; addr = _ } ->
              line "    __builtin_ia32_clflush((void *)&%s);"
                conv.Convert.image.Program.location_names.(loc)
            | Program.Drain -> line "    __builtin_ia32_sfence();")
          program.Program.body;
        if reads > 0 then begin
          for i = 0 to reads - 1 do
            line "    buf[%d*n + %d] = r%d;" reads i i
          done
        end
        else line "    (void)buf;";
        line "  }";
        line "}";
        line ""
      done;
      (* Counters, embedded verbatim. *)
      Buffer.add_string buf count_file.content;
      Buffer.add_char buf '\n';
      Buffer.add_string buf counth_file.content;
      Buffer.add_char buf '\n';
      (* Harness. *)
      line "static pthread_barrier_t launch_barrier;";
      line "struct targ { long *buf; long n; int thread; };";
      line "";
      line "static void *thread_main(void *p) {";
      line "  struct targ *a = p;";
      line "  pthread_barrier_wait(&launch_barrier); /* the only barrier */";
      line "  switch (a->thread) {";
      for t = 0 to nthreads - 1 do
        line "  case %d: thread_%d(a->buf, a->n); break;" t t
      done;
      line "  }";
      line "  return NULL;";
      line "}";
      line "";
      line "int main(int argc, char **argv) {";
      line "  long n = argc > 1 ? atol(argv[1]) : 100000;";
      line "  pthread_barrier_init(&launch_barrier, NULL, %d);" nthreads;
      Array.iteri
        (fun t r ->
          if r > 0 then
            line "  long *buf%d = calloc((size_t)n * %d, sizeof(long));" t r)
        conv.Convert.t_reads;
      line "  pthread_t tid[%d];" nthreads;
      line "  struct targ args[%d];" nthreads;
      Array.iteri
        (fun t r ->
          let bufarg = if r > 0 then Printf.sprintf "buf%d" t else "NULL" in
          line "  args[%d] = (struct targ){ %s, n, %d };" t bufarg t)
        conv.Convert.t_reads;
      line "  for (int t = 0; t < %d; t++)" nthreads;
      line "    pthread_create(&tid[t], NULL, thread_main, &args[t]);";
      line "  for (int t = 0; t < %d; t++)" nthreads;
      line "    pthread_join(tid[t], NULL);";
      let bufs =
        String.concat ", "
          (List.filter_map
             (fun t ->
               if conv.Convert.t_reads.(t) > 0 then
                 Some (Printf.sprintf "buf%d" t)
               else None)
             (List.init nthreads Fun.id))
      in
      line "  long counts[64] = {0};";
      line "  counth_%s(n, %s, counts);" name bufs;
      line "  printf(\"heuristic counts: \");";
      line "  for (int i = 0; i < %d; i++) printf(\"%%ld \", counts[i]);"
        (List.length outcomes);
      line "  printf(\"\\n\");";
      line "  return 0;";
      line "}";
      Ok { filename = name ^ "_c11.c"; content = Buffer.contents buf })

let all_files (conv : Convert.t) ~outcomes =
  match exhaustive_counter_c conv ~outcomes with
  | Error e -> Error e
  | Ok count_file -> (
    match heuristic_counter_c conv ~outcomes with
    | Error e -> Error e
    | Ok counth_file ->
      let nthreads = Array.length conv.Convert.t_reads in
      let asm = List.init nthreads (fun t -> thread_asm conv ~thread:t) in
      let c11 =
        match c11_file conv ~outcomes with
        | Ok f -> [ f ]
        | Error _ -> []
      in
      Ok
        (asm
        @ [ count_file; counth_file; params_header conv; harness_c conv ]
        @ c11))

let write_to_dir ~dir files =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      let oc = open_out (Filename.concat dir f.filename) in
      output_string oc f.content;
      close_out oc)
    files
