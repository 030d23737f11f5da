(* Child processes of the benchmark (daemons, workers) and the per-process
   counters read from /proc.

   Every spawned child is registered; {!stop_all} runs on every exit path
   (normal return, exception, SIGINT/SIGTERM), so no orphan daemon can
   contend for the cores during the next repetition. *)

type child = { pid : int; name : string; mutable reaped : bool }

let children : child list ref = ref []

let spawn ~prog ~args ~name ~log =
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err;
        Unix.close null)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) null null err)
  in
  let c = { pid; name; reaped = false } in
  children := c :: !children;
  c

(* Reaps the child if it has exited. *)
let alive c =
  (not c.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> true
  | _ ->
    c.reaped <- true;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    c.reaped <- true;
    false

(* SIGTERM, up to [grace] seconds to exit, then SIGKILL; always reaped. *)
let stop ?(grace = 3.0) c =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    while alive c && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    if not c.reaped then begin
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
      c.reaped <- true
    end
  end;
  children := List.filter (fun x -> x != c) !children

let stop_all () = List.iter (fun c -> stop c) !children

let install_cleanup () =
  at_exit stop_all;
  let on_signal signum =
    stop_all ();
    exit (128 + if signum = Sys.sigint then 2 else 15)
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  (* A daemon killed mid-write must not take the benchmark down. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* CPU seconds (user + system) of a live process, summed over its
   threads' scheduler statistics (/proc/PID/task/TID/schedstat, first
   field, nanoseconds): /proc/PID/stat counts in 10 ms ticks, too coarse
   for a daemon that computes a tenth of a second per campaign. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.0
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
        | None -> acc
        | Some line -> (
          match String.split_on_char ' ' (String.trim line) with
          | ns :: _ -> (
            match float_of_string_opt ns with
            | Some ns -> acc +. (ns /. 1e9)
            | None -> acc)
          | [] -> acc))
      0.0 tids

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) in MiB; 0 if the process is gone. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s -> (
    match
      List.find_opt
        (String.starts_with ~prefix:"VmHWM:")
        (String.split_on_char '\n' s)
    with
    | None -> 0.0
    | Some line -> (
      match
        List.filter (( <> ) "")
          (String.split_on_char ' '
             (String.map (fun c -> if c = '\t' then ' ' else c) line))
      with
      | _ :: kb :: _ -> (
        match float_of_string_opt kb with
        | Some kb -> kb /. 1024.0
        | None -> 0.0)
      | _ -> 0.0))

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())
