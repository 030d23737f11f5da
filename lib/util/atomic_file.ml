(* Atomic whole-file replacement: write → fsync → rename → fsync dir.

   The write-then-rename dance is the standard POSIX recipe: the rename
   replaces the destination in one step, so a crash at any point leaves
   either the old complete file or the new complete file, never a torn
   mixture.  The temporary lives in the destination's own directory —
   rename is only atomic within a filesystem. *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let write_all fd data =
  let n = String.length data in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd data !sent (n - !sent)
  done

let write ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  (try
     let fd =
       Unix.openfile tmp
         [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
         0o644
     in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         write_all fd data;
         Unix.fsync fd);
     Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir (Filename.dirname path)
