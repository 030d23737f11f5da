(** Crash-safe whole-file writes: write to a temporary file in the target
    directory, [fsync], then atomically [rename] over the destination (and
    [fsync] the directory so the rename itself is durable).

    A reader never observes a torn file: it sees either the complete old
    contents or the complete new contents, whatever the writer was doing
    when the machine died.  Every emitter whose output outlives the
    process (bench JSON, [--trace]/[--metrics] dumps, journal compaction)
    writes through this helper. *)

val write : path:string -> string -> unit
(** [write ~path data] atomically replaces [path] with [data].  The
    temporary file lives next to [path] (same filesystem, so the rename
    is atomic) and is removed if the write or the rename fails.  Raises [Unix_error]
    or [Sys_error] on I/O failure. *)

val fsync_dir : string -> unit
(** Best-effort [fsync] of a directory, making a completed rename inside
    it durable.  Silently does nothing where directories cannot be
    opened or synced (non-POSIX filesystems). *)

val write_all : Unix.file_descr -> string -> unit
(** Write an entire string to a descriptor, looping over short writes.
    (Shared with {!Journal}, whose appends go to a long-lived fd.) *)
