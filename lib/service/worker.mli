(** Worker-side protocol state machine and blocking driver.

    The sans-IO machine mirrors a coordinator-mode {!Session} from the
    other end of the wire: [Worker_hello] handshake, then a loop of
    granted {!Wire.frame.Lease}s.  The embedding executes the leased
    run range one index at a time through {!task} / {!task_done} /
    {!task_failed}; the machine renews the lease after every completed
    run and on each heartbeat, ships the full record batch as one
    {!Wire.frame.Shard_result}, and honours {!Wire.frame.Revoke} by
    dropping the named lease (current or queued).  Any protocol
    violation, corrupt stream, daemon error, silence past the liveness
    deadline or EOF moves the machine to [Stopped] with a reason
    {!Link.retryable} classifies.

    {!work_blocking} runs the machine on {!Link.drive} inside
    {!Link.reconnect}; reconnecting is safe because the coordinator
    revokes a lost session's lease and treats any late result from the
    old epoch as a zombie. *)

type config = Link.config = { heartbeat_every : int; liveness_timeout : int }

val default_config : config

type task = {
  spec : Wire.spec;  (** Campaign parameters, embedded in the lease. *)
  digest : string;  (** Coordinator's parameter digest, for cross-check. *)
  index : int;  (** The run index to execute. *)
}

type status = Running | Stopped of string

type t

val create : ?config:config -> ?name:string -> now:int -> unit -> t
(** A fresh machine with its [Worker_hello] already queued. *)

val input : t -> now:int -> string -> unit
val eof : t -> now:int -> unit
val tick : t -> now:int -> unit
val output : t -> Perple_util.Framed.buf
val status : t -> status

val leases_taken : t -> int
(** Leases accepted over this connection's lifetime. *)

val task : t -> task option
(** The next run to execute under the current lease, if any.  Stable
    until {!task_done} or {!task_failed} is called. *)

val task_done : t -> now:int -> record:string -> unit
(** The pending {!task} produced [record] (a canonical ledger line).
    Queues a lease renewal, or the [Shard_result] batch when this was
    the shard's last run. *)

val task_failed : t -> reason:string -> unit
(** The pending {!task} could not be executed (unresolvable spec,
    digest mismatch, engine fault).  Reports [Shard_failed] and drops
    the lease; the coordinator reassigns or abandons the shard. *)

val run_shard :
  ?pool:Perple_core.Pool.t ->
  ?jobs:int ->
  resolved:Scheduler.resolved ->
  spec:Wire.spec ->
  lo:int ->
  hi:int ->
  unit ->
  ((int * string) list, string) result
(** Execute the campaign runs [lo, hi) — same config, counter and
    pre-split seeds as [perple run --runs R], every index outside the
    range skipped — on up to [jobs] domains (default 1; [pool] reuses a
    persistent pool), and return the canonical record lines in index
    order.  This is the service's only execution path: the daemon's
    in-process worker runs whole shards through it and remote workers
    run it one index at a time, which is what makes every merged ledger
    byte-identical to a single-node run. *)

val run_index :
  resolved:Scheduler.resolved -> spec:Wire.spec -> index:int ->
  (string, string) result
(** {!run_shard} of the single run [index], sequentially: its canonical
    record line. *)

val work_blocking :
  address:Link.address ->
  ?name:string ->
  ?attempts:int ->
  ?backoff:float ->
  ?initial_delay_ms:int ->
  ?on_note:(string -> unit) ->
  unit ->
  (int, string) result
(** Connect to the coordinator and execute leases, reconnecting after
    up to [attempts] consecutive fruitless connections (a connection
    that took a lease refills the budget).  Returns [Ok signal] once
    SIGINT/SIGTERM arrives, also mid-sleep, and [Error reason] when the
    coordinator rejected us or the budget ran dry.  [on_note] receives
    human-readable progress lines. *)
