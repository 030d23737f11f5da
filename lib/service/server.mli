(** The daemon: sessions multiplexed over one scheduler, and one
    coordinator that leases every campaign's shards to workers — remote
    ones, or the daemon's own in-process worker while none is
    connected.

    The sans-IO core ({!create} … {!closed}) owns every decision —
    handshakes, accepting and journaling specs, streaming records in
    index order, backpressure, heartbeats, quarantine, draining — over
    an abstract integer clock.  Tests drive it directly (through
    {!Chaos} proxies, with virtual ticks); {!serve} drives the same core
    over real sockets with {!Link.serve}, which adds nothing but byte
    shuffling.

    Streaming contract (what the CI smoke job checks end to end): after
    [Accepted], a client receives every run record of its campaign
    exactly once, in index order, as canonical
    {!Perple_core.Ledger.record_line} bytes — journaled records first
    (replayed after a crash), then live ones as they retire — followed
    by one [Metrics_chunk] built from the per-run captures.  Every record
    passed the same lease, validation and journal path whichever worker
    computed it, so the stream is byte-identical whatever [--jobs] was,
    however many workers helped and wherever a [kill -9] split the
    campaign. *)

type t

val create :
  ?session_config:Session.config ->
  ?coordinator:Coordinator.t ->
  scheduler:Scheduler.t ->
  unit ->
  t
(** Every daemon is a coordinator: worker sessions are always admitted.
    [coordinator] must have been created over the same scheduler;
    without one, a coordinator with {!Coordinator.default_config} and
    [max 4 jobs]-run shards ([jobs] from {!Scheduler.create}) is created
    here, so {!tick} alone runs campaigns to completion.  Raises
    [Invalid_argument] if the scheduler's journal holds malformed
    coordinator records ({!Coordinator.create} reports them as an
    [Error]). *)

val connect : t -> now:int -> int
(** Register a new connection; returns its id. *)

val input : t -> conn:int -> now:int -> string -> unit
(** Bytes that arrived from the connection's peer. *)

val eof : t -> conn:int -> now:int -> unit

val tick : t -> now:int -> unit
(** One turn of the daemon: advance session clocks, let the
    coordinator revoke and grant remote leases, let the in-process
    worker run one shard if no remote worker is connected (nor any
    session still in its handshake, which may be a worker about to
    join), then stream newly available records to subscribed
    connections (respecting backpressure). *)

val flush : t -> conn:int -> string
(** Take the connection's pending outbound bytes (empty if none). *)

val closed : t -> conn:int -> bool
(** The session reached a terminal state and its output is drained —
    the driver should close the transport. *)

val terminal : t -> conn:int -> Session.terminal option
val connections : t -> int list

val drain : t -> now:int -> unit
(** Begin shutdown: journal the ["draining"] marker, notify every live
    session with an [Error Draining] control frame and close it.  New
    connections are refused afterwards. *)

val draining : t -> bool

(** {1 Real transport} *)

val serve :
  socket:string ->
  ?tcp_port:int ->
  ?jobs:int ->
  ?session_config:Session.config ->
  ?coordinator:Coordinator.config ->
  journal:string option ->
  unit ->
  (int, string) result
(** Run the daemon over a Unix-domain socket at [socket] (a stale
    socket file from a dead daemon is detected and replaced) and
    optionally a localhost TCP port.  If [journal] names an existing
    file, the scheduler resumes it — the daemon restart contract needs
    no flag.  Campaigns are sharded into leases by [coordinator]
    (default: {!Coordinator.default_config} with [max 4 jobs]-run
    shards); the in-process worker runs them on [jobs] domains whenever
    no [perple worker] is connected.  Blocks in {!Link.serve} until
    SIGINT or SIGTERM, then drains (marker journaled, sessions
    notified, outputs flushed) and returns the signal number for the
    caller to turn into exit 130/143. *)
