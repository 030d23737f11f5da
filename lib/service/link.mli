(** Every descriptor, clock and signal of the service.

    The {e channel} is the sans-IO framing and liveness state that
    {!Session}, {!Client} and {!Worker} embed.  The rest is the only
    code in the service that touches sockets, the wall clock or signal
    handlers: one dialler, one listener, one nonblocking pump (under
    {!serve} and {!drive}), one reconnect loop and one signal scope. *)

(** {1 Framing and liveness} *)

type config = { heartbeat_every : int; liveness_timeout : int }

val default_config : config
(** 1000-tick heartbeats, 10 000-tick liveness deadline. *)

type channel

val channel : ?config:config -> metrics:string -> now:int -> unit -> channel
(** Frames are counted as [metrics ^ ".frames_in"] / [".frames_out"]. *)

val send : channel -> Wire.frame -> unit
val output : channel -> Perple_util.Framed.buf

val receive :
  channel -> now:int -> live:(unit -> bool) -> corrupt:(string -> unit) ->
  frame:(Wire.frame -> unit) -> string -> unit
(** Inbound bytes: unless [live ()] is false, note the traffic and hand
    each complete frame to [frame] while [live ()] holds.  A corrupt
    stream goes to [corrupt] and ends the drain. *)

val beat : channel -> now:int -> [ `Timed_out of string | `Beat | `Quiet ]
(** [`Timed_out reason] once the peer was silent for the liveness
    deadline, else [`Beat] after queueing a due heartbeat. *)

val silence : channel -> now:int -> int
(** Ticks since the peer's last traffic. *)

(** {1 Transport} *)

val now : unit -> int
(** The service clock: wall-clock milliseconds since process start. *)

type stop

val with_signals : catch_stop:bool -> (stop -> 'a) -> 'a
(** Run with SIGPIPE ignored (a peer that vanishes mid-write closes one
    connection, not the process) and, with [catch_stop], SIGINT/SIGTERM
    recorded in the {!stop} flag instead of killing the process.  Every
    handler is restored on exit. *)

val stop_signal : stop -> int option

type address = [ `Unix_socket of string | `Tcp of int ]
(** A filesystem socket or a loopback TCP port. *)

type listener

val listen : socket:string -> ?tcp_port:int -> unit -> (listener, string) result
(** The Unix socket at [socket] (a stale file from a dead daemon is
    replaced, a live daemon's is an error), plus a loopback TCP port. *)

val serve :
  listener -> connect:(now:int -> int) ->
  input:(conn:int -> now:int -> string -> unit) ->
  eof:(conn:int -> now:int -> unit) -> tick:(now:int -> unit) ->
  flush:(conn:int -> string) -> closed:(conn:int -> bool) ->
  busy:(unit -> bool) -> drain:(now:int -> unit) -> int
(** Pump a core that names connections by id until SIGINT or SIGTERM,
    then [drain] it and pump for up to 2 s more without accepting; close
    every descriptor (and the socket file) and return the signal.  Each
    turn waits up to 50 ms for I/O (none while [busy ()]), accepts,
    reads, ticks once, writes, and closes each connection that is
    [closed] and fully written.  A failed accept (out of descriptors)
    counts [service.accept_errors] and rests the listeners until a
    connection closes or a wait times out. *)

val drive :
  stop:stop -> Unix.file_descr -> input:(now:int -> string -> unit) ->
  eof:(now:int -> unit) -> tick:(now:int -> unit) ->
  output:Perple_util.Framed.buf -> finished:(unit -> bool) ->
  busy:(unit -> bool) -> unit
(** The same pump over one dialled connection and a one-connection
    machine, until the machine is [finished] and its [output] written,
    or [stop] is set.  The descriptor is closed on return. *)

(** {1 Reconnecting} *)

type 'a attempt =
  | Finished of 'a
  | Lost of { reason : string; worked : bool; retry_after : int option }
      (** [worked]: the connection made progress, which refills the
          retry budget.  [retry_after]: the peer's back-off hint (ms). *)

val retryable : string -> bool
(** Whether a loss is worth a reconnection (transport loss, a draining
    daemon, a [Busy] verdict, a refused connect) rather than a verdict
    (rejection, protocol error). *)

val reconnect :
  address -> attempts:int -> backoff:float -> initial_delay_ms:int ->
  stop:stop -> on_retry:(string -> int -> unit) ->
  (Unix.file_descr -> 'a attempt) -> ('a, string) result
(** Connect and run [attempt] on the descriptor until it finishes; a
    failed connect is a loss.  A retryable loss is retried up to
    [attempts] consecutive times, each after [on_retry reason delay_ms]
    and a sleep of at least [retry_after], starting at
    [initial_delay_ms] and grown by
    {!Perple_harness.Supervisor.backed_off}.  Once [stop] is set (the
    sleep ends early), the last loss is returned. *)
