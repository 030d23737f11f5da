(** Client-side protocol state machine and blocking submitter.

    The sans-IO machine mirrors {!Session} from the other end of the
    wire: hello handshake, submit, then a strict record stream —
    records must arrive in index order, exactly [runs] of them,
    followed by one [Metrics_chunk].  Anything else (an error frame, a
    corrupt stream, silence past the liveness deadline, EOF mid-stream)
    moves the machine to [Failed] with a reason — a client can always
    classify how its submission ended, never hang.

    {!submit_blocking} runs the machine on {!Link.drive} inside
    {!Link.reconnect}; retrying is safe because submits are idempotent
    per campaign id and the daemon re-streams from the journal. *)

type config = Link.config = { heartbeat_every : int; liveness_timeout : int }

val default_config : config

type outcome = {
  digest : string;  (** Parameter digest echoed by [Accepted]. *)
  completed_at_accept : int;
      (** Runs already journaled server-side when we were accepted. *)
  records : string list;  (** Canonical record lines, index order. *)
  metrics : string;  (** The [Metrics_chunk] payload. *)
}

type progress = {
  runs_total : int;
  runs_done : int;
  shards_done : int;
  shards_leased : int;
  shards_failed : int;
}
(** A {!Wire.frame.Progress} update for our campaign.  Shard counts are
    zero against a non-coordinator daemon. *)

type status = Pending | Done of outcome | Failed of string

type t

val create :
  ?config:config -> ?peer:string -> ?on_progress:(progress -> unit) ->
  spec:Wire.spec -> now:int -> unit -> t
(** A fresh machine with its [Hello] already queued.  [on_progress] is
    invoked on every progress frame (the [--follow] hook); progress is
    advisory and never required for completion. *)

val input : t -> now:int -> string -> unit
val eof : t -> now:int -> unit
val tick : t -> now:int -> unit
val output : t -> Perple_util.Framed.buf
val status : t -> status

val progress : t -> progress option
(** The most recent progress update, if any arrived. *)

val retryable : string -> bool
(** Whether a [Failed] reason is worth a reconnection: {!Link.retryable}. *)

val submit_blocking :
  socket:string ->
  ?attempts:int ->
  ?backoff:float ->
  ?initial_delay_ms:int ->
  ?on_progress:(progress -> unit) ->
  spec:Wire.spec ->
  unit ->
  (outcome, string) result
(** Connect to the daemon at [socket], run the machine to a terminal
    status, and retry retryable failures up to [attempts] times; a
    [Busy] daemon's retry-after hint lengthens the sleep. *)
