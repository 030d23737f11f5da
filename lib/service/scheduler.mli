(** Campaign scheduler: the daemon's journal-backed record store.

    The scheduler is the daemon's only durable state.  Each accepted
    {!Wire.spec} is journaled before it is acknowledged.  It computes
    nothing itself: the {!Coordinator} leases the campaign's runs out in
    shards, to remote workers or to the daemon's in-process worker, and
    every computed run comes back through {!record_external}, which
    validates it and appends it to the journal as a ["crun"] record
    {e before} it can be streamed.  [kill -9] at any point therefore
    loses at most the shards in flight, never work acknowledged: a
    scheduler re-created over the same journal path reloads the specs and
    completed runs, re-streams the journaled records byte-for-byte
    (records are canonical {!Perple_core.Ledger.record_line}
    serializations) and leaves only the missing indices to lease.

    Everything the scheduler emits is deterministic in the campaign
    parameters: records are keyed and released by run index, so the
    streamed bytes are identical for any [jobs] value, any worker count
    and any kill/restart split — the property the daemon smoke job in CI
    enforces end to end. *)

type t

val create : ?jobs:int -> journal:string option -> unit -> (t, string) result
(** [journal = Some path]: open (creating) or replay-and-resume the
    journal at [path]; [Error] if its contents belong to a different
    command or fail validation.  [journal = None] runs in-memory
    (tests).  [jobs] is the width of the daemon's in-process worker:
    with [jobs > 1] a persistent {!Perple_core.Pool} is spawned once
    here and reused for every shard that worker runs (joined by
    {!close}) — no domain is spawned per shard. *)

type resolved = {
  r_digest : string;  (** Config digest, as acknowledged to clients. *)
  r_test : Perple_litmus.Ast.t;
  r_counter : Perple_core.Engine.counter;
  r_model : Perple_sim.Config.model;
  r_seeds : int array;  (** The campaign's pre-split per-run seeds. *)
}

val resolve_spec : Wire.spec -> (resolved, string) result
(** Validate a spec exactly as {!submit} would, without a scheduler:
    the worker side of the coordinator protocol re-derives the digest
    and seeds from the leased spec and refuses a lease whose digest
    disagrees — a config-skew guard between coordinator and worker. *)

val jobs : t -> int
(** The in-process worker's width, as passed to {!create}. *)

val pool : t -> Perple_core.Pool.t option
(** The in-process worker's persistent pool ([None] when sequential). *)

type accepted = { digest : string; runs : int; completed : int }

val submit : t -> Wire.spec -> (accepted, string) result
(** Validate and accept a spec, journaling it.  Resubmitting a known
    campaign id with identical parameters is idempotent and reports how
    many runs are already journaled; a parameter mismatch, an unknown
    test, a non-convertible test or nonsensical numbers are [Error]
    (surfaced to the client as a [Rejected] error frame). *)

val cancel : t -> campaign:string -> bool
(** Journal a cancellation and stop scheduling the campaign's remaining
    runs.  False if the campaign is unknown. *)

val runs : t -> campaign:string -> int option
val completed : t -> campaign:string -> int
val is_cancelled : t -> campaign:string -> bool
val is_complete : t -> campaign:string -> bool

val record : t -> campaign:string -> index:int -> string option
(** The canonical record line for a completed run index. *)

val campaign_ids : t -> string list
(** Accepted campaign ids, in submit order. *)

val spec_of : t -> campaign:string -> Wire.spec option
val resolved_of : t -> campaign:string -> resolved option

val record_external : t -> campaign:string -> line:string ->
  ([ `Recorded | `Duplicate ], string) result
(** Ingest a computed record line (from any worker, local or remote):
    parse, validate index and seed against the campaign's pre-split,
    journal it as a ["crun"] and fill its slot.  [`Duplicate] if the identical canonical record is already
    present (idempotent); [Error] on any mismatch — the coordinator
    treats that as a faulty shard result and reassigns. *)

val extras : t -> Perple_util.Json.t list
(** Coordinator records (["partition"], ["lease"], ["revoke"],
    ["shard-dead"]) replayed from the journal, in append order. *)

val append_extra : t -> Perple_util.Json.t -> unit
(** Journal a coordinator record; it is preserved verbatim (and in
    order) through compaction on every future resume. *)

val metrics_payload : t -> campaign:string -> string option
(** The campaign's terminal {!Wire.frame.Metrics_chunk} payload: the
    per-run metrics captures of all [runs] records merged (addition is
    commutative), serialized deterministically.  [Some] once the
    campaign is complete. *)

val note_draining : t -> unit
(** Append a ["draining"] marker — the serve-side analogue of the CLI's
    interrupted marker, written during signal shutdown. *)

val close : t -> unit
(** Close the journal and join the worker pool.  Nothing is drained or
    marked, so the sans-IO crash suites also use it to simulate
    [kill -9]. *)
