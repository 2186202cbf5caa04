(** Seeded fault injection: the one injector for every failure the
    compiler is built to survive.

    {e Infrastructure} sites — hung and crashing pool workers, torn pipe
    frames, truncated cache files, a full disk — prove that supervision
    ({!Pqc_parallel.Pool}) and crash-consistency ({!Pulse_cache}) mask
    them completely: under any plan of these sites, batch results are
    bit-identical to the fault-free sequential run and the cache always
    reloads.  {e Engine} sites — a NaN fidelity, a search that never
    converges, a stalled search — fail every attempt of a block search,
    so the engine's retry and degradation machinery
    ({!Resilience.with_retries}) lands the block on its gate-based
    fallback duration.

    A {e plan} is a seed plus a per-site firing rate.  Whether a site
    fires for a given key is a pure hash of (seed, site, key) — never of
    execution order, process, or worker count — so a chaos run is
    exactly reproducible from its spec string.

    Spec syntax (the [PQC_FAULT_PLAN] environment variable, or {!parse}):
    {v seed=42,hang=0.5,crash-pre=0.25,crash-mid=0.25,partial-pipe=0.5,truncate=1,enospc=1,nan=0.1,no-converge=0.1,stall=0.1 v}
    Unknown sites, rates outside [0,1], or a plan whose every rate is 0
    are rejected; a malformed [PQC_FAULT_PLAN] warns once on stderr and
    injects nothing.

    Worker sites ([hang], [crash-pre], [crash-mid], [partial-pipe]) are
    keyed by the item's batch index and consulted only inside forked
    pool children (via {!Pqc_parallel.Pool.set_fault_hook}, installed by
    {!set}/{!current}).  Storage sites ([truncate], [enospc]) are keyed
    by a per-path operation counter and consulted by {!Pulse_cache}
    inside the parent; each firing bumps a [fault.<site>] counter in
    {!Pqc_obs.Obs}.  Engine sites ([nan], [no-converge], [stall]) are
    keyed by a hash of the block's {!Engine.block_key} and consulted by
    {!Engine.search} after a memo miss, in whichever process runs the
    search; the batch parent recomputes the same decision to keep
    faulted results out of the memo. *)

type site =
  | Worker_hang  (** Worker sleeps forever after claiming an item. *)
  | Worker_crash_pre  (** Worker dies before computing the item. *)
  | Worker_crash_mid  (** Worker dies halfway through its result frame. *)
  | Partial_pipe  (** Worker frames a truncated record and carries on. *)
  | Cache_truncate  (** Cache journal append is torn mid-record. *)
  | Enospc  (** Cache persist fails as if the disk were full. *)
  | Engine_nan  (** Every search attempt reports a non-finite fidelity. *)
  | Engine_no_converge  (** Every search attempt fails to converge. *)
  | Engine_stall  (** Every search attempt runs out of wall clock. *)

val all_sites : site list
val site_to_string : site -> string
val site_of_string : string -> site option

type plan

val parse : string -> (plan, string) result
val to_string : plan -> string
(** Canonical spec of a plan ([seed=..] plus every nonzero rate);
    [parse (to_string p)] reproduces [p]'s decisions. *)

val decide : plan -> site -> key:int -> bool
(** Pure decision function: does [site] fire for [key] under [plan]?
    Free of side effects (no counters) — the form used inside forked
    workers. *)

val engine_failure : plan -> block:string -> Resilience.failure option
(** Pure engine-site decision for the block whose {!Engine.block_key} is
    [block]: the first of [nan], [no-converge], [stall] that fires,
    presented as {!Resilience.Non_finite}, [Diverged] or
    [Deadline_exceeded]; [None] when none fires. *)

val injects_engine_faults : plan -> bool
(** Does the plan give any engine site a nonzero rate? *)

val set : plan option -> unit
(** Make a plan active process-wide (installing the pool fault hook) or
    deactivate injection with [None].  Overrides [PQC_FAULT_PLAN]. *)

val clear : unit -> unit
(** [set None]. *)

val current : unit -> plan option
(** The active plan, lazily initialized from [PQC_FAULT_PLAN] on first
    use (also installing the pool hook). *)

val active : unit -> bool

val fire : site -> key:int -> bool
(** [decide] against the active plan (false when none), bumping the
    [fault.<site>] counter on a hit.  The storage seams call this. *)
