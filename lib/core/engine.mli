module Circuit = Pqc_quantum.Circuit
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian
(** Pulse-duration engine: how strategies obtain the minimal GRAPE pulse
    duration (and compilation cost) of a block.

    [Model] prices blocks with the calibrated {!Pqc_pulse.Pulse_model} and
    {!Latency_model} — instant, used for the full benchmark sweeps.
    [Numeric] runs the real {!Pqc_grape.Grape} optimizer — the ground
    truth, tractable on small blocks; it is what validates the model
    (EXPERIMENTS.md).  Results are memoized per bound block, and the
    memo table can persist across processes ({!persist}).

    Every search is fault-tolerant: divergent or non-finite GRAPE runs
    are retried under the engine's {!Resilience.policy} (reseeded, with
    a halved learning rate), wall-clock deadlines bound each search, and
    when all attempts fail the engine degrades to the gate-based
    lookup-table duration — always realizable — tagging the result's
    [fallback] field so nothing fails silently. *)

type cost = { grape_runs : int; grape_iterations : int; seconds : float }
(** Classical compilation work: optimize calls, total optimizer
    iterations, and (measured or modelled) wall-clock seconds. *)

val zero_cost : cost
val add_cost : cost -> cost -> cost

type block_result = {
  duration_ns : float;  (** Minimal pulse duration found/modelled. *)
  search_cost : cost;  (** Full minimal-time search, default hyperparams. *)
  fidelity : float option;  (** Achieved fidelity ([Numeric] only). *)
  fallback : Resilience.failure option;
      (** [Some f]: the search degraded to the gate-based lookup duration
          because of [f]; [None]: a genuine engine result. *)
  run_id : string option;
      (** Correlation id ({!Pqc_obs.Obs.Ctx}) ambient when this result
          was produced.  Memo and persistent-cache hits keep the id of
          the request that originally paid for the pulse — the cache
          lineage a provenance grep follows. *)
}

type t

val model : t
(** The calibrated analytic engine.  A block wider than
    {!Pqc_analysis.Rule.grape_width_cap} prices as unattainable: infinite
    duration and search seconds. *)

val numeric :
  ?settings:Grape.settings ->
  ?system_for:(int -> Hamiltonian.t) ->
  ?policy:Resilience.policy ->
  ?deadline_s:float ->
  ?cache_file:string ->
  unit -> t
(** The real GRAPE engine.  [settings] default to {!Grape.fast_settings};
    [system_for] maps block width to a system Hamiltonian (default: gmon
    on a line).

    [policy] governs divergence retries (default: environment-aware
    {!Resilience.policy_from_env}).  [deadline_s] is the wall-clock
    budget of one block search, retries included (default: the
    [PQC_SEARCH_DEADLINE_S] variable when set, else unbounded).
    [cache_file] names a persistent pulse cache (default: the
    [PQC_PULSE_CACHE] variable when set); it is loaded eagerly — corrupt
    entries dropped, see {!cache_dropped} — and written by {!persist}. *)

val is_numeric : t -> bool

type fault = Nan_fidelity | No_converge | Stall

val faulty : ?rate:float -> ?kinds:fault array -> seed:int -> t -> t
(** Seeded fault-injection wrapper for resilience testing: each
    {!search} on the wrapped engine fails with probability [rate]
    (default 1.0) with a kind drawn from [kinds] (default: all three).
    [Nan_fidelity] presents as {!Resilience.Non_finite}, [No_converge]
    as [Diverged], [Stall] as [Deadline_exceeded].  Injected failures
    pass through the same retry/degradation machinery as real ones, but
    their results are never cached.  Raises [Invalid_argument] on empty
    [kinds]. *)

val block_key : Circuit.t -> string
(** Canonical memoization key of a bound block: width, gate names, exact
    IEEE-754 angle bits, operand qubits.  Distinct bindings — however
    close — get distinct keys. *)

val search : t -> Circuit.t -> block_result
(** Minimal pulse duration of a parameter-free block (width <= 4, operands
    of two-qubit gates adjacent under the engine's topology).  Never
    raises on optimizer failure: after bounded retries it returns the
    gate-based duration with [fallback] set. *)

val persist_result : t -> (unit, Resilience.degradation) result
(** Write the memo table to the engine's [cache_file] via
    {!Pulse_cache.merge} (journaled, atomic; [Ok ()] immediately for
    [model] or when no cache file is configured).  An unwritable path or
    full disk never raises: the failure degrades to a one-line stderr
    warning, an [engine.persist.failed] counter, and an
    [Error] {!Resilience.degradation} with reason {!Resilience.Io_error}
    — the in-memory memo table is untouched. *)

val persist : t -> unit
(** {!persist_result} with the degradation discarded (the warning and
    counter still fire). *)

val cache_size : t -> int
(** Number of memoized block results (0 for [model]). *)

val cache_dropped : t -> int
(** Corrupt/unreadable entries dropped when the persistent cache was
    loaded at engine creation (mid-file damage — bit flips). *)

val cache_salvaged : t -> int
(** Torn-tail entries salvaged away when the persistent cache was loaded
    at engine creation (expected crash damage; see
    {!Pulse_cache.load_result}). *)

val tuned_run_cost : t -> Circuit.t -> duration:float -> cost
(** Cost of one GRAPE run at a known duration with per-slice tuned
    hyperparameters — flexible partial compilation's per-iteration work.
    Bounded by the engine's search deadline.  On {!model}, a non-finite
    [duration] (an unattainable block) prices as infinite seconds. *)

val hyperopt_cost : t -> Circuit.t -> duration:float -> cost
(** Offline hyperparameter-tuning cost for one slice (grid search): on
    the numeric engine, the runs and iterations the grid executed (a
    deadline may skip cells) and its wall-clock seconds.  Bounded by the
    engine's search deadline.  On {!model}, a non-finite [duration]
    prices as infinite seconds. *)

(** {2 Batch compilation over the worker pool}

    The batch entry points compile a whole list of blocks at once,
    fanning independent searches out over [workers] forked processes
    ({!Pqc_parallel.Pool}) and reassembling results in input order.
    They are {e deterministic in the worker count}: for any [workers],
    the returned durations, fidelities, fallbacks and iteration counts
    are identical to the sequential run — including under {!faulty}
    injection, whose per-item streams are keyed on batch position rather
    than execution order.  Only measured wall-clock [seconds] fields may
    differ between runs. *)

type pool_stats = {
  workers : int;  (** Workers actually used (1 = sequential). *)
  dispatched : int;  (** Unique uncached blocks sent to the pool. *)
  cache_hits : int;
      (** Inputs served without dispatch: memo-table hits plus duplicate
          blocks within the batch. *)
  recovered : int;
      (** Items recomputed in-process after their worker died or shipped
          a corrupt record. *)
}

val zero_pool_stats : pool_stats
val add_pool_stats : pool_stats -> pool_stats -> pool_stats
(** Componentwise sum; [workers] is the max of the two. *)

val search_many :
  ?workers:int -> ?min_items:int -> ?keys:string list -> t ->
  Circuit.t list ->
  block_result list * pool_stats * Resilience.degradation list
(** Batched {!search}: results in input order, one per circuit.
    [keys], when given, are the circuits' {!block_key}s, computed once
    by a caller that searches the same blocks repeatedly; the batch then
    keys nothing itself.  Raises [Invalid_argument] on a length
    mismatch.
    [workers] defaults to {!Pqc_parallel.Pool.workers_from_env}
    ([PQC_WORKERS], default 1 — no fork, exact single-item behaviour).
    Memo-table hits and intra-batch duplicates are resolved in the
    parent before anything forks; only the remaining misses are sent to
    the pool, and when fewer than [min_items] of them remain (default
    {!Pqc_parallel.Pool.min_items_from_env}, [PQC_PAR_MIN_ITEMS]) they
    run sequentially in-process — a cache-hot batch never pays fork
    overhead.  Results travel back in the checksummed {!Pulse_cache}
    record format; any lost or corrupt record is recomputed in the
    parent and recorded as a [Worker_lost] degradation.  Genuine
    (non-injected) results are merged into the engine's memo table
    exactly as {!search} would. *)

type flex_result = {
  search : block_result;
  hyperopt : cost;  (** Offline {!hyperopt_cost} at the found duration. *)
  tuned : cost;  (** Per-iteration {!tuned_run_cost} at that duration. *)
}

val flex_many :
  ?workers:int -> ?min_items:int -> ?tuning:cost option list -> t ->
  Circuit.t list ->
  flex_result list * pool_stats * Resilience.degradation list
(** Batched flexible-partial compile: per block, the minimal-time
    search plus hyperparameter tuning plus one tuned run, all executed
    inside the same worker so the pool parallelizes the whole per-slice
    pipeline (not just the search).  [tuning] holds one slot per
    circuit: a block whose slot is [Some h] skips the grid search and
    reports [h] as its [hyperopt] cost (default: every slot [None]).
    Raises [Invalid_argument] on a length mismatch.  Same determinism,
    recovery and caching contract as {!search_many}.

    A numeric engine also memoises, beside each bound block's search
    result, its tuned-run cost and — when the grid ran on that block,
    not when the cost came from a tuning slot — its tuning cost.  A
    block whose search, tuned run and needed tuning cost are all
    memoised is served in the parent without dispatch (counted as
    [engine.flex.memo_hit]); a partly memoised one reruns only what is
    missing.  A tuning slot still takes precedence over the memo.  The
    memo is in-memory only: {!persist} never writes it. *)
