module Cmat = Pqc_linalg.Cmat
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian
(** Hyperparameter optimization for GRAPE (Section 7.2).

    Flexible partial compilation precomputes, for each single-parameter
    subcircuit, an (ADAM learning rate, decay) pair that makes GRAPE
    converge in as few iterations as possible.  Because there is no closed
    form relating hyperparameters to convergence, the search is
    derivative-free: a coarse logarithmic grid refined around the best
    cell, scored by iterations-to-target-fidelity (failures score as the
    iteration cap plus an infidelity tie-breaker).

    The paper's key empirical observation (Figure 4) — that the
    best-performing learning-rate region is {e robust to the concrete
    angle} bound to the subcircuit's parameter — is what makes offline
    tuning sound: {!robustness} measures it directly. *)

type objective = {
  system : Hamiltonian.t;
  target_of : float -> Cmat.t;
      (** Target unitary as a function of the slice's single angle. *)
  total_time : float;  (** Pulse duration to optimize at. *)
  settings : Grape.settings;  (** Base settings; hyperparams overridden. *)
}

type score = {
  hyperparams : Grape.hyperparams;
  iterations : float;  (** Mean iterations-to-convergence over probe angles. *)
  converged_all : bool;
  mean_fidelity : float;
}

val evaluate :
  ?deadline:float -> objective -> angles:float array -> Grape.hyperparams ->
  score
(** Run GRAPE at each probe angle with the given hyperparameters.
    [deadline] (absolute wall-clock) is threaded into each GRAPE run. *)

type grid = {
  best : score;
      (** Fewest mean iterations among fully-converged cells, falling
          back to highest mean fidelity. *)
  runs : int;  (** GRAPE runs executed: one per probe angle per scored cell. *)
  iterations : int;  (** Optimizer iterations summed over those runs. *)
}

val grid_search :
  ?workers:int -> ?lr_grid:float array -> ?decay_grid:float array ->
  ?angles:float array -> ?deadline:float -> objective -> grid
(** Exhaustive search over the hyperparameter grid (defaults: 6 logarithmic
    learning rates in [0.03, 3], decays {0.995, 0.999, 1.0}; probe angles
    {0.5, 2.0}).  Returns the best score together with the work the
    search actually executed — cells a deadline skipped count nothing.

    With a [deadline] (absolute wall-clock), at least one candidate is
    always scored; the rest of the grid is skipped once the deadline
    expires, so a bounded search still returns usable hyperparameters.

    [workers] (default 1, deliberately {e not} [PQC_WORKERS]: this runs
    inside pool workers during flexible-partial precompute, and nested
    forking should be explicit) scores grid cells on forked
    {!Pqc_parallel.Pool} workers when > 1.  The winner is identical to
    the sequential search, except that an expired deadline skips no cell
    — each GRAPE run is still individually deadline-bounded. *)

type robustness_point = {
  angle : float;
  error_by_lr : (float * float) list;  (** (learning rate, final infidelity). *)
}

val robustness :
  ?lr_grid:float array -> objective -> angles:float array -> robustness_point list
(** The Figure 4 experiment: GRAPE error as a function of learning rate,
    repeated for several bindings of the slice's angle.  Robustness means
    the minimizing learning-rate region coincides across angles. *)

val best_lr_stability : robustness_point list -> float
(** Ratio in [0, 1]: fraction of probe angles whose per-angle best learning
    rate lies within one grid step of the overall winner (1.0 = perfectly
    robust, the paper's claim). *)
