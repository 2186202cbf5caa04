(** Calibrated model of GRAPE compilation latency.

    Compilation latency is the second axis of the paper's evaluation
    (Figure 7): how long the classical optimizer takes, not how long the
    pulse runs.  When the benchmark harness uses the analytic
    {!Pqc_pulse.Pulse_model} engine, it still needs latency estimates;
    this module supplies them from constants measured against this
    repository's own numeric GRAPE engine on one CPU core (see
    EXPERIMENTS.md for the calibration runs).

    Structure of the estimates:
    - a full-GRAPE compilation of a block binary-searches the minimal
      pulse time ({!probes_per_search} optimize calls) with default
      hyperparameters ({!default_iterations} each);
    - a flexible-partial compilation of a block runs {e one} optimize call
      (the minimal time is known from precompute) with tuned
      hyperparameters, converging {!tuning_speedup}x faster;
    - each optimizer iteration costs {!seconds_per_iteration}, dominated
      by the forward/backward propagation over time slices. *)

val probes_per_search : int
(** Binary-search probes per minimal-time search (log2(bound / 0.3 ns)). *)

val default_iterations : int -> int
(** [default_iterations n]: iterations-to-convergence of one optimize call
    on an [n]-qubit block with default hyperparameters (convergence
    difficulty grows exponentially with width — Section 5.2). *)

val tuning_speedup : int -> float
(** Convergence speedup from per-slice tuned hyperparameters, measured
    with {!Pqc_hyperopt} (Section 7.2). *)

val seconds_per_iteration : width:int -> steps:int -> float
(** Wall-clock cost model of one GRAPE iteration at the given number of
    time slices. *)

val hyperopt_grid_evals : int
(** Optimize calls spent per slice during hyperparameter precompute (grid
    cells x probe angles). *)
