module Circuit = Pqc_quantum.Circuit
(** Strategy advisor: predicted pulse duration and compile latency for
    each compilation strategy, and a recommendation.

    A strategy is priced by compiling it with {!Compiler} on
    {!Engine.model}, in-process, so an estimate is exactly what
    [Compiler.compile ~engine:Engine.model] reports for that strategy;
    against the numeric engine it is the documented calibrated
    approximation (EXPERIMENTS.md). *)

type estimate = {
  target : Compiler.strategy;
  feasible : bool;
      (** False only for flexible partial compilation on a non-monotone
          circuit (the slicer would refuse). *)
  pulse_ns : float;  (** Predicted pulse duration ([infinity] if infeasible). *)
  precompute_s : float;  (** One-off offline compilation seconds. *)
  per_iteration_s : float;  (** Compilation seconds per variational iteration. *)
  blocks : int;
      (** Engine blocks the strategy compiles ({!Compiler.engine_blocks}). *)
}

type advice = {
  recommended : Compiler.strategy;
  estimates : estimate list;  (** One per strategy, presentation order. *)
  blocks : Pqc_analysis.Cost.block_advice list;
      (** Per-block gate-vs-pulse decisions of the whole circuit. *)
  monotone : bool;
  resliceable : bool;
      (** Non-monotone but {!Pqc_analysis.Dataflow.reslice} finds a
          monotone commutation-equivalent order. *)
}

val estimate : ?max_width:int -> ?theta:float array -> Circuit.t ->
  Compiler.strategy -> estimate
(** Price one strategy.  [max_width] defaults to
    {!Pqc_analysis.Rule.grape_width_cap}; [theta] to
    {!Pqc_analysis.Cost.canonical_theta}.  Blocks wider than the GRAPE
    cap price as unattainable (infinite).  Raises [Invalid_argument]
    when [max_width < 2]. *)

val advise : ?max_width:int -> ?latency_budget_s:float ->
  ?theta:float array -> Circuit.t -> advice
(** Full advisory: all four estimates, the per-block decisions, and a
    recommendation — the shortest predicted pulse among feasible
    strategies whose per-iteration latency fits [latency_budget_s]
    (default 1 s); ties break toward lower latency, then lower
    precompute.  Gate-based always fits, so a recommendation always
    exists.  Deterministic: no randomness, no wall clock. *)

val estimate_to_string : estimate -> string
val advice_to_string : advice -> string
val advice_to_json : advice -> string
