(** Regression comparison between two benchmark reports.

    [partialc bench diff OLD.json NEW.json] (and the kernel and smoke
    bench gates in [test/dune]) compares experiments keyed by (name,
    strategy, engine) and flags regressions:

    - pulse duration grew by more than [threshold_pct] (pulse durations
      are deterministic per strategy, so any growth is a real compiler
      change, not noise);
    - an experiment present in OLD disappeared from NEW;
    - NEW reports [equal_pulse = false] (the sequential/parallel
      determinism contract broke);
    - optionally, parallel wall-clock grew by more than
      [time_threshold_pct] (off by default — wall-clock is noisy in CI).

    Experiments only present in NEW are reported as additions, never as
    regressions. *)

type row = {
  key : string;  (** ["name/strategy/engine"]. *)
  metric : string;  (** What is being compared, e.g. ["pulse_duration_ns"]. *)
  old_value : float;
  new_value : float;
  delta_pct : float;  (** [(new - old) / old * 100.]; [nan] if old = 0. *)
  regression : bool;  (** Whether this row trips the gate. *)
  note : string;  (** Short annotation, e.g. ["+23.1% > 20.0%"]. *)
}

type t = {
  rows : row list;  (** Per-experiment comparison rows, stable order. *)
  missing : string list;  (** Keys in OLD with no NEW counterpart. *)
  added : string list;  (** Keys in NEW with no OLD counterpart. *)
  broken : string list;  (** NEW keys with [equal_pulse = false]. *)
  regressions : string list;
      (** Human-readable description of everything that trips the gate;
          empty means the diff passes. *)
}

val diff :
  ?threshold_pct:float ->
  ?time_threshold_pct:float ->
  old_report:Bench_report.t ->
  new_report:Bench_report.t ->
  unit ->
  t
(** Compare two reports.  [threshold_pct] defaults to 20 (pulse duration
    may grow by up to 20% before gating); [time_threshold_pct] defaults
    to none (wall-clock rows are informational only). *)

val render : t -> string
(** Delta table plus a one-line verdict, for humans. *)
