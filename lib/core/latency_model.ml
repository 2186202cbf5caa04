let probes_per_search = 7

let default_iterations = function
  | 1 -> 150
  | 2 -> 300
  | 3 -> 600
  | _ -> 2400

let tuning_speedup = function
  | 1 -> 3.0
  | 2 -> 4.0
  | 3 -> 5.0
  | _ -> 6.0

(* Measured on one CPU core (numeric engine, dt = 0.25-0.5 ns): seconds per
   optimizer iteration per time slice, by block width.  Dominated by the
   O(dim^3) slice propagator exponentials. *)
let seconds_per_iteration_per_step = function
  | 1 -> 2.0e-6
  | 2 -> 1.0e-5
  | 3 -> 5.0e-5
  | _ -> 2.5e-4

let seconds_per_iteration ~width ~steps =
  float_of_int steps *. seconds_per_iteration_per_step (min width 4)

let hyperopt_grid_evals = 36
