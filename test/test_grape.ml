module Cmat = Pqc_linalg.Cmat
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Hamiltonian = Pqc_grape.Hamiltonian
module Adam = Pqc_grape.Adam
module Grape = Pqc_grape.Grape

(* Coarse settings keep the suite fast; gates still converge at 0.99+. *)
let quick = { Grape.fast_settings with Grape.dt = 0.2; max_iters = 300 }

let gate_target n gate qs = Circuit.unitary (Circuit.of_gates n [ (gate, qs) ])

(* --- Hamiltonian --- *)

let test_gmon_structure () =
  let sys = Hamiltonian.gmon 3 in
  Alcotest.(check int) "dim" 8 sys.Hamiltonian.dim;
  (* 2 drives per qubit + line couplers. *)
  Alcotest.(check int) "controls" ((2 * 3) + 2) (Array.length sys.Hamiltonian.controls);
  Alcotest.(check (float 1e-12)) "qubit drift is zero" 0.0
    (Cmat.frobenius_norm sys.Hamiltonian.drift)

let test_gmon_qutrit () =
  let sys = Hamiltonian.gmon ~level:Hamiltonian.Qutrit 2 in
  Alcotest.(check int) "dim 3^2" 9 sys.Hamiltonian.dim;
  Alcotest.(check bool) "anharmonic drift" true
    (Cmat.frobenius_norm sys.Hamiltonian.drift > 0.0)

let test_gmon_controls_hermitian () =
  let sys = Hamiltonian.gmon 2 in
  Array.iter
    (fun (c : Hamiltonian.control) ->
      Alcotest.(check bool) (c.label ^ " hermitian") true
        (Cmat.max_abs_diff c.matrix (Cmat.dagger c.matrix) < 1e-12);
      Alcotest.(check bool) (c.label ^ " bounded") true (c.max_amp > 0.0))
    sys.Hamiltonian.controls

let test_gmon_asymmetry () =
  Alcotest.(check bool) "flux 15x faster than charge" true
    (Hamiltonian.flux_amp_max /. Hamiltonian.charge_amp_max > 14.9)

let test_gmon_custom_topology () =
  let sys = Hamiltonian.gmon ~topology:(Topology.clique 3) 3 in
  Alcotest.(check int) "clique couplers" ((2 * 3) + 3) (Array.length sys.Hamiltonian.controls)

let test_embed_target_qubit_identity () =
  let sys = Hamiltonian.gmon 2 in
  let t = gate_target 2 Gate.CX [ 0; 1 ] in
  Alcotest.(check (float 1e-12)) "identity lift" 0.0
    (Cmat.max_abs_diff (Hamiltonian.embed_target sys t) t)

let test_embed_target_qutrit () =
  let sys = Hamiltonian.gmon ~level:Hamiltonian.Qutrit 1 in
  let x = Gate.matrix Gate.X ~theta:[||] in
  let e = Hamiltonian.embed_target sys x in
  Alcotest.(check int) "dim" 3 (Cmat.rows e);
  (* |0><1| lands at (0,1); leakage row/col zero. *)
  Alcotest.(check bool) "subspace block" true (Complex.norm (Cmat.get e 0 1) > 0.99);
  Alcotest.(check (float 1e-12)) "leakage column zero" 0.0 (Complex.norm (Cmat.get e 2 2))

(* --- Adam --- *)

let test_adam_minimizes_quadratic () =
  let adam = Adam.create 2 in
  let params = [| 5.0; -3.0 |] in
  for _ = 1 to 500 do
    let grad = Array.map (fun x -> 2.0 *. x) params in
    Adam.step adam ~learning_rate:0.1 ~params ~grad
  done;
  Alcotest.(check bool) "converged" true
    (Float.abs params.(0) < 0.01 && Float.abs params.(1) < 0.01)

let test_adam_reset () =
  let adam = Adam.create 1 in
  let params = [| 1.0 |] in
  Adam.step adam ~learning_rate:0.1 ~params ~grad:[| 1.0 |];
  Adam.reset adam;
  let p2 = [| 1.0 |] in
  Adam.step adam ~learning_rate:0.1 ~params:p2 ~grad:[| 1.0 |];
  (* After reset, first-step behaviour is reproduced exactly. *)
  Alcotest.(check (float 1e-12)) "reset replays" params.(0) p2.(0)

(* --- Grape optimize --- *)

let test_grape_x_gate () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:3.0 in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check bool) "fidelity" true (r.fidelity >= 0.99)

let test_grape_h_gate () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.H [ 0 ]) ~total_time:2.0 in
  Alcotest.(check bool) "converged" true r.converged

let test_grape_propagate_consistent () =
  let sys = Hamiltonian.gmon 1 in
  let target = gate_target 1 Gate.H [ 0 ] in
  let r = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  let f = Grape.fidelity_of_controls sys ~target ~dt:quick.Grape.dt r.controls in
  Alcotest.(check bool) "controls reproduce fidelity" true
    (Float.abs (f -. r.fidelity) < 1e-6)

let test_propagate_matches_allocating_reference () =
  (* [Grape.propagate] accumulates in place with ping-pong buffers and a
     reused expm workspace; this reference is the old allocating
     implementation (fresh Hamiltonian, generator, exponential and product
     per time step).  Under the summation-order contract the two must agree
     to the last bit, not just to a tolerance. *)
  let old_propagate (sys : Hamiltonian.t) ~dt u =
    let dim = sys.Hamiltonian.dim in
    let n_steps = if Array.length u = 0 then 0 else Array.length u.(0) in
    let acc = ref (Cmat.identity dim) in
    for k = 0 to n_steps - 1 do
      let h = Cmat.copy sys.Hamiltonian.drift in
      Array.iteri
        (fun j row ->
          Cmat.axpy
            ~alpha:{ Complex.re = row.(k); im = 0.0 }
            ~x:sys.Hamiltonian.controls.(j).Hamiltonian.matrix ~y:h)
        u;
      let gen = Cmat.scale { Complex.re = 0.0; im = -.dt } h in
      let uk = Pqc_linalg.Expm.expm gen in
      acc := Cmat.mul uk !acc
    done;
    !acc
  in
  let rng = Pqc_util.Rng.create 42 in
  List.iter
    (fun n ->
      let sys = Hamiltonian.gmon n in
      let nc = Array.length sys.Hamiltonian.controls in
      let n_steps = 7 in
      let u =
        Array.init nc (fun _ ->
            Array.init n_steps (fun _ ->
                Pqc_util.Rng.uniform rng ~lo:(-0.5) ~hi:0.5))
      in
      let fast = Grape.propagate sys ~dt:0.3 u in
      let slow = old_propagate sys ~dt:0.3 u in
      for i = 0 to Cmat.rows fast - 1 do
        for j = 0 to Cmat.cols fast - 1 do
          let x = Cmat.get fast i j and y = Cmat.get slow i j in
          if
            Int64.bits_of_float x.Complex.re <> Int64.bits_of_float y.Complex.re
            || Int64.bits_of_float x.im <> Int64.bits_of_float y.im
          then
            Alcotest.failf "gmon %d: entry (%d,%d) differs: (%h,%h) vs (%h,%h)"
              n i j x.Complex.re x.im y.Complex.re y.im
        done
      done)
    [ 1; 2 ]

let test_grape_respects_amp_bounds () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:3.0 in
  Array.iteri
    (fun j row ->
      let cap = sys.Hamiltonian.controls.(j).max_amp in
      Array.iter
        (fun u -> Alcotest.(check bool) "bounded" true (Float.abs u <= cap +. 1e-12))
        row)
    r.controls

let test_grape_cx () =
  let sys = Hamiltonian.gmon 2 in
  let r =
    Grape.optimize ~settings:quick sys ~target:(gate_target 2 Gate.CX [ 0; 1 ])
      ~total_time:5.0
  in
  Alcotest.(check bool) "cx reachable" true r.converged

let test_grape_deterministic () =
  let sys = Hamiltonian.gmon 1 in
  let target = gate_target 1 Gate.H [ 0 ] in
  let a = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  let b = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  Alcotest.(check int) "same iterations" a.iterations b.iterations;
  Alcotest.(check (float 1e-12)) "same fidelity" a.fidelity b.fidelity

(* --- minimal time --- *)

let test_minimal_time_z_faster_than_x () =
  let sys = Hamiltonian.gmon 1 in
  let z = gate_target 1 (Gate.Rz (Param.const Float.pi)) [ 0 ] in
  let x = gate_target 1 (Gate.Rx (Param.const Float.pi)) [ 0 ] in
  let settings = { quick with Grape.dt = 0.1 } in
  match
    ( Grape.minimal_time ~settings ~upper_bound:4.0 sys ~target:z,
      Grape.minimal_time ~settings ~upper_bound:4.0 sys ~target:x )
  with
  | Some sz, Some sx ->
    (* The control-field asymmetry: Z rotations are much faster (Section
       5.1, Appendix A). *)
    Alcotest.(check bool) "z much faster" true
      (sz.minimal.total_time *. 2.0 < sx.minimal.total_time)
  | _ -> Alcotest.fail "searches must converge"

let test_minimal_time_cx_near_table () =
  let sys = Hamiltonian.gmon 2 in
  let settings = { quick with Grape.dt = 0.2; Grape.target_fidelity = 0.99 } in
  match
    Grape.minimal_time ~settings ~upper_bound:8.0 sys ~target:(gate_target 2 Gate.CX [ 0; 1 ])
  with
  | Some s ->
    Alcotest.(check bool) "within 1 ns of Table 1" true
      (Float.abs (s.minimal.total_time -. 3.8) <= 1.0)
  | None -> Alcotest.fail "cx search must converge"

let test_minimal_time_probes_recorded () =
  let sys = Hamiltonian.gmon 1 in
  match
    Grape.minimal_time ~settings:quick ~upper_bound:4.0 sys
      ~target:(gate_target 1 Gate.H [ 0 ])
  with
  | Some s ->
    Alcotest.(check bool) "several probes" true (List.length s.probes >= 3);
    Alcotest.(check bool) "iterations counted" true (s.grape_iterations_total > 0)
  | None -> Alcotest.fail "H search must converge"

(* The bisection as written before probe reuse: one [Grape.optimize] per
   step, nothing shared.  Returns the minimal result and every run. *)
let reference_minimal_time ~settings ~upper_bound sys ~target =
  let runs = ref [] in
  let attempt time =
    let r = Grape.optimize ~settings sys ~target ~total_time:time in
    runs := r :: !runs;
    r
  in
  let r0 = attempt upper_bound in
  let hi =
    if r0.Grape.converged then Some r0
    else
      let r1 = attempt (2.0 *. upper_bound) in
      if r1.Grape.converged then Some r1 else None
  in
  Option.map
    (fun (hi_r : Grape.result) ->
      let rec bisect lo hi best =
        if hi -. lo <= 0.3 then best
        else
          let mid = (lo +. hi) /. 2.0 in
          let r = attempt mid in
          if r.Grape.converged then bisect lo mid r else bisect mid hi best
      in
      let best = bisect 0.0 hi_r.Grape.total_time hi_r in
      (best, List.rev !runs))
    hi

let test_minimal_time_probe_reuse () =
  (* dt = 0.5 ns is coarser than the default 0.3 ns precision, so some
     bisection midpoints round to step counts already probed. *)
  let settings = { quick with Grape.dt = 0.5; max_iters = 120 } in
  let bits = Int64.bits_of_float in
  let reused = ref 0 in
  List.iter
    (fun (name, n, target, upper_bound) ->
      let sys = Hamiltonian.gmon n in
      match
        ( Grape.minimal_time ~settings ~upper_bound sys ~target,
          reference_minimal_time ~settings ~upper_bound sys ~target )
      with
      | Some s, Some (best, runs) ->
        let m = s.Grape.minimal in
        Alcotest.(check int64) (name ^ " total_time bits")
          (bits best.Grape.total_time) (bits m.Grape.total_time);
        Alcotest.(check int64) (name ^ " fidelity bits")
          (bits best.Grape.fidelity) (bits m.Grape.fidelity);
        Alcotest.(check bool) (name ^ " controls bit-identical") true
          (Array.for_all2 (Array.for_all2 (fun a b -> bits a = bits b))
             best.Grape.controls m.Grape.controls);
        let steps =
          List.map (fun (t, _) -> Grape.n_steps_of settings t) s.Grape.probes
        in
        Alcotest.(check int) (name ^ " executed step counts distinct")
          (List.length steps)
          (List.length (List.sort_uniq compare steps));
        (* Every reference run is either an executed probe or a repeat
           of one, so the reference's distinct step counts are exactly
           the executed ones. *)
        let reference_steps =
          List.sort_uniq compare (List.map (fun r -> r.Grape.n_steps) runs)
        in
        Alcotest.(check (list int)) (name ^ " same step counts probed")
          reference_steps (List.sort compare steps);
        let executed =
          List.fold_left
            (fun acc (t, _) ->
              acc
              + (Grape.optimize ~settings sys ~target ~total_time:t)
                  .Grape.iterations)
            0 s.Grape.probes
        in
        Alcotest.(check int) (name ^ " iterations are the executed runs'")
          executed s.Grape.grape_iterations_total;
        reused := !reused + (List.length runs - List.length s.Grape.probes)
      | _ -> Alcotest.failf "%s: searches must converge" name)
    [ ("H", 1, gate_target 1 Gate.H [ 0 ], 4.0);
      ("X", 1, gate_target 1 Gate.X [ 0 ], 6.0);
      ("Rz", 1, gate_target 1 (Gate.Rz (Param.const 1.0)) [ 0 ], 4.0) ];
  Alcotest.(check bool) "some probe was reused" true (!reused > 0)

let test_minimal_time_unreachable () =
  (* No coupler: an entangling target is unreachable. *)
  let sys = Hamiltonian.gmon ~topology:(Topology.of_edges 2 []) 2 in
  let settings = { quick with Grape.max_iters = 60 } in
  Alcotest.(check bool) "unreachable is None" true
    (Grape.minimal_time ~settings ~upper_bound:6.0 sys
       ~target:(gate_target 2 Gate.CX [ 0; 1 ])
    = None)

let test_multistart_stops_on_convergence () =
  let sys = Hamiltonian.gmon 1 in
  let single = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.H [ 0 ]) ~total_time:2.0 in
  let multi =
    Grape.optimize_multistart ~settings:quick ~starts:5 sys
      ~target:(gate_target 1 Gate.H [ 0 ]) ~total_time:2.0
  in
  Alcotest.(check bool) "converged" true multi.Grape.converged;
  (* First start converges, so no extra iterations are spent. *)
  Alcotest.(check int) "single start used" single.Grape.iterations multi.Grape.iterations

let test_multistart_accumulates () =
  (* An unreachable target forces all starts to run. *)
  let sys = Hamiltonian.gmon ~topology:(Pqc_transpile.Topology.of_edges 2 []) 2 in
  let settings = { quick with Grape.max_iters = 30 } in
  let single = Grape.optimize ~settings sys ~target:(gate_target 2 Gate.CX [ 0; 1 ]) ~total_time:4.0 in
  let multi =
    Grape.optimize_multistart ~settings ~starts:3 sys
      ~target:(gate_target 2 Gate.CX [ 0; 1 ]) ~total_time:4.0
  in
  Alcotest.(check bool) "not converged" false multi.Grape.converged;
  Alcotest.(check int) "iterations accumulate across starts"
    (3 * single.Grape.iterations) multi.Grape.iterations;
  Alcotest.(check bool) "best fidelity at least single's" true
    (multi.Grape.fidelity >= single.Grape.fidelity -. 1e-12)

let test_multistart_validation () =
  let sys = Hamiltonian.gmon 1 in
  Alcotest.(check bool) "starts = 0 rejected" true
    (try
       ignore
         (Grape.optimize_multistart ~starts:0 sys
            ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:2.0);
       false
     with Invalid_argument _ -> true)

let test_to_pulse () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.H [ 0 ]) ~total_time:2.0 in
  let p = Grape.to_pulse ~label:"h" r in
  Alcotest.(check (float 1e-9)) "duration preserved" r.Grape.total_time
    (Pqc_pulse.Pulse.duration p);
  match Pqc_pulse.Pulse.segments p with
  | [ Pqc_pulse.Pulse.Optimized { samples = Some s; _ } ] ->
    Alcotest.(check int) "all control channels exported"
      (Array.length sys.Hamiltonian.controls)
      (Array.length s.Pqc_pulse.Pulse.controls);
    Alcotest.(check int) "sample count" r.Grape.n_steps
      (Array.length s.Pqc_pulse.Pulse.controls.(0))
  | _ -> Alcotest.fail "expected one optimized segment with samples"

let test_realistic_settings_run () =
  let sys = Hamiltonian.gmon ~level:Hamiltonian.Qutrit 1 in
  let settings = { Grape.realistic_settings with Grape.max_iters = 200 } in
  let r =
    Grape.optimize ~settings sys ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:6.0
  in
  (* Leakage + coarse sampling make this harder; it must still make clear
     progress over a random pulse. *)
  Alcotest.(check bool) "progress under realistic settings" true (r.fidelity > 0.9)

let () =
  Alcotest.run "grape"
    [ ( "hamiltonian",
        [ Alcotest.test_case "gmon structure" `Quick test_gmon_structure;
          Alcotest.test_case "qutrit" `Quick test_gmon_qutrit;
          Alcotest.test_case "controls hermitian" `Quick test_gmon_controls_hermitian;
          Alcotest.test_case "drive asymmetry" `Quick test_gmon_asymmetry;
          Alcotest.test_case "custom topology" `Quick test_gmon_custom_topology;
          Alcotest.test_case "embed qubit" `Quick test_embed_target_qubit_identity;
          Alcotest.test_case "embed qutrit" `Quick test_embed_target_qutrit ] );
      ( "adam",
        [ Alcotest.test_case "minimizes quadratic" `Quick test_adam_minimizes_quadratic;
          Alcotest.test_case "reset" `Quick test_adam_reset ] );
      ( "optimize",
        [ Alcotest.test_case "X gate" `Quick test_grape_x_gate;
          Alcotest.test_case "H gate" `Quick test_grape_h_gate;
          Alcotest.test_case "propagate consistency" `Quick test_grape_propagate_consistent;
          Alcotest.test_case "propagate = allocating reference" `Quick
            test_propagate_matches_allocating_reference;
          Alcotest.test_case "amplitude bounds" `Quick test_grape_respects_amp_bounds;
          Alcotest.test_case "CX" `Slow test_grape_cx;
          Alcotest.test_case "deterministic" `Quick test_grape_deterministic ] );
      ( "minimal-time",
        [ Alcotest.test_case "Z faster than X" `Quick test_minimal_time_z_faster_than_x;
          Alcotest.test_case "CX near Table 1" `Slow test_minimal_time_cx_near_table;
          Alcotest.test_case "probes recorded" `Quick test_minimal_time_probes_recorded;
          Alcotest.test_case "probe reuse = plain bisection" `Quick
            test_minimal_time_probe_reuse;
          Alcotest.test_case "unreachable target" `Quick test_minimal_time_unreachable;
          Alcotest.test_case "to_pulse" `Quick test_to_pulse;
          Alcotest.test_case "multistart early stop" `Quick test_multistart_stops_on_convergence;
          Alcotest.test_case "multistart accumulates" `Quick test_multistart_accumulates;
          Alcotest.test_case "multistart validation" `Quick test_multistart_validation;
          Alcotest.test_case "realistic settings" `Slow test_realistic_settings_run ] ) ]
