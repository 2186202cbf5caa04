module Rng = Pqc_util.Rng
module Nelder_mead = Pqc_util.Nelder_mead
module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit
module Statevec = Pqc_quantum.Statevec

let gamma_index ~round = 2 * round
let beta_index ~round = (2 * round) + 1

let n_params ~p = 2 * p

let circuit g ~p =
  if p <= 0 then invalid_arg "Qaoa.circuit: p must be positive";
  let n = g.Graph.n in
  let b = Circuit.Builder.create n in
  for q = 0 to n - 1 do
    Circuit.Builder.add b Gate.H [ q ]
  done;
  for round = 0 to p - 1 do
    let gamma = Param.var (gamma_index ~round) in
    List.iter
      (fun (u, v) ->
        (* exp(-i gamma (1 - Z_u Z_v) / 2) up to phase: CX, Rz(gamma), CX. *)
        Circuit.Builder.add b Gate.CX [ u; v ];
        Circuit.Builder.add b (Gate.Rz gamma) [ v ];
        Circuit.Builder.add b Gate.CX [ u; v ])
      g.Graph.edges;
    let beta = Param.var ~scale:2.0 (beta_index ~round) in
    for q = 0 to n - 1 do
      Circuit.Builder.add b (Gate.Rx beta) [ q ]
    done
  done;
  Circuit.Builder.to_circuit b

type outcome = {
  theta : float array;
  expected_cut : float;
  optimum : int;
  approximation_ratio : float;
  evaluations : int;
}

let optimize ?(max_evals = 600) ?(seed = 1) ?recorder g ~p =
  let c = circuit g ~p in
  let rng = Rng.create seed in
  let x0 =
    Array.init (n_params ~p) (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:Float.pi)
  in
  let expected_cut = Maxcut.expected_cut g in
  let negative_cut theta = -.expected_cut (Statevec.run ~theta c) in
  (* One objective evaluation = one variational iteration; log the cut
     (the positive objective), not the minimizer's negated view. *)
  let negative_cut =
    match recorder with
    | None -> negative_cut
    | Some r ->
      let evals = ref 0 in
      fun theta ->
        let v = negative_cut theta in
        incr evals;
        Pqc_obs.Run_log.record r ~iteration:!evals ~energy:(-.v);
        v
  in
  let options =
    { Nelder_mead.default_options with max_evals; initial_step = 0.4 }
  in
  let r = Nelder_mead.minimize ~options ~f:negative_cut ~x0 () in
  let best = Maxcut.optimum g in
  { theta = r.x; expected_cut = -.r.f; optimum = best;
    approximation_ratio = -.r.f /. float_of_int best; evaluations = r.evals }

