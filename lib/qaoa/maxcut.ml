module Pauli = Pqc_quantum.Pauli

let side g assignment v = (assignment lsr (g.Graph.n - 1 - v)) land 1

let cut_value g assignment =
  List.length
    (List.filter (fun (a, b) -> side g assignment a <> side g assignment b) g.Graph.edges)

let optimum g =
  assert (g.Graph.n <= 24);
  let best = ref 0 in
  for a = 0 to (1 lsl g.Graph.n) - 1 do
    let c = cut_value g a in
    if c > !best then best := c
  done;
  !best

let hamiltonian g =
  let n = g.Graph.n in
  let identity = Array.make n Pauli.I in
  let zz (a, b) =
    let ops = Array.make n Pauli.I in
    ops.(a) <- Pauli.Z;
    ops.(b) <- Pauli.Z;
    (-0.5, ops)
  in
  let constant = (0.5 *. float_of_int (Graph.n_edges g), identity) in
  Pauli.make n (constant :: List.map zz g.Graph.edges)

let expected_cut g =
  let h = hamiltonian g in
  fun psi -> Pauli.expectation h psi
