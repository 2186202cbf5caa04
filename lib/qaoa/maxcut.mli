module Pauli = Pqc_quantum.Pauli
(** The MAXCUT problem: objective, brute-force optimum, and the QAOA cost
    Hamiltonian  C = sum_{(i,j) in E} (1 - Z_i Z_j) / 2. *)

val cut_value : Graph.t -> int -> int
(** [cut_value g assignment] counts edges cut by the bit-assignment (bit v
    of [assignment] = side of node v; node 0 is the most significant bit,
    matching basis-state indexing). *)

val optimum : Graph.t -> int
(** Brute force over 2^n assignments (n <= 24). *)

val hamiltonian : Graph.t -> Pauli.t
(** The cost operator C as a Pauli sum (its expectation on a computational
    basis state equals that state's cut value). *)

val expected_cut : Graph.t -> Pqc_linalg.Cvec.t -> float
(** <psi| C |psi>: the expected cut value of measuring state psi.  The
    partial application [expected_cut g] builds C once. *)
