module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
(** State-vector simulator.

    Simulates ideal (noiseless) circuit execution by in-place amplitude
    updates.  Each gate runs an allocation-free kernel chosen by its
    structure: diagonal gates scale amplitudes, permutation gates (X, CX,
    Swap) swap amplitude pairs, and the rest run dense 2x2 / 4x4 kernels
    over just the pairs or quadruples they touch.  Every kernel writes the
    floats of the dense matrix product — same products, same summation
    order, only exact zero products dropped — so results do not depend on
    which kernel ran.  This is the classical stand-in for the paper's
    quantum hardware in the end-to-end VQE/QAOA examples: the variational
    loop evaluates E[theta] here instead of on a machine.

    Indexing follows {!Circuit}: qubit 0 is the most significant bit of a
    basis-state index. *)

val init : int -> Cvec.t
(** [init n] is |0...0> on [n] qubits. *)

val apply_matrix : Cvec.t -> Cmat.t -> int array -> unit
(** [apply_matrix psi g qubits] applies the 2^k-dimensional unitary [g] to
    the listed qubits of [psi], in place.  Dense kernels cover k = 1 and
    k = 2; wider gates go through {!Circuit.embed}. *)

val apply_gate : Cvec.t -> Gate.t -> theta:float array -> int array -> unit
(** [apply_gate psi g ~theta qubits] applies one gate in place through its
    structural kernel; the same floats as
    [apply_matrix psi (Gate.matrix g ~theta) qubits]. *)

val run : ?theta:float array -> ?init_state:Cvec.t -> Circuit.t -> Cvec.t
(** Execute a circuit from |0...0> (or [init_state]) and return the final
    state ([theta] defaults to the empty binding). *)

val probabilities : Cvec.t -> float array
(** Born-rule outcome distribution over basis states. *)

val measure : Pqc_util.Rng.t -> Cvec.t -> int
(** Sample one computational-basis outcome. *)
