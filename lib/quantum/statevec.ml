module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
module BA = Bigarray.Array1

let init n = Cvec.basis (1 lsl n) 0

let n_of_dim dim =
  let n = ref 0 in
  while 1 lsl !n < dim do
    incr n
  done;
  assert (1 lsl !n = dim);
  !n

(* Gate kernels.  Every kernel writes, for each amplitude it touches, the
   float the dense path would: that amplitude's row of the 2x2 (or 4x4)
   gate matrix times the old amplitudes, the same products summed in the
   same order.  A kernel may only drop a product whose coefficient is an
   exact 0 (and a multiplication by an exact 1 or -1), which changes at
   most the sign of a zero — never a bit of a nonzero amplitude, and so
   never a bit of an energy.  Fusing gates or reordering a sum would, so
   neither is done here.  Amplitude [k] of [d] is (d.{2k}, d.{2k+1}); a
   bit argument is the power of two a qubit occupies in a basis index. *)

(* The [k]th basis index whose bit [m] is clear: the bits of [k] from [m]
   up move one place left. *)
let[@inline] insert0 k m = ((k land lnot (m - 1)) lsl 1) lor (k land (m - 1))

(* The [k]th basis index with both bits [a] and [b] clear. *)
let[@inline] insert00 k a b =
  if a < b then insert0 (insert0 k a) b else insert0 (insert0 k b) a

let[@inline] swap (d : Cvec.buffer) i j =
  let re = BA.unsafe_get d (2 * i) and im = BA.unsafe_get d ((2 * i) + 1) in
  BA.unsafe_set d (2 * i) (BA.unsafe_get d (2 * j));
  BA.unsafe_set d ((2 * i) + 1) (BA.unsafe_get d ((2 * j) + 1));
  BA.unsafe_set d (2 * j) re;
  BA.unsafe_set d ((2 * j) + 1) im

(* Dense 2x2 [[g00 g01] [g10 g11]] on the pairs (i, i lor bit).  Inlined
   so that the coefficients stay unboxed locals at every call site. *)
let[@inline] dense1 (d : Cvec.buffer) dim bit g00r g00i g01r g01i g10r g10i g11r
    g11i =
  for k = 0 to (dim lsr 1) - 1 do
    let i = insert0 k bit in
    let j = i lor bit in
    let xre = BA.unsafe_get d (2 * i) and xim = BA.unsafe_get d ((2 * i) + 1) in
    let yre = BA.unsafe_get d (2 * j) and yim = BA.unsafe_get d ((2 * j) + 1) in
    let are = (g00r *. xre) -. (g00i *. xim) +. (g01r *. yre) -. (g01i *. yim) in
    let aim = (g00r *. xim) +. (g00i *. xre) +. (g01r *. yim) +. (g01i *. yre) in
    let bre = (g10r *. xre) -. (g10i *. xim) +. (g11r *. yre) -. (g11i *. yim) in
    let bim = (g10r *. xim) +. (g10i *. xre) +. (g11r *. yim) +. (g11i *. yre) in
    BA.unsafe_set d (2 * i) are;
    BA.unsafe_set d ((2 * i) + 1) aim;
    BA.unsafe_set d (2 * j) bre;
    BA.unsafe_set d ((2 * j) + 1) bim
  done

let dense1_of d dim bit (g : Cmat.buffer) =
  dense1 d dim bit (BA.unsafe_get g 0) (BA.unsafe_get g 1) (BA.unsafe_get g 2)
    (BA.unsafe_get g 3) (BA.unsafe_get g 4) (BA.unsafe_get g 5)
    (BA.unsafe_get g 6) (BA.unsafe_get g 7)

(* Diagonal 2x2 diag(z0, z1): the dense rows with their zero products
   dropped. *)
let[@inline] diag1 (d : Cvec.buffer) dim bit z0r z0i z1r z1i =
  for k = 0 to (dim lsr 1) - 1 do
    let i = insert0 k bit in
    let j = i lor bit in
    let xre = BA.unsafe_get d (2 * i) and xim = BA.unsafe_get d ((2 * i) + 1) in
    let yre = BA.unsafe_get d (2 * j) and yim = BA.unsafe_get d ((2 * j) + 1) in
    BA.unsafe_set d (2 * i) ((z0r *. xre) -. (z0i *. xim));
    BA.unsafe_set d ((2 * i) + 1) ((z0r *. xim) +. (z0i *. xre));
    BA.unsafe_set d (2 * j) ((z1r *. yre) -. (z1i *. yim));
    BA.unsafe_set d ((2 * j) + 1) ((z1r *. yim) +. (z1i *. yre))
  done

(* For Z, S, Sdg, T and Tdg z0 is exactly 1, so the |0> half keeps its bits. *)
let diag1_of d dim bit (g : Cmat.buffer) =
  diag1 d dim bit (BA.unsafe_get g 0) (BA.unsafe_get g 1) (BA.unsafe_get g 6)
    (BA.unsafe_get g 7)

(* Row [r] of a dense 4x4 over the quadruple's old amplitudes, written to
   amplitude [ir]: summed from 0.0 in ascending column order, the
   coefficients read straight from the matrix's buffer. *)
let[@inline] dense_row (d : Cvec.buffer) (g : Cmat.buffer) r ir x0r x0i x1r x1i
    x2r x2i x3r x3i =
  let o = 8 * r in
  let g0r = BA.unsafe_get g o and g0i = BA.unsafe_get g (o + 1) in
  let g1r = BA.unsafe_get g (o + 2) and g1i = BA.unsafe_get g (o + 3) in
  let g2r = BA.unsafe_get g (o + 4) and g2i = BA.unsafe_get g (o + 5) in
  let g3r = BA.unsafe_get g (o + 6) and g3i = BA.unsafe_get g (o + 7) in
  let sre =
    0.0
    +. ((g0r *. x0r) -. (g0i *. x0i))
    +. ((g1r *. x1r) -. (g1i *. x1i))
    +. ((g2r *. x2r) -. (g2i *. x2i))
    +. ((g3r *. x3r) -. (g3i *. x3i))
  in
  let sim =
    0.0
    +. ((g0r *. x0i) +. (g0i *. x0r))
    +. ((g1r *. x1i) +. (g1i *. x1r))
    +. ((g2r *. x2i) +. (g2i *. x2r))
    +. ((g3r *. x3i) +. (g3i *. x3r))
  in
  BA.unsafe_set d (2 * ir) sre;
  BA.unsafe_set d ((2 * ir) + 1) sim

(* Dense 4x4 on the quadruples (i, i|lo, i|hi, i|hi|lo), rows and columns
   in that order ([hi] is the first operand's bit). *)
let dense2 (d : Cvec.buffer) dim hi lo (g : Cmat.buffer) =
  for k = 0 to (dim lsr 2) - 1 do
    let i0 = insert00 k hi lo in
    let i1 = i0 lor lo and i2 = i0 lor hi in
    let i3 = i2 lor lo in
    let x0r = BA.unsafe_get d (2 * i0) and x0i = BA.unsafe_get d ((2 * i0) + 1) in
    let x1r = BA.unsafe_get d (2 * i1) and x1i = BA.unsafe_get d ((2 * i1) + 1) in
    let x2r = BA.unsafe_get d (2 * i2) and x2i = BA.unsafe_get d ((2 * i2) + 1) in
    let x3r = BA.unsafe_get d (2 * i3) and x3i = BA.unsafe_get d ((2 * i3) + 1) in
    dense_row d g 0 i0 x0r x0i x1r x1i x2r x2i x3r x3i;
    dense_row d g 1 i1 x0r x0i x1r x1i x2r x2i x3r x3i;
    dense_row d g 2 i2 x0r x0i x1r x1i x2r x2i x3r x3i;
    dense_row d g 3 i3 x0r x0i x1r x1i x2r x2i x3r x3i
  done

let apply_matrix psi g qubits =
  let d = Cvec.unsafe_data psi and dim = Cvec.dim psi in
  let n = n_of_dim dim in
  match Array.length qubits with
  | 1 -> dense1_of d dim (1 lsl (n - 1 - qubits.(0))) (Cmat.data g)
  | 2 ->
    dense2 d dim (1 lsl (n - 1 - qubits.(0))) (1 lsl (n - 1 - qubits.(1))) (Cmat.data g)
  | _ ->
    let full = Circuit.embed ~n g qubits in
    let out = Cmat.apply full psi in
    Cvec.blit ~src:out ~dst:psi

(* The parameter-free gates' matrices, built once. *)
let fixed g = Cmat.data (Gate.matrix g ~theta:[||])
let y_m = fixed Gate.Y
let h_m = fixed Gate.H
let z_m = fixed Gate.Z
let s_m = fixed Gate.S
let sdg_m = fixed Gate.Sdg
let t_m = fixed Gate.T
let tdg_m = fixed Gate.Tdg
let iswap_m = fixed Gate.ISwap

(* [n] is the register width; the rotation coefficients are those of
   {!Gate.matrix}. *)
let apply_in psi n (gate : Gate.t) theta qubits =
  let d = Cvec.unsafe_data psi and dim = Cvec.dim psi in
  let b0 = 1 lsl (n - 1 - qubits.(0)) in
  let b1 = if Array.length qubits > 1 then 1 lsl (n - 1 - qubits.(1)) else 0 in
  match gate with
  | Rx p ->
    let t = Param.bind p theta /. 2.0 in
    let c = cos t and s = -.sin t in
    dense1 d dim b0 c 0.0 0.0 s 0.0 s c 0.0
  | Ry p ->
    let t = Param.bind p theta /. 2.0 in
    let c = cos t and s = sin t in
    dense1 d dim b0 c 0.0 (-.s) 0.0 s 0.0 c 0.0
  | Rz p ->
    let t = Param.bind p theta /. 2.0 in
    let c = cos t and s = sin t in
    diag1 d dim b0 c (-.s) c s
  | Y -> dense1_of d dim b0 y_m
  | H -> dense1_of d dim b0 h_m
  | Z -> diag1_of d dim b0 z_m
  | S -> diag1_of d dim b0 s_m
  | Sdg -> diag1_of d dim b0 sdg_m
  | T -> diag1_of d dim b0 t_m
  | Tdg -> diag1_of d dim b0 tdg_m
  | X ->
    for k = 0 to (dim lsr 1) - 1 do
      let i = insert0 k b0 in
      swap d i (i lor b0)
    done
  | CX ->
    for k = 0 to (dim lsr 2) - 1 do
      let i = insert00 k b0 b1 lor b0 in
      swap d i (i lor b1)
    done
  | Swap ->
    for k = 0 to (dim lsr 2) - 1 do
      let i = insert00 k b0 b1 in
      swap d (i lor b0) (i lor b1)
    done
  | CZ ->
    for k = 0 to (dim lsr 2) - 1 do
      let i = insert00 k b0 b1 lor b0 lor b1 in
      BA.unsafe_set d (2 * i) (-.BA.unsafe_get d (2 * i));
      BA.unsafe_set d ((2 * i) + 1) (-.BA.unsafe_get d ((2 * i) + 1))
    done
  | ISwap -> dense2 d dim b0 b1 iswap_m

let apply_gate psi gate ~theta qubits =
  apply_in psi (n_of_dim (Cvec.dim psi)) gate theta qubits

let run ?(theta = [||]) ?init_state c =
  let n = Circuit.n_qubits c in
  let psi =
    match init_state with
    | None -> init n
    | Some v ->
      assert (Cvec.dim v = 1 lsl n);
      Cvec.copy v
  in
  Circuit.iter (fun { Circuit.gate; qubits } -> apply_in psi n gate theta qubits) c;
  psi

let probabilities psi = Array.init (Cvec.dim psi) (Cvec.probability psi)

let measure rng psi =
  let p = probabilities psi in
  let x = Pqc_util.Rng.float rng 1.0 in
  let rec pick i acc =
    if i = Array.length p - 1 then i
    else begin
      let acc = acc +. p.(i) in
      if x < acc then i else pick (i + 1) acc
    end
  in
  pick 0 0.0
