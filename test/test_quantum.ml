module Rng = Pqc_util.Rng
module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
module Expm = Pqc_linalg.Expm
module Unitary = Pqc_linalg.Unitary
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Statevec = Pqc_quantum.Statevec
module Pauli = Pqc_quantum.Pauli

let all_discrete_gates =
  [ Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
    Gate.CX; Gate.CZ; Gate.Swap; Gate.ISwap ]

(* Random parameter-free circuit over [n] qubits. *)
let random_circuit rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    let q = Rng.int rng n in
    match Rng.int rng 6 with
    | 0 -> Circuit.Builder.add b Gate.H [ q ]
    | 1 -> Circuit.Builder.add b (Gate.Rx (Param.const (Rng.uniform rng ~lo:0.0 ~hi:6.28))) [ q ]
    | 2 -> Circuit.Builder.add b (Gate.Rz (Param.const (Rng.uniform rng ~lo:0.0 ~hi:6.28))) [ q ]
    | 3 -> Circuit.Builder.add b Gate.T [ q ]
    | 4 when n >= 2 ->
      let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.add b Gate.CX [ q; q2 ]
    | _ when n >= 2 ->
      let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.add b Gate.CZ [ q; q2 ]
    | _ -> Circuit.Builder.add b Gate.X [ q ]
  done;
  Circuit.Builder.to_circuit b

(* --- Param --- *)

let test_param_const () =
  let p = Param.const 1.5 in
  Alcotest.(check bool) "const" true (Param.is_const p);
  Alcotest.(check (float 1e-12)) "bind" 1.5 (Param.bind p [||]);
  Alcotest.(check bool) "no dep" true (Param.depends_on p = None)

let test_param_var () =
  let p = Param.var ~scale:0.5 ~offset:1.0 2 in
  Alcotest.(check (float 1e-12)) "affine" 2.5 (Param.bind p [| 0.0; 0.0; 3.0 |]);
  Alcotest.(check bool) "dep" true (Param.depends_on p = Some 2)

let test_param_zero_scale_is_const () =
  let p = Param.var ~scale:0.0 ~offset:0.7 3 in
  Alcotest.(check bool) "degenerate var is const" true (Param.is_const p)

let test_param_neg_half () =
  let p = Param.var 0 in
  Alcotest.(check (float 1e-12)) "neg" (-2.0) (Param.bind (Param.neg p) [| 2.0 |]);
  Alcotest.(check (float 1e-12)) "half" 1.0 (Param.bind (Param.half p) [| 2.0 |])

let test_param_add_same_var () =
  match Param.add (Param.var 1) (Param.var ~scale:2.0 1) with
  | Some p -> Alcotest.(check (float 1e-12)) "3 theta" 9.0 (Param.bind p [| 0.0; 3.0 |])
  | None -> Alcotest.fail "same-variable sum must merge"

let test_param_add_diff_var () =
  Alcotest.(check bool) "different vars don't merge" true
    (Param.add (Param.var 0) (Param.var 1) = None)

let test_param_add_cancelling () =
  match Param.add (Param.var 0) (Param.var ~scale:(-1.0) 0) with
  | Some p -> Alcotest.(check bool) "cancels to const" true (Param.is_const p)
  | None -> Alcotest.fail "cancelling sum must merge"

let test_param_bind_short_vector () =
  Alcotest.(check bool) "raises" true
    (try ignore (Param.bind (Param.var 3) [| 1.0 |]); false
     with Invalid_argument _ -> true)

let prop_param_add_semantics =
  QCheck.Test.make ~name:"Param.add agrees with numeric sum" ~count:100
    QCheck.(quad (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)
              (float_range (-5.0) 5.0) (int_range 0 3))
    (fun (s1, o1, theta, var) ->
      let a = Param.var ~scale:s1 ~offset:o1 var in
      let b = Param.var ~scale:(0.5 *. s1) ~offset:1.0 var in
      let binding = Array.make 4 theta in
      match Param.add a b with
      | None -> false
      | Some sum ->
        Float.abs (Param.bind sum binding -. (Param.bind a binding +. Param.bind b binding))
        < 1e-9)

(* --- Gate --- *)

let test_gate_matrices_unitary () =
  List.iter
    (fun g ->
      Alcotest.(check bool) (Gate.name g ^ " unitary") true
        (Cmat.is_unitary (Gate.matrix g ~theta:[||])))
    all_discrete_gates

let prop_rotation_unitary =
  QCheck.Test.make ~name:"rotation matrices unitary" ~count:100
    QCheck.(pair (int_range 0 2) (float_range (-10.0) 10.0))
    (fun (axis, angle) ->
      let g =
        match axis with
        | 0 -> Gate.Rx (Param.const angle)
        | 1 -> Gate.Ry (Param.const angle)
        | _ -> Gate.Rz (Param.const angle)
      in
      Cmat.is_unitary ~tol:1e-9 (Gate.matrix g ~theta:[||]))

let test_rx_pi_is_x () =
  Alcotest.(check bool) "Rx(pi) ~ X" true
    (Unitary.equal_up_to_phase
       (Gate.matrix (Gate.Rx (Param.const Float.pi)) ~theta:[||])
       (Gate.matrix Gate.X ~theta:[||]))

let test_rz_pi_is_z () =
  Alcotest.(check bool) "Rz(pi) ~ Z" true
    (Unitary.equal_up_to_phase
       (Gate.matrix (Gate.Rz (Param.const Float.pi)) ~theta:[||])
       (Gate.matrix Gate.Z ~theta:[||]))

let test_t_squared_is_s () =
  let t2 =
    Cmat.mul (Gate.matrix Gate.T ~theta:[||]) (Gate.matrix Gate.T ~theta:[||])
  in
  Alcotest.(check bool) "T^2 = S" true
    (Cmat.max_abs_diff t2 (Gate.matrix Gate.S ~theta:[||]) < 1e-12)

let test_gate_inverses () =
  let theta = [| 0.7 |] in
  let gates =
    Gate.Rx (Param.var 0) :: Gate.Ry (Param.var 0) :: Gate.Rz (Param.var 0)
    :: all_discrete_gates
  in
  List.iter
    (fun g ->
      match Gate.inverse g with
      | None -> Alcotest.(check string) "only iswap lacks inverse" "iswap" (Gate.name g)
      | Some inv ->
        let m = Gate.matrix g ~theta and mi = Gate.matrix inv ~theta in
        let dim = Cmat.rows m in
        Alcotest.(check bool)
          (Gate.name g ^ " inverse")
          true
          (Cmat.max_abs_diff (Cmat.mul m mi) (Cmat.identity dim) < 1e-12))
    gates

let test_gate_is_diagonal_consistent () =
  List.iter
    (fun g ->
      let m = Gate.matrix g ~theta:[||] in
      let dim = Cmat.rows m in
      let off_diag_zero = ref true in
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          if i <> j && Complex.norm (Cmat.get m i j) > 1e-12 then off_diag_zero := false
        done
      done;
      Alcotest.(check bool) (Gate.name g ^ " diagonal flag") !off_diag_zero
        (Gate.is_diagonal g))
    all_discrete_gates

let test_gate_self_inverse_consistent () =
  List.iter
    (fun g ->
      let m = Gate.matrix g ~theta:[||] in
      let dim = Cmat.rows m in
      let involutive = Cmat.max_abs_diff (Cmat.mul m m) (Cmat.identity dim) < 1e-12 in
      Alcotest.(check bool) (Gate.name g ^ " self-inverse flag") involutive
        (Gate.is_self_inverse g))
    all_discrete_gates

let test_gate_arity_and_params () =
  Alcotest.(check int) "rx arity" 1 (Gate.arity (Gate.Rx (Param.var 0)));
  Alcotest.(check int) "cx arity" 2 (Gate.arity Gate.CX);
  Alcotest.(check bool) "rx parametrized" true (Gate.is_parametrized (Gate.Rx (Param.var 0)));
  Alcotest.(check bool) "rx const not parametrized" false
    (Gate.is_parametrized (Gate.Rx (Param.const 1.0)));
  Alcotest.(check bool) "depends" true (Gate.depends_on (Gate.Rz (Param.var 5)) = Some 5)

let test_h_equals_zxz () =
  (* The control-asymmetry identity GRAPE rediscovers (Section 5.1). *)
  let zxz =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.const (-.Float.pi /. 2.0)), [ 0 ]);
        (Gate.Rx (Param.const (-.Float.pi /. 2.0)), [ 0 ]);
        (Gate.Rz (Param.const (-.Float.pi /. 2.0)), [ 0 ]) ]
  in
  Alcotest.(check bool) "H = Rz Rx Rz up to phase" true
    (Unitary.equal_up_to_phase (Circuit.unitary zxz) (Gate.matrix Gate.H ~theta:[||]))

(* --- Circuit --- *)

let test_circuit_validation () =
  Alcotest.(check bool) "arity" true
    (try ignore (Circuit.of_gates 2 [ (Gate.CX, [ 0 ]) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "range" true
    (try ignore (Circuit.of_gates 2 [ (Gate.H, [ 5 ]) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate operand" true
    (try ignore (Circuit.of_gates 2 [ (Gate.CX, [ 1; 1 ]) ]); false
     with Invalid_argument _ -> true)

let test_circuit_bind () =
  let c = Circuit.of_gates 1 [ (Gate.Rx (Param.var 0), [ 0 ]) ] in
  Alcotest.(check (list int)) "depends" [ 0 ] (Circuit.depends c);
  let b = Circuit.bind c [| 1.2 |] in
  Alcotest.(check (list int)) "bound has no deps" [] (Circuit.depends b);
  Alcotest.(check bool) "same unitary" true
    (Cmat.max_abs_diff (Circuit.unitary ~theta:[| 1.2 |] c) (Circuit.unitary b) < 1e-12)

let test_circuit_counts () =
  let c =
    Circuit.of_gates 2
      [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]); (Gate.Rz (Param.var 0), [ 1 ]);
        (Gate.CX, [ 0; 1 ]) ]
  in
  Alcotest.(check int) "length" 4 (Circuit.length c);
  Alcotest.(check int) "2q count" 2 (Circuit.two_qubit_count c);
  Alcotest.(check int) "parametrized" 1 (Circuit.parametrized_gate_count c);
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("cx", 2); ("h", 1); ("rz", 1) ]
    (Circuit.gate_counts c);
  Alcotest.(check bool) "qubit used" true (Circuit.qubit_used c 1)

let test_circuit_n_params () =
  let no_params = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  Alcotest.(check int) "no params" 0 (Circuit.n_params no_params);
  (* Parameter indices may have gaps: a circuit touching only theta.(5)
     still needs a 6-element vector.  Deriving the count from the length
     of [depends] (the old idiom) would report 1 here. *)
  let gap = Circuit.of_gates 1 [ (Gate.Rz (Param.var 5), [ 0 ]) ] in
  Alcotest.(check int) "gap index" 6 (Circuit.n_params gap);
  Alcotest.(check int) "depends is sparser" 1 (List.length (Circuit.depends gap));
  let shared =
    Circuit.of_gates 2
      [ (Gate.Rx (Param.var 2), [ 0 ]); (Gate.Rz (Param.var 2), [ 1 ]);
        (Gate.Ry (Param.var 0), [ 0 ]) ]
  in
  Alcotest.(check int) "shared var, gap at 1" 3 (Circuit.n_params shared);
  (* Binding removes dependencies, so the bound circuit needs no theta. *)
  let bound = Circuit.bind gap (Array.make 6 0.5) in
  Alcotest.(check int) "bound" 0 (Circuit.n_params bound)

let test_circuit_concat_append () =
  let a = Circuit.of_gates 2 [ (Gate.H, [ 0 ]) ] in
  let b = Circuit.append a Gate.CX [ 0; 1 ] in
  Alcotest.(check int) "append length" 2 (Circuit.length b);
  let cc = Circuit.concat a a in
  Alcotest.(check int) "concat length" 2 (Circuit.length cc);
  (* H H = I *)
  Alcotest.(check bool) "HH = I" true
    (Cmat.max_abs_diff (Circuit.unitary cc) (Cmat.identity 4) < 1e-12)

let same_instrs a b =
  Circuit.length a = Circuit.length b
  && List.for_all
       (fun k -> Circuit.instr a k = Circuit.instr b k)
       (List.init (Circuit.length a) Fun.id)

let prop_append_extend_builder_agree =
  QCheck.Test.make ~name:"append fold = extend = builder" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 3 12 in
      let gates =
        Array.to_list (Circuit.instrs c)
        |> List.map (fun (i : Circuit.instr) ->
               (i.Circuit.gate, Array.to_list i.Circuit.qubits))
      in
      let by_append =
        List.fold_left
          (fun acc (g, qs) -> Circuit.append acc g qs)
          (Circuit.empty 3) gates
      in
      let by_extend = Circuit.extend (Circuit.empty 3) gates in
      let b = Circuit.Builder.create 3 in
      List.iter (fun (g, qs) -> Circuit.Builder.add b g qs) gates;
      let by_builder = Circuit.Builder.to_circuit b in
      same_instrs by_append c && same_instrs by_extend c
      && same_instrs by_builder c)

let test_circuit_extend_validates () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]) ] in
  Alcotest.(check bool) "bad operand rejected" true
    (try ignore (Circuit.extend c [ (Gate.X, [ 5 ]) ]); false
     with Invalid_argument _ -> true);
  let c2 = Circuit.extend c [ (Gate.CX, [ 0; 1 ]); (Gate.X, [ 1 ]) ] in
  Alcotest.(check int) "extended length" 3 (Circuit.length c2)

let test_circuit_relabel () =
  let c = Circuit.of_gates 2 [ (Gate.CX, [ 0; 1 ]) ] in
  let r = Circuit.relabel c ~n:3 ~mapping:(fun q -> q + 1) in
  Alcotest.(check int) "width" 3 (Circuit.n_qubits r);
  Alcotest.(check bool) "operands" true ((Circuit.instr r 0).qubits = [| 1; 2 |])

let prop_circuit_inverse =
  QCheck.Test.make ~name:"inverse circuit = dagger of unitary" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 3 15 in
      match Circuit.inverse c with
      | None -> false
      | Some inv ->
        Cmat.max_abs_diff (Circuit.unitary inv) (Cmat.dagger (Circuit.unitary c))
        < 1e-9)

let prop_circuit_unitary_is_unitary =
  QCheck.Test.make ~name:"circuit unitary is unitary" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      Cmat.is_unitary ~tol:1e-8 (Circuit.unitary (random_circuit rng 3 20)))

let test_embed_cx_msb () =
  let cx = Gate.matrix Gate.CX ~theta:[||] in
  Alcotest.(check bool) "embed (0,1) in 2q is CX itself" true
    (Cmat.max_abs_diff (Circuit.embed ~n:2 cx [| 0; 1 |]) cx < 1e-12);
  (* Reversed operands: control on qubit 1. |01> (index 1) -> |11> (3). *)
  let rev = Circuit.embed ~n:2 cx [| 1; 0 |] in
  Alcotest.(check bool) "reversed control" true
    (Complex.norm (Cmat.get rev 3 1) > 0.99)

(* --- Statevec --- *)

let test_bell_state () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  let p = Statevec.probabilities (Statevec.run c) in
  Alcotest.(check (float 1e-12)) "p(00)" 0.5 p.(0);
  Alcotest.(check (float 1e-12)) "p(11)" 0.5 p.(3);
  Alcotest.(check (float 1e-12)) "p(01)" 0.0 p.(1)

let test_ghz_state () =
  let c =
    Circuit.of_gates 3 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]); (Gate.CX, [ 1; 2 ]) ]
  in
  let p = Statevec.probabilities (Statevec.run c) in
  Alcotest.(check (float 1e-12)) "p(000)" 0.5 p.(0);
  Alcotest.(check (float 1e-12)) "p(111)" 0.5 p.(7)

let prop_sim_matches_matrix =
  QCheck.Test.make ~name:"simulator matches circuit unitary" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 3 25 in
      let psi = Statevec.run c in
      let phi = Cmat.apply (Circuit.unitary c) (Cvec.basis 8 0) in
      Cvec.max_abs_diff psi phi < 1e-9)

let prop_sim_norm_preserved =
  QCheck.Test.make ~name:"simulation preserves norm" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 4 30 in
      Float.abs (Cvec.norm (Statevec.run c) -. 1.0) < 1e-9)

(* --- gate kernels against the dense reference --- *)

(* The dense path the simulator's gate kernels must reproduce float for
   float: each gate applied as its full 2x2 or 4x4 matrix, zero entries
   included, a 1-qubit row as one left-to-right chain of products and a
   2-qubit row summed from 0.0 in column order. *)
let dense_1q psi g bit =
  let d = Cvec.unsafe_data psi in
  let g00 = Cmat.get g 0 0 and g01 = Cmat.get g 0 1 in
  let g10 = Cmat.get g 1 0 and g11 = Cmat.get g 1 1 in
  for i = 0 to Cvec.dim psi - 1 do
    if i land bit = 0 then begin
      let j = i lor bit in
      let xre = d.{2 * i} and xim = d.{(2 * i) + 1} in
      let yre = d.{2 * j} and yim = d.{(2 * j) + 1} in
      d.{2 * i} <- (g00.re *. xre) -. (g00.im *. xim) +. (g01.re *. yre) -. (g01.im *. yim);
      d.{(2 * i) + 1} <-
        (g00.re *. xim) +. (g00.im *. xre) +. (g01.re *. yim) +. (g01.im *. yre);
      d.{2 * j} <- (g10.re *. xre) -. (g10.im *. xim) +. (g11.re *. yre) -. (g11.im *. yim);
      d.{(2 * j) + 1} <-
        (g10.re *. xim) +. (g10.im *. xre) +. (g11.re *. yim) +. (g11.im *. yre)
    end
  done

let dense_2q psi g hi lo =
  let d = Cvec.unsafe_data psi in
  for i = 0 to Cvec.dim psi - 1 do
    if i land hi = 0 && i land lo = 0 then begin
      let idx = [| i; i lor lo; i lor hi; i lor hi lor lo |] in
      let amp = Array.map (fun k -> (d.{2 * k}, d.{(2 * k) + 1})) idx in
      Array.iteri
        (fun r k ->
          let sre = ref 0.0 and sim = ref 0.0 in
          Array.iteri
            (fun s (are, aim) ->
              let z = Cmat.get g r s in
              sre := !sre +. ((z.re *. are) -. (z.im *. aim));
              sim := !sim +. ((z.re *. aim) +. (z.im *. are)))
            amp;
          d.{2 * k} <- !sre;
          d.{(2 * k) + 1} <- !sim)
        idx
    end
  done

let dense_apply psi g qubits =
  let rec log2 d = if d <= 1 then 0 else 1 + log2 (d / 2) in
  let n = log2 (Cvec.dim psi) in
  let bit q = 1 lsl (n - 1 - q) in
  match qubits with
  | [| q |] -> dense_1q psi g (bit q)
  | [| a; b |] -> dense_2q psi g (bit a) (bit b)
  | _ -> invalid_arg "dense_apply: 1- and 2-qubit gates only"

let dense_run ~theta ~init c =
  let psi = Cvec.copy init in
  Circuit.iter
    (fun { Circuit.gate; qubits } -> dense_apply psi (Gate.matrix gate ~theta) qubits)
    c;
  psi

(* Float [=] on every component: a signed zero may differ, no other bit. *)
let same_floats a b =
  let da = Cvec.unsafe_data a and db = Cvec.unsafe_data b in
  let ok = ref (Cvec.dim a = Cvec.dim b) in
  for k = 0 to (2 * Cvec.dim a) - 1 do
    if !ok && not (da.{k} = db.{k}) then ok := false
  done;
  !ok

let random_state rng dim =
  let v =
    Cvec.of_array
      (Array.init dim (fun _ ->
           { Complex.re = Rng.uniform rng ~lo:(-1.0) ~hi:1.0;
             im = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 }))
  in
  if Cvec.norm v = 0.0 then Cvec.basis dim 0 else Cvec.normalize v

type kernel_case = { circuit : Circuit.t; theta : float array; init : Cvec.t }

(* Circuits over every [Gate.t] constructor on 1-6 qubits, 2-qubit gates
   on operands in either order and at any distance, run on random theta
   from a random normalised state. *)
let gen_kernel_case =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* n_theta = int_range 1 3 in
  let* theta = array_size (return n_theta) (float_range (-7.0) 7.0) in
  let param =
    let* var = int_range 0 (n_theta - 1) in
    let* scale = float_range (-2.0) 2.0 in
    let* offset = float_range (-4.0) 4.0 in
    oneofl [ Param.var ~scale ~offset var; Param.const offset ]
  in
  let instr =
    let* k = int_range 0 (if n >= 2 then 14 else 10) in
    let* p = param in
    let gate =
      match k with
      | 0 -> Gate.Rx p
      | 1 -> Gate.Ry p
      | 2 -> Gate.Rz p
      | k -> List.nth all_discrete_gates (k - 3)
    in
    let* q = int_range 0 (n - 1) in
    if Gate.arity gate = 1 then return (gate, [ q ])
    else
      let+ off = int_range 1 (n - 1) in
      (gate, [ q; (q + off) mod n ])
  in
  let* gates = list_size (int_range 1 40) instr in
  let+ seed = int_range 0 1_000_000 in
  { circuit = Circuit.of_gates n gates; theta;
    init = random_state (Rng.create seed) (1 lsl n) }

let arb_kernel_case =
  QCheck.make gen_kernel_case ~print:(fun k ->
      Format.asprintf "theta=[%s]@.%a"
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") k.theta)))
        Circuit.pp k.circuit)

let prop_kernels_match_dense =
  QCheck.Test.make ~name:"gate kernels write the dense path's floats" ~count:300
    arb_kernel_case (fun { circuit; theta; init } ->
      same_floats
        (Statevec.run ~theta ~init_state:init circuit)
        (dense_run ~theta ~init circuit))

let prop_apply_matrix_matches_embed =
  QCheck.Test.make ~name:"apply_matrix on dense 2x2/4x4 matches embed" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let a = Rng.int rng n in
      let qubits =
        if Rng.bool rng then [| a |] else [| a; (a + 1 + Rng.int rng (n - 1)) mod n |]
      in
      let k = 1 lsl Array.length qubits in
      let g = Cmat.create k k in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          Cmat.set g i j
            { Complex.re = Rng.uniform rng ~lo:(-1.0) ~hi:1.0;
              im = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 }
        done
      done;
      let psi = random_state rng (1 lsl n) in
      let got = Cvec.copy psi and reference = Cvec.copy psi in
      Statevec.apply_matrix got g qubits;
      dense_apply reference g qubits;
      same_floats got reference
      && Cvec.max_abs_diff got (Cmat.apply (Circuit.embed ~n g qubits) psi) < 1e-12)

let test_measure_deterministic_state () =
  let rng = Rng.create 5 in
  let c = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
  let psi = Statevec.run c in
  for _ = 1 to 20 do
    Alcotest.(check int) "always |10>" 2 (Statevec.measure rng psi)
  done

let test_measure_distribution () =
  let rng = Rng.create 6 in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let psi = Statevec.run c in
  let ones = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    if Statevec.measure rng psi = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "roughly half" true (frac > 0.45 && frac < 0.55)

let test_wide_gate_kernel () =
  (* Three-qubit unitaries take the generic embed path: a Toffoli built as
     a dense matrix must act exactly like its definition. *)
  let dim = 8 in
  let toffoli = Cmat.identity dim in
  Cmat.set toffoli 6 6 Complex.zero;
  Cmat.set toffoli 7 7 Complex.zero;
  Cmat.set toffoli 6 7 Complex.one;
  Cmat.set toffoli 7 6 Complex.one;
  let psi = Statevec.run (Circuit.of_gates 3 [ (Gate.X, [ 0 ]); (Gate.X, [ 1 ]) ]) in
  Statevec.apply_matrix psi toffoli [| 0; 1; 2 |];
  Alcotest.(check (float 1e-12)) "|110> -> |111>" 1.0 (Cvec.probability psi 7)

let test_init_state_override () =
  let c = Circuit.of_gates 1 [ (Gate.X, [ 0 ]) ] in
  let psi = Statevec.run ~init_state:(Cvec.basis 2 1) c in
  Alcotest.(check (float 1e-12)) "X|1> = |0>" 1.0 (Cvec.probability psi 0)

(* --- Pauli --- *)

let test_pauli_parse () =
  let h = Pauli.of_strings 2 [ (1.0, "XZ") ] in
  Alcotest.(check int) "terms" 1 (List.length h.Pauli.terms);
  Alcotest.(check bool) "reject bad char" true
    (try ignore (Pauli.of_strings 1 [ (1.0, "Q") ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "reject bad length" true
    (try ignore (Pauli.of_strings 2 [ (1.0, "X") ]); false
     with Invalid_argument _ -> true)

let test_pauli_z_expectations () =
  let z0 = Pauli.of_strings 1 [ (1.0, "Z") ] in
  Alcotest.(check (float 1e-12)) "<0|Z|0>" 1.0 (Pauli.expectation z0 (Cvec.basis 2 0));
  Alcotest.(check (float 1e-12)) "<1|Z|1>" (-1.0) (Pauli.expectation z0 (Cvec.basis 2 1))

let test_pauli_bell_correlations () =
  let bell = Statevec.run (Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ]) in
  let e s = Pauli.expectation (Pauli.of_strings 2 [ (1.0, s) ]) bell in
  Alcotest.(check (float 1e-12)) "<ZZ>" 1.0 (e "ZZ");
  Alcotest.(check (float 1e-12)) "<XX>" 1.0 (e "XX");
  Alcotest.(check (float 1e-12)) "<YY>" (-1.0) (e "YY");
  Alcotest.(check (float 1e-12)) "<ZI>" 0.0 (e "ZI")

let test_pauli_identity_coefficient () =
  let h = Pauli.of_strings 2 [ (0.5, "II"); (2.0, "ZZ"); (-0.25, "II") ] in
  Alcotest.(check (float 1e-12)) "shift" 0.25 (Pauli.identity_coefficient h)

let prop_pauli_matrix_consistent =
  QCheck.Test.make ~name:"expectation = <v|M|v>" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let h =
        Pauli.of_strings 2
          [ (Rng.gaussian rng, "XZ"); (Rng.gaussian rng, "YI"); (Rng.gaussian rng, "ZZ");
            (Rng.gaussian rng, "II") ]
      in
      let v =
        Cvec.normalize
          (Cvec.of_array
             (Array.init 4 (fun _ ->
                  { Complex.re = Rng.gaussian rng; im = Rng.gaussian rng })))
      in
      let direct = (Cvec.dot v (Cmat.apply (Pauli.matrix h) v)).re in
      Float.abs (direct -. Pauli.expectation h v) < 1e-9)

(* --- Qasm --- *)

module Qasm = Pqc_quantum.Qasm

let test_qasm_writer_shape () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  let q = Qasm.to_qasm c in
  let contains needle =
    let n = String.length needle and h = String.length q in
    let rec go i = i + n <= h && (String.sub q i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "OPENQASM 2.0;");
  Alcotest.(check bool) "qreg" true (contains "qreg q[2];");
  Alcotest.(check bool) "h" true (contains "h q[0];");
  Alcotest.(check bool) "cx" true (contains "cx q[0],q[1];")

let test_qasm_writer_binds_theta () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 0), [ 0 ]) ] in
  Alcotest.(check bool) "unbound rejected" true
    (try ignore (Qasm.to_qasm c); false with Invalid_argument _ -> true);
  let q = Qasm.to_qasm ~theta:[| 0.75 |] c in
  let c2 = Qasm.of_qasm q in
  Alcotest.(check bool) "bound roundtrip" true
    (Cmat.max_abs_diff (Circuit.unitary c2) (Circuit.unitary ~theta:[| 0.75 |] c) < 1e-9)

let test_qasm_expressions () =
  let c = Qasm.of_qasm "qreg q[1]; rz(pi/2) q[0]; rx(-pi*0.5+0.25) q[0]; ry((1+2)*0.1) q[0];" in
  Alcotest.(check int) "three gates" 3 (Circuit.length c);
  match Pqc_quantum.Gate.param (Circuit.instr c 1).gate with
  | Some p ->
    Alcotest.(check (float 1e-12)) "arithmetic"
      ((-.Float.pi *. 0.5) +. 0.25) (Param.bind p [||])
  | None -> Alcotest.fail "expected rotation"

let test_qasm_ignores_noise_statements () =
  let c =
    Qasm.of_qasm
      "OPENQASM 2.0; include \"qelib1.inc\"; qreg r[2]; creg c[2]; // x\n\
       barrier r; h r[1]; u1(0.5) r[0];"
  in
  Alcotest.(check int) "two gates" 2 (Circuit.length c)

let check_parse_error src =
  try
    ignore (Qasm.of_qasm src);
    false
  with Qasm.Parse_error _ -> true

let test_qasm_rejects () =
  Alcotest.(check bool) "measure" true (check_parse_error "qreg q[1]; measure q[0] -> c[0];");
  Alcotest.(check bool) "unknown gate" true (check_parse_error "qreg q[1]; foo q[0];");
  Alcotest.(check bool) "out of range" true (check_parse_error "qreg q[1]; h q[3];");
  Alcotest.(check bool) "missing semicolon" true (check_parse_error "qreg q[1]; h q[0]");
  Alcotest.(check bool) "two qregs" true (check_parse_error "qreg q[1]; qreg r[1];");
  Alcotest.(check bool) "no qreg" true (check_parse_error "h q[0];");
  Alcotest.(check bool) "wrong register" true (check_parse_error "qreg q[2]; h r[0];");
  Alcotest.(check bool) "division by zero" true (check_parse_error "qreg q[1]; rz(1/0) q[0];")

let test_qasm_error_line_numbers () =
  (try
     ignore (Qasm.of_qasm "qreg q[2];\nh q[0];\nfoo q[1];");
     Alcotest.fail "must raise"
   with Qasm.Parse_error { line; _ } -> Alcotest.(check int) "line" 3 line)

(* Corpus of invalid programs: every entry must raise Parse_error with a
   sane position; entries with a known position pin it exactly. *)
let test_qasm_error_positions () =
  let corpus =
    [ ("unsupported gate", "qreg q[2];\nh q[0];\nfoo q[1];", Some (3, 1));
      ("out of range", "qreg q[1]; h q[3];", Some (1, 16));
      ("division by zero", "qreg q[1]; rz(1/0) q[0];", Some (1, 16));
      ("bad char in expr", "qreg q[1]; rz(pi@2) q[0];", Some (1, 17));
      ("unclosed paren", "qreg q[1]; rz((pi) q[0];", Some (1, 14));
      ("missing semicolon", "qreg q[1]; h q[0]", Some (1, 12));
      ("measure", "qreg q[1];\nmeasure q[0] -> c[0];", Some (2, 1));
      ("mixed params", "qreg q[1]; rz(t0+t1) q[0];", Some (1, 17));
      ("nonlinear", "qreg q[1];\nrz(t0*t1) q[0];", Some (2, 6));
      ("param divisor", "qreg q[1]; rz(1/t0) q[0];", None);
      ("wrong register", "qreg q[2]; h r[0];", Some (1, 14));
      ("bad qubit index", "qreg q[1]; h q[x];", Some (1, 16));
      ("trailing tokens", "qreg q[1]; rz(1 2) q[0];", Some (1, 17));
      ("empty angle", "qreg q[1]; rz() q[0];", None);
      ("angle on h", "qreg q[1]; h(0.5) q[0];", Some (1, 14)) ]
  in
  List.iter
    (fun (name, src, expect) ->
      match Qasm.of_qasm src with
      | _ -> Alcotest.fail (name ^ ": expected Parse_error")
      | exception Qasm.Parse_error { line; col; message = _ } -> (
        Alcotest.(check bool) (name ^ " has position") true
          (line >= 1 && col >= 1);
        match expect with
        | Some (l, c) ->
          Alcotest.(check (pair int int)) (name ^ " position") (l, c) (line, col)
        | None -> ()))
    corpus

let test_qasm_symbolic_params () =
  let c =
    Qasm.of_qasm
      "qreg q[2];\nrz(t0) q[0];\nrx(pi*t1/2) q[1];\nry(-t0+pi/4) q[0];\n\
       cx q[0],q[1];"
  in
  Alcotest.(check int) "gates" 4 (Circuit.length c);
  Alcotest.(check (list int)) "depends" [ 0; 1 ]
    (List.sort compare (Circuit.depends c));
  (match Gate.param (Circuit.instr c 1).Circuit.gate with
  | Some p ->
    Alcotest.(check (float 1e-12)) "pi*t1/2 scaled"
      (Float.pi *. 0.5 *. 0.5)
      (Param.bind p [| 0.0; 0.5 |])
  | None -> Alcotest.fail "rx should be parametrized");
  let theta = [| 0.3; 0.7 |] in
  let c2 = Qasm.of_qasm (Qasm.to_qasm ~theta c) in
  Alcotest.(check bool) "bound round-trip unitary" true
    (Unitary.equal_up_to_phase ~tol:1e-9 (Circuit.unitary ~theta c)
       (Circuit.unitary c2))

let test_qasm_roundtrip_benchmarks () =
  (* Real workload circuits survive the interchange format. *)
  List.iter
    (fun (name, c, n_params) ->
      let theta = Array.init n_params (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
      let q = Qasm.to_qasm ~theta c in
      let c2 = Qasm.of_qasm q in
      Alcotest.(check int) (name ^ " gate count") (Circuit.length c) (Circuit.length c2);
      if Circuit.n_qubits c <= 4 then
        Alcotest.(check bool) (name ^ " unitary") true
          (Unitary.equal_up_to_phase ~tol:1e-7
             (Circuit.unitary ~theta c) (Circuit.unitary c2)))
    [ ("H2 ansatz", Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2, 3);
      ("LiH ansatz", Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.lih, 8);
      ("QAOA K4 p=2", Pqc_qaoa.Qaoa.circuit (Pqc_qaoa.Graph.clique 4) ~p:2, 4) ]

let prop_qasm_roundtrip =
  QCheck.Test.make ~name:"qasm round-trip preserves unitary" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 3 15 in
      let c2 = Qasm.of_qasm (Qasm.to_qasm c) in
      Unitary.equal_up_to_phase ~tol:1e-8 (Circuit.unitary c) (Circuit.unitary c2))

(* --- Density --- *)

module Density = Pqc_quantum.Density

let timings_of c ~gate_ns =
  let i = ref (-1) in
  Array.to_list (Circuit.instrs c)
  |> List.map (fun instr ->
         incr i;
         { Density.instr; start_time = float_of_int !i *. gate_ns; duration = gate_ns })

let test_density_init () =
  let t = Density.init 2 in
  Alcotest.(check (float 1e-12)) "trace" 1.0 (Density.trace t);
  Alcotest.(check (float 1e-12)) "purity" 1.0 (Density.purity t);
  Alcotest.(check (float 1e-12)) "fid to |00>" 1.0
    (Density.fidelity_to t (Cvec.basis 4 0))

let test_density_of_statevec () =
  let psi = Statevec.run (Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ]) in
  let t = Density.of_statevec psi in
  Alcotest.(check (float 1e-12)) "pure" 1.0 (Density.purity t);
  Alcotest.(check (float 1e-12)) "self fidelity" 1.0 (Density.fidelity_to t psi)

let prop_density_noiseless_matches_statevec =
  QCheck.Test.make ~name:"noiseless density run matches statevector" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 3 15 in
      let rho =
        Density.run_noisy ~t1_ns:1e15 ~t2_ns:1e15 ~n:3 (timings_of c ~gate_ns:5.0)
      in
      Float.abs (Density.fidelity_to rho (Statevec.run c) -. 1.0) < 1e-9)

let prop_density_trace_preserved =
  QCheck.Test.make ~name:"noisy evolution preserves trace" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_circuit rng 2 12 in
      let rho =
        Density.run_noisy ~t1_ns:300.0 ~t2_ns:200.0 ~n:2 (timings_of c ~gate_ns:10.0)
      in
      Float.abs (Density.trace rho -. 1.0) < 1e-9)

let test_density_noise_reduces_purity () =
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let rho = Density.run_noisy ~t1_ns:100.0 ~t2_ns:80.0 ~n:1 (timings_of c ~gate_ns:20.0) in
  Alcotest.(check bool) "mixed" true (Density.purity rho < 0.999)

let test_density_amplitude_damping_decays_to_ground () =
  let t = Density.of_statevec (Cvec.basis 2 1) in
  Density.idle t ~t1_ns:10.0 ~t2_ns:15.0 ~qubit:0 1000.0;
  (* After 100 T1, the excited state has fully relaxed. *)
  Alcotest.(check bool) "relaxed to |0>" true
    (Density.fidelity_to t (Cvec.basis 2 0) > 0.999)

let test_density_dephasing_kills_coherence_keeps_populations () =
  let plus = Statevec.run (Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ]) in
  let t = Density.of_statevec plus in
  (* Pure dephasing only: T1 huge, T2 small. *)
  Density.idle t ~t1_ns:1e12 ~t2_ns:5.0 ~qubit:0 500.0;
  let m = Density.matrix t in
  Alcotest.(check bool) "coherence gone" true
    (Complex.norm (Pqc_linalg.Cmat.get m 0 1) < 1e-9);
  Alcotest.(check (float 1e-9)) "population kept" 0.5 (Pqc_linalg.Cmat.get m 0 0).re

let test_density_t2_decay_rate () =
  (* The |+> coherence must decay exactly as exp(-t/T2). *)
  let plus = Statevec.run (Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ]) in
  let t = Density.of_statevec plus in
  Density.idle t ~t1_ns:300.0 ~t2_ns:200.0 ~qubit:0 100.0;
  let coherence = Complex.norm (Pqc_linalg.Cmat.get (Density.matrix t) 0 1) in
  Alcotest.(check (float 1e-9)) "exp(-t/T2)/2" (0.5 *. exp (-100.0 /. 200.0)) coherence

let test_density_shorter_is_better () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  let ideal = Statevec.run c in
  let fid gate_ns =
    Density.fidelity_to
      (Density.run_noisy ~t1_ns:300.0 ~t2_ns:200.0 ~n:2 (timings_of c ~gate_ns))
      ideal
  in
  Alcotest.(check bool) "2x faster pulses, higher fidelity" true (fid 5.0 > fid 10.0)

let test_density_expectation_consistent () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  let psi = Statevec.run c in
  let h = Pauli.of_strings 2 [ (0.7, "ZZ"); (0.3, "XI") ] in
  Alcotest.(check (float 1e-9)) "Tr(rho H) = <psi|H|psi>"
    (Pauli.expectation h psi)
    (Density.expectation h (Density.of_statevec psi))

let test_density_validation () =
  Alcotest.(check bool) "bad gamma" true
    (try ignore (Density.amplitude_damping ~gamma:1.5); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad lambda" true
    (try ignore (Density.dephasing ~lambda:(-0.1)); false
     with Invalid_argument _ -> true);
  let t = Density.init 1 in
  Alcotest.(check bool) "T2 > 2 T1 rejected" true
    (try Density.idle t ~t1_ns:10.0 ~t2_ns:30.0 ~qubit:0 1.0; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative idle rejected" true
    (try Density.idle t ~qubit:0 (-1.0); false with Invalid_argument _ -> true)

let test_density_idle_gaps_hurt () =
  (* The same gates, but with a long idle gap before the last one: the
     spectator decoheres while waiting. *)
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  let ideal = Statevec.run c in
  let tight = timings_of c ~gate_ns:5.0 in
  let gapped =
    match tight with
    | [ a; b ] -> [ a; { b with Density.start_time = 200.0 } ]
    | _ -> assert false
  in
  let fid t =
    Density.fidelity_to (Density.run_noisy ~t1_ns:300.0 ~t2_ns:200.0 ~n:2 t) ideal
  in
  Alcotest.(check bool) "gap decoheres" true (fid gapped < fid tight)

let () =
  Alcotest.run "quantum"
    [ ( "param",
        [ Alcotest.test_case "const" `Quick test_param_const;
          Alcotest.test_case "var affine" `Quick test_param_var;
          Alcotest.test_case "zero scale" `Quick test_param_zero_scale_is_const;
          Alcotest.test_case "neg/half" `Quick test_param_neg_half;
          Alcotest.test_case "add same var" `Quick test_param_add_same_var;
          Alcotest.test_case "add diff var" `Quick test_param_add_diff_var;
          Alcotest.test_case "add cancelling" `Quick test_param_add_cancelling;
          Alcotest.test_case "bind short vector" `Quick test_param_bind_short_vector;
          QCheck_alcotest.to_alcotest prop_param_add_semantics ] );
      ( "gate",
        [ Alcotest.test_case "all unitary" `Quick test_gate_matrices_unitary;
          Alcotest.test_case "Rx(pi) ~ X" `Quick test_rx_pi_is_x;
          Alcotest.test_case "Rz(pi) ~ Z" `Quick test_rz_pi_is_z;
          Alcotest.test_case "T^2 = S" `Quick test_t_squared_is_s;
          Alcotest.test_case "inverses" `Quick test_gate_inverses;
          Alcotest.test_case "diagonal flags" `Quick test_gate_is_diagonal_consistent;
          Alcotest.test_case "self-inverse flags" `Quick test_gate_self_inverse_consistent;
          Alcotest.test_case "arity and params" `Quick test_gate_arity_and_params;
          Alcotest.test_case "H = RzRxRz" `Quick test_h_equals_zxz;
          QCheck_alcotest.to_alcotest prop_rotation_unitary ] );
      ( "circuit",
        [ Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "bind" `Quick test_circuit_bind;
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "n_params" `Quick test_circuit_n_params;
          Alcotest.test_case "concat/append" `Quick test_circuit_concat_append;
          Alcotest.test_case "extend validates" `Quick test_circuit_extend_validates;
          QCheck_alcotest.to_alcotest prop_append_extend_builder_agree;
          Alcotest.test_case "relabel" `Quick test_circuit_relabel;
          Alcotest.test_case "embed CX" `Quick test_embed_cx_msb;
          QCheck_alcotest.to_alcotest prop_circuit_inverse;
          QCheck_alcotest.to_alcotest prop_circuit_unitary_is_unitary ] );
      ( "statevec",
        [ Alcotest.test_case "bell" `Quick test_bell_state;
          Alcotest.test_case "ghz" `Quick test_ghz_state;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic_state;
          Alcotest.test_case "measure distribution" `Quick test_measure_distribution;
          Alcotest.test_case "init state" `Quick test_init_state_override;
          Alcotest.test_case "wide gate kernel" `Quick test_wide_gate_kernel;
          QCheck_alcotest.to_alcotest prop_sim_matches_matrix;
          QCheck_alcotest.to_alcotest prop_sim_norm_preserved;
          QCheck_alcotest.to_alcotest prop_kernels_match_dense;
          QCheck_alcotest.to_alcotest prop_apply_matrix_matches_embed ] );
      ( "pauli",
        [ Alcotest.test_case "parse" `Quick test_pauli_parse;
          Alcotest.test_case "Z expectations" `Quick test_pauli_z_expectations;
          Alcotest.test_case "bell correlations" `Quick test_pauli_bell_correlations;
          Alcotest.test_case "identity coefficient" `Quick test_pauli_identity_coefficient;
          QCheck_alcotest.to_alcotest prop_pauli_matrix_consistent ] );
      ( "qasm",
        [ Alcotest.test_case "writer shape" `Quick test_qasm_writer_shape;
          Alcotest.test_case "writer binds theta" `Quick test_qasm_writer_binds_theta;
          Alcotest.test_case "expressions" `Quick test_qasm_expressions;
          Alcotest.test_case "ignores creg/barrier" `Quick test_qasm_ignores_noise_statements;
          Alcotest.test_case "rejects bad input" `Quick test_qasm_rejects;
          Alcotest.test_case "error line numbers" `Quick test_qasm_error_line_numbers;
          Alcotest.test_case "error positions corpus" `Quick test_qasm_error_positions;
          Alcotest.test_case "symbolic parameters" `Quick test_qasm_symbolic_params;
          Alcotest.test_case "benchmark round-trips" `Quick test_qasm_roundtrip_benchmarks;
          QCheck_alcotest.to_alcotest prop_qasm_roundtrip ] );
      ( "density",
        [ Alcotest.test_case "init" `Quick test_density_init;
          Alcotest.test_case "of statevec" `Quick test_density_of_statevec;
          Alcotest.test_case "noise reduces purity" `Quick test_density_noise_reduces_purity;
          Alcotest.test_case "amplitude damping" `Quick test_density_amplitude_damping_decays_to_ground;
          Alcotest.test_case "dephasing" `Quick test_density_dephasing_kills_coherence_keeps_populations;
          Alcotest.test_case "T2 decay rate" `Quick test_density_t2_decay_rate;
          Alcotest.test_case "shorter is better" `Quick test_density_shorter_is_better;
          Alcotest.test_case "expectation consistent" `Quick test_density_expectation_consistent;
          Alcotest.test_case "validation" `Quick test_density_validation;
          Alcotest.test_case "idle gaps hurt" `Quick test_density_idle_gaps_hurt;
          QCheck_alcotest.to_alcotest prop_density_noiseless_matches_statevec;
          QCheck_alcotest.to_alcotest prop_density_trace_preserved ] ) ]
