(* Kernel-equivalence suite: pins the Bigarray kernels in Cmat/Expm to
   naive reference implementations, bit for bit, and the state-vector
   simulator's output to energies computed on its dense matrix path.  The
   hot kernels (tiled and unrolled products, fused Taylor steps, the
   dim-2/dim-4 expm specializations) are all refactorings of these
   textbook loops under the summation-order contract — every float is
   produced by the same chain of operations in the same order — so
   equality here is exact IEEE-754
   equality on the bits, not approximate closeness.  A kernel change that
   reorders a sum fails this suite even when it is mathematically
   equivalent, by design: bit drift would silently break the workers:1 ≡
   workers:4 determinism gate and the committed pulse baselines. *)

module Cmat = Pqc_linalg.Cmat
module Expm = Pqc_linalg.Expm
module Rng = Pqc_util.Rng

(* --- references: naive loops over Cmat.get/set, float chains spelled out --- *)

let random_mat rng r c =
  let m = Cmat.create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      Cmat.set m i j
        { Complex.re = Rng.uniform rng ~lo:(-2.0) ~hi:2.0;
          im = Rng.uniform rng ~lo:(-2.0) ~hi:2.0 }
    done
  done;
  m

let ref_identity n =
  let m = Cmat.create n n in
  for i = 0 to n - 1 do
    Cmat.set m i i Complex.one
  done;
  m

(* Naive triple loop: ascending k, accumulators from 0.0 — the order every
   product kernel (tiled, 2x2, 4x4, fused Taylor) must reproduce. *)
let ref_mul a b =
  let n = Cmat.rows a and p = Cmat.cols a and q = Cmat.cols b in
  let d = Cmat.create n q in
  for i = 0 to n - 1 do
    for j = 0 to q - 1 do
      let sre = ref 0.0 and sim = ref 0.0 in
      for k = 0 to p - 1 do
        let x = Cmat.get a i k and y = Cmat.get b k j in
        sre := !sre +. ((x.Complex.re *. y.Complex.re) -. (x.im *. y.im));
        sim := !sim +. ((x.Complex.re *. y.im) +. (x.im *. y.Complex.re))
      done;
      Cmat.set d i j { Complex.re = !sre; im = !sim }
    done
  done;
  d

let ref_scale (z : Complex.t) a =
  let d = Cmat.create (Cmat.rows a) (Cmat.cols a) in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j in
      Cmat.set d i j
        { Complex.re = (z.re *. x.Complex.re) -. (z.im *. x.im);
          im = (z.re *. x.im) +. (z.im *. x.Complex.re) }
    done
  done;
  d

let ref_axpy (z : Complex.t) x y =
  let d = Cmat.copy y in
  for i = 0 to Cmat.rows x - 1 do
    for j = 0 to Cmat.cols x - 1 do
      let v = Cmat.get x i j and w = Cmat.get d i j in
      Cmat.set d i j
        { Complex.re = w.Complex.re +. ((z.re *. v.Complex.re) -. (z.im *. v.im));
          im = w.im +. ((z.re *. v.im) +. (z.im *. v.Complex.re)) }
    done
  done;
  d

let ref_trace_of_product a b =
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j and y = Cmat.get b j i in
      re := !re +. ((x.Complex.re *. y.Complex.re) -. (x.im *. y.im));
      im := !im +. ((x.Complex.re *. y.im) +. (x.im *. y.Complex.re))
    done
  done;
  { Complex.re = !re; im = !im }

let ref_dagger a =
  let d = Cmat.create (Cmat.cols a) (Cmat.rows a) in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j in
      Cmat.set d j i { Complex.re = x.Complex.re; im = -.x.im }
    done
  done;
  d

let ref_one_norm a =
  let best = ref 0.0 in
  for j = 0 to Cmat.cols a - 1 do
    let s = ref 0.0 in
    for i = 0 to Cmat.rows a - 1 do
      let x = Cmat.get a i j in
      s :=
        !s +. sqrt ((x.Complex.re *. x.Complex.re) +. (x.im *. x.im))
    done;
    if !s > !best then best := !s
  done;
  !best

(* The scaling-and-squaring Taylor exponential, rebuilt from the reference
   ops above: exactly Expm's algorithm (order 13, norm threshold 1/2,
   ldexp scaling), so both the generic path and the dim-2/dim-4
   specializations must reproduce it bit for bit. *)
let ref_expm a =
  let n = Cmat.rows a in
  let norm = ref_one_norm a in
  let s =
    if norm <= 0.5 then 0
    else int_of_float (ceil (log (norm /. 0.5) /. log 2.0))
  in
  let inv = Float.ldexp 1.0 (-s) in
  let scaled = ref_scale { Complex.re = inv; im = 0.0 } a in
  let acc = ref (ref_identity n) in
  let term = ref (ref_identity n) in
  for k = 1 to 13 do
    term :=
      ref_scale { Complex.re = 1.0 /. float_of_int k; im = 0.0 }
        (ref_mul !term scaled);
    acc := ref_axpy { Complex.re = 1.0; im = 0.0 } !term !acc
  done;
  for _ = 1 to s do
    acc := ref_mul !acc !acc
  done;
  !acc

(* --- exact-bits comparison --- *)

let bits_eq_mat label a b =
  if Cmat.rows a <> Cmat.rows b || Cmat.cols a <> Cmat.cols b then
    QCheck.Test.fail_reportf "%s: dimension mismatch" label;
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j and y = Cmat.get b i j in
      if
        Int64.bits_of_float x.Complex.re <> Int64.bits_of_float y.Complex.re
        || Int64.bits_of_float x.im <> Int64.bits_of_float y.im
      then
        QCheck.Test.fail_reportf "%s: entry (%d,%d) differs: (%h,%h) vs (%h,%h)"
          label i j x.Complex.re x.im y.Complex.re y.im
    done
  done;
  true

let bits_eq_c label (x : Complex.t) (y : Complex.t) =
  if
    Int64.bits_of_float x.re <> Int64.bits_of_float y.re
    || Int64.bits_of_float x.im <> Int64.bits_of_float y.im
  then QCheck.Test.fail_reportf "%s: (%h,%h) vs (%h,%h)" label x.re x.im y.re y.im;
  true

let dim_of_seed seed lo hi = lo + (seed mod (hi - lo + 1))

(* --- properties --- *)

let prop_mul_equiv =
  QCheck.Test.make ~name:"mul = naive triple loop (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 in
      let p = dim_of_seed (seed / 17) 1 16 in
      let q = dim_of_seed (seed / 289) 1 16 in
      let a = random_mat rng n p and b = random_mat rng p q in
      let d = Cmat.create n q in
      Cmat.mul_into ~dst:d a b;
      bits_eq_mat "mul_into" d (ref_mul a b)
      && bits_eq_mat "mul" (Cmat.mul a b) (ref_mul a b))

let prop_scale_equiv =
  QCheck.Test.make ~name:"scale = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 and m = dim_of_seed (seed / 17) 1 16 in
      let a = random_mat rng n m in
      let z =
        { Complex.re = Rng.uniform rng ~lo:(-2.0) ~hi:2.0;
          im = Rng.uniform rng ~lo:(-2.0) ~hi:2.0 }
      in
      bits_eq_mat "scale" (Cmat.scale z a) (ref_scale z a))

let prop_axpy_equiv =
  QCheck.Test.make ~name:"axpy = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 and m = dim_of_seed (seed / 17) 1 16 in
      let x = random_mat rng n m and y = random_mat rng n m in
      let z =
        { Complex.re = Rng.uniform rng ~lo:(-2.0) ~hi:2.0;
          im = Rng.uniform rng ~lo:(-2.0) ~hi:2.0 }
      in
      let expect = ref_axpy z x y in
      Cmat.axpy ~alpha:z ~x ~y;
      bits_eq_mat "axpy" y expect)

let prop_trace_of_product_equiv =
  QCheck.Test.make ~name:"trace_of_product = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 in
      let a = random_mat rng n n and b = random_mat rng n n in
      let expect = ref_trace_of_product a b in
      let buf = [| 0.0; 0.0 |] in
      Cmat.trace_of_product_into ~dst:buf a b;
      bits_eq_c "trace_of_product" (Cmat.trace_of_product a b) expect
      && bits_eq_c "trace_of_product_into"
           { Complex.re = buf.(0); im = buf.(1) }
           expect)

let prop_dagger_equiv =
  QCheck.Test.make ~name:"dagger = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 and m = dim_of_seed (seed / 17) 1 16 in
      let a = random_mat rng n m in
      bits_eq_mat "dagger" (Cmat.dagger a) (ref_dagger a))

let prop_expm_equiv =
  QCheck.Test.make
    ~name:"expm = reference scaling-squaring Taylor (bits, incl. dim 2/4)"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* 1..16 but biased through the specialized dims: 2 and 4 take the
         hand-unrolled paths, everything else the generic loop. *)
      let n =
        match seed mod 4 with
        | 0 -> 2
        | 1 -> 4
        | _ -> dim_of_seed (seed / 17) 1 16
      in
      let a = random_mat rng n n in
      let ws = Expm.make_ws n in
      let d = Cmat.create n n in
      Expm.expm_into ws ~dst:d a;
      bits_eq_mat "expm_into" d (ref_expm a)
      && bits_eq_mat "expm" (Expm.expm a) (ref_expm a))

(* --- aliasing preconditions: misuse must trip the asserts, not corrupt --- *)

let raises_assert f =
  match f () with
  | _ -> false
  | exception Assert_failure _ -> true

let test_mul_into_aliasing () =
  let rng = Rng.create 7 in
  let a = random_mat rng 4 4 and b = random_mat rng 4 4 in
  Alcotest.(check bool) "dst == a rejected" true
    (raises_assert (fun () -> Cmat.mul_into ~dst:a a b));
  Alcotest.(check bool) "dst == b rejected" true
    (raises_assert (fun () -> Cmat.mul_into ~dst:b a b));
  Alcotest.(check bool) "shape mismatch rejected" true
    (raises_assert (fun () ->
         Cmat.mul_into ~dst:(Cmat.create 3 3) a b))

let test_dagger_into_aliasing () =
  let rng = Rng.create 8 in
  let a = random_mat rng 4 4 in
  Alcotest.(check bool) "dst == a rejected" true
    (raises_assert (fun () -> Cmat.dagger_into ~dst:a a))

(* --- allocation: the expm hot path must not touch the minor heap --- *)

let test_expm_into_no_alloc () =
  (* [expm_into] with a prepared workspace is allocation-free for both the
     specialized (2, 4) and generic dims.  Run a few thousand calls between
     two [Gc.minor_words] readings: per-call heap growth shows up as
     thousands of words here; the slack only covers the instrumentation's
     own boxes. *)
  List.iter
    (fun n ->
      let rng = Rng.create (100 + n) in
      let a = random_mat rng n n in
      let ws = Expm.make_ws n in
      let d = Cmat.create n n in
      Expm.expm_into ws ~dst:d a;
      let w0 = Gc.minor_words () in
      for _ = 1 to 2_000 do
        Expm.expm_into ws ~dst:d a
      done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "expm_into dim %d allocates (%.0f words / 2000 calls)"
           n dw)
        true (dw < 100.0))
    [ 2; 3; 4; 8 ]

(* --- the state-vector simulator: pinned energies, allocation count --- *)

module Circuit = Pqc_quantum.Circuit
module Statevec = Pqc_quantum.Statevec

let pinned_theta n = Array.init n (fun i -> 0.37 *. float_of_int (i + 1))

let beh2 = Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.beh2

let check_bits what expected got =
  Alcotest.(check string) what (Printf.sprintf "%h" expected) (Printf.sprintf "%h" got)

(* The simulator's gate kernels write exactly the floats of the dense
   matrix path they replaced; these energies were computed on that path. *)
let test_beh2_energy_pinned () =
  let h =
    Pqc_vqe.Chemistry.synthetic ~seed:7
      ~n_qubits:Pqc_vqe.Molecule.beh2.Pqc_vqe.Molecule.n_qubits
  in
  let theta = pinned_theta (Circuit.n_params beh2) in
  check_bits "BeH2 UCCSD energy" 0x1.f9eb55a482cb8p+0
    (Pqc_quantum.Pauli.expectation h (Statevec.run ~theta beh2))

let test_qaoa_cut_pinned () =
  match Pqc_core.Bench_matrix.workload_of_spec "3reg6p2" with
  | Ok (Pqc_core.Bench_matrix.Qaoa { graph; p }) ->
    let c = Pqc_qaoa.Qaoa.circuit graph ~p in
    let theta = pinned_theta (Circuit.n_params c) in
    check_bits "3reg6p2 p=2 expected cut" 0x1.1b83278943be8p+2
      (Pqc_qaoa.Maxcut.expected_cut graph (Statevec.run ~theta c))
  | Ok (Pqc_core.Bench_matrix.Mol _) | Error _ -> Alcotest.fail "3reg6p2 is a QAOA spec"

(* One run of the 2 908-gate BeH2 ansatz: the kernels allocate nothing per
   gate, so the minor heap grows by the result vector and a few boxes. *)
let test_statevec_run_allocation () =
  let theta = pinned_theta (Circuit.n_params beh2) in
  ignore (Statevec.run ~theta beh2);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Statevec.run ~theta beh2));
  let per_gate = (Gc.minor_words () -. w0) /. float_of_int (Circuit.length beh2) in
  Alcotest.(check bool)
    (Printf.sprintf "Statevec.run allocates %.2f minor words per gate (<= 16)" per_gate)
    true (per_gate <= 16.0)

let () =
  Alcotest.run "kernels"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_mul_equiv;
          QCheck_alcotest.to_alcotest prop_scale_equiv;
          QCheck_alcotest.to_alcotest prop_axpy_equiv;
          QCheck_alcotest.to_alcotest prop_trace_of_product_equiv;
          QCheck_alcotest.to_alcotest prop_dagger_equiv;
          QCheck_alcotest.to_alcotest prop_expm_equiv ] );
      ( "preconditions",
        [ Alcotest.test_case "mul_into aliasing" `Quick test_mul_into_aliasing;
          Alcotest.test_case "dagger_into aliasing" `Quick
            test_dagger_into_aliasing ] );
      ( "allocation",
        [ Alcotest.test_case "expm_into allocation-free" `Quick
            test_expm_into_no_alloc;
          Alcotest.test_case "Statevec.run per-gate allocation" `Quick
            test_statevec_run_allocation ] );
      ( "simulator",
        [ Alcotest.test_case "BeH2 energy bits pinned" `Quick
            test_beh2_energy_pinned;
          Alcotest.test_case "3reg6p2 cut bits pinned" `Quick
            test_qaoa_cut_pinned ] ) ]
